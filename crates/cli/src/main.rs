//! `tps` — the command-line edge partitioner.
//!
//! The artifact a downstream user actually runs (the paper: "We implemented
//! 2PS-L as a separate process that reads the graph data as a file from a
//! given storage, partitions the edges, and writes back the partitioned
//! graph data to storage").
//!
//! ```text
//! tps partition --input graph.bel -k 32 [--algorithm 2ps-l] [--alpha 1.05]
//!               [--passes 1] [--threads N|auto|serial] [--out DIR]
//!               [--format bel|text] [--reader buffered]
//!               [--mem-budget-mb N] [--trace FILE] [--quiet]
//! tps dist coordinator --input graph.bel --k 32 --workers N
//!               [--listen ADDR] [--dist-local] [--standby N]
//!               [--max-retries N] [--frame-timeout-ms N] [partition options]
//! tps dist worker --connect HOST:PORT [--reconnect N]
//! tps serve     --parts DIR [--listen ADDR] [--addr-file FILE] [--cache N]
//!               [--state FILE] [--save-state FILE] [--headroom F]
//! tps lookup    --connect HOST:PORT [--edge S,D] [--replicas V] [--insert S,D]
//!               [--remove S,D] [--verify-parts DIR] [--stats] [--shutdown]
//! tps top       HOST:PORT [--interval-ms N] [--samples N] [--once]
//! tps generate  --dataset ok [--scale 1.0] --out graph.bel
//! tps convert   --input graph.bel --out graph.bel2 [--to v1|v2] [--chunk-edges N]
//! tps info      --input graph.bel [--format bel|text] [--reader buffered]
//! tps profile   --path some.file [--block-size 104857600]
//! tps report    trace.jsonl
//! tps help
//! ```
//!
//! `--mem-budget-mb N` bounds a one-shard `partition` (`--threads serial` or
//! `1`): half of it pages the cluster table until, at a clustering-pass
//! boundary, the table fits that half flat and the run goes on in memory.
//! `tps help` has the full split. `--reader` accepts only `buffered`, the
//! one way a binary input is read (positioned reads of one file handle).

mod args;
mod commands;
mod serve_cmd;
mod top_cmd;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("partition") => commands::partition(&argv[1..]),
        Some("dist") => commands::dist(&argv[1..]),
        Some("serve") => serve_cmd::serve(&argv[1..]),
        Some("lookup") => serve_cmd::lookup(&argv[1..]),
        Some("top") => top_cmd::top(&argv[1..]),
        Some("generate") => commands::generate(&argv[1..]),
        Some("convert") => commands::convert(&argv[1..]),
        Some("info") => commands::info(&argv[1..]),
        Some("profile") => commands::profile(&argv[1..]),
        Some("report") => commands::report(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
