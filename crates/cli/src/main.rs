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
//!
//! `--help` or `-h` after any subcommand prints the usage and exits 0.
//!
//! Exit status: 0 on success, and also when the reader of stdout has gone
//! (`tps info … | head -0`; `tps serve` serves on without one); 2 with one
//! `error:` line on stderr otherwise. Among the exit-2 input errors:
//!
//! - an `--alpha` below 1, infinite or not a number (every mode);
//! - a `tps generate --scale` that is not a positive finite number, or
//!   whose vertex ids would leave the 32-bit id space (checked before
//!   anything is generated);
//! - `tps report` of a file with no complete trace record (an empty file,
//!   or one junk line); a real trace with a torn last line still renders,
//!   with a warning.

use std::fmt;
use std::io::{self, Write as _};

/// `println!` that returns: one line through [`write_stdout`].
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod serve_cmd;
mod top_cmd;

/// Why a command stopped short of success.
pub(crate) enum Failure {
    /// The reader of stdout has gone (`tps info … | head -0`): nobody is
    /// left to read the rest, so [`fail`] ends the command with exit 0 and
    /// no message.
    StdoutClosed,
    /// Exit 2 with `error: <message>` on stderr.
    Error(String),
}

impl Failure {
    /// `Ok` for a closed stdout, `Err(self)` otherwise: for output a
    /// command can do without, such as a daemon's banner lines.
    pub(crate) fn unless_stdout_closed(self) -> Result<(), Failure> {
        match self {
            Failure::StdoutClosed => Ok(()),
            other => Err(other),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Error(msg.to_string())
    }
}

/// Write `args` to the locked stdout and flush it. A broken pipe is
/// [`Failure::StdoutClosed`]; any other write error is a failure of the
/// command.
pub(crate) fn write_stdout(args: fmt::Arguments) -> Result<(), Failure> {
    let mut out = io::stdout().lock();
    out.write_fmt(args)
        .and_then(|()| out.flush())
        .map_err(|e| match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::StdoutClosed,
            _ => Failure::Error(format!("writing to stdout: {e}")),
        })
}

/// The exit status of a command that stopped with `failure`: 2 after one
/// `error:` line on stderr, or 0 with no message for a closed stdout.
pub(crate) fn fail(failure: impl Into<Failure>) -> i32 {
    match failure.into() {
        Failure::StdoutClosed => 0,
        Failure::Error(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

/// A subcommand: its arguments in, its exit status out.
type Command = fn(&[String]) -> i32;

/// Every subcommand, by name.
const COMMANDS: &[(&str, Command)] = &[
    ("partition", commands::partition),
    ("dist", commands::dist),
    ("serve", serve_cmd::serve),
    ("lookup", serve_cmd::lookup),
    ("top", top_cmd::top),
    ("generate", commands::generate),
    ("convert", commands::convert),
    ("info", commands::info),
    ("profile", commands::profile),
    ("report", commands::report),
];

/// Print the usage to stdout.
fn usage() -> i32 {
    match write_stdout(format_args!("{}", commands::USAGE)) {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("help" | "--help" | "-h") | None => usage(),
        Some(name) => match COMMANDS.iter().find(|(n, _)| *n == name) {
            // `--help` or `-h` anywhere after a subcommand asks for the usage.
            Some(_) if argv[1..].iter().any(|a| a == "--help" || a == "-h") => usage(),
            Some((_, command)) => command(&argv[1..]),
            None => {
                eprintln!("error: unknown command {name:?}\n\n{}", commands::USAGE);
                2
            }
        },
    };
    std::process::exit(code);
}
