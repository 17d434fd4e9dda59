//! `tps serve` / `tps lookup` — the online serving daemon and its client.
//!
//! `serve` loads a `tps partition --out` directory into a
//! [`tps_serve::ServeState`] and answers point queries and streamed edge
//! deltas over TCP; `lookup` is the matching command-line client (and the
//! CI smoke test's driver: `--verify-parts` re-reads the partition files
//! and asserts the served answers match them bit for bit).

use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, RwLock};

use tps_graph::types::Edge;
use tps_serve::{ServeClient, ServeHandle, ServeOptions, ServeState, ServerConfig};

use crate::args::{CommonOpts, Flags};
use crate::commands::{replace_file, two_phase_config, write_addr_file};
use crate::{fail, Failure};

/// `tps serve`
pub fn serve(args: &[String]) -> i32 {
    let flags = match Flags::parse(
        args,
        &["quiet"],
        &[
            "parts",
            "listen",
            "addr-file",
            "metrics-addr",
            "metrics-addr-file",
            "trace",
            "state",
            "save-state",
            "cache",
            "headroom",
            "alpha",
            "passes",
            "algorithm",
        ],
    ) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let common = CommonOpts::from_flags(&flags)?;
        let parts = flags.require("parts")?;
        let quiet = flags.has("quiet");
        let config = two_phase_config(&common.algorithm, common.passes).ok_or_else(|| {
            format!(
                "tps serve scores insertions with 2ps-l / 2ps-hdrf only, not {:?}",
                common.algorithm
            )
        })?;
        let opts = ServeOptions {
            alpha: common.alpha,
            headroom: flags.get_or("headroom", 1.2)?,
            config,
        };

        let loaded =
            tps_io::load_partition_dir(Path::new(parts)).map_err(|e| format!("{parts}: {e}"))?;
        let state = match flags.get("state") {
            // Restore the write path (every post-load decision) from a
            // snapshot; a missing file is a first boot, not an error.
            Some(path) if Path::new(path).exists() => {
                let mut f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                let st =
                    ServeState::restore(&loaded, &mut f).map_err(|e| format!("{path}: {e}"))?;
                if !quiet {
                    eprintln!(
                        "note: restored engine snapshot from {path} ({} overlay entries)",
                        st.overlay_len()
                    );
                }
                st
            }
            _ => ServeState::from_loaded(&loaded, &opts).map_err(|e| format!("{parts}: {e}"))?,
        };
        if !quiet {
            eprintln!(
                "note: loaded {} edges, k={}, staleness {:.4}",
                state.num_edges(),
                state.k(),
                state.staleness()
            );
        }
        let state = Arc::new(RwLock::new(state));

        let listener = TcpListener::bind(flags.get("listen").unwrap_or("127.0.0.1:0"))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // A daemon serves on without a reader of its banner lines.
        say!("serving {parts} on {addr}").or_else(Failure::unless_stdout_closed)?;
        if let Some(path) = flags.get("addr-file") {
            write_addr_file(path, &addr.to_string())?;
        }

        // The live-metrics endpoint: binds its own socket, scrapes run on
        // its own thread, the request loop only ever touches histograms.
        let _metrics = match flags.get("metrics-addr") {
            Some(maddr) => {
                let server = tps_serve::start_metrics(maddr, state.clone())
                    .map_err(|e| format!("metrics bind {maddr}: {e}"))?;
                let bound = server.addr();
                say!("metrics on http://{bound}/metrics").or_else(Failure::unless_stdout_closed)?;
                if let Some(path) = flags.get("metrics-addr-file") {
                    write_addr_file(path, &bound.to_string())?;
                }
                Some(server)
            }
            None => None,
        };

        let trace = flags.get("trace").map(tps_obs::TraceRecording::begin);

        let cfg = ServerConfig {
            cache_capacity: flags.get_or("cache", 4096)?,
            ..ServerConfig::default()
        };
        let handle = ServeHandle::new();
        tps_serve::serve_listener(listener, state.clone(), cfg, &handle)
            .map_err(|e| e.to_string())?;

        if let Some(trace) = trace {
            let st = state.read().unwrap_or_else(|e| e.into_inner());
            let meta = tps_obs::TraceMeta {
                cmd: "serve".to_string(),
                algo: common.algorithm.clone(),
                k: st.k(),
                alpha: common.alpha,
                vertices: st.num_vertices(),
                edges: st.num_edges(),
            };
            drop(st);
            let path = trace.path().display().to_string();
            let (events, counters) = trace.finish(&meta).map_err(|e| e.to_string())?;
            if !quiet {
                eprintln!("trace: {events} events, {counters} counters -> {path}");
            }
        }

        let st = state.read().unwrap_or_else(|e| e.into_inner());
        if let Some(path) = flags.get("save-state") {
            replace_file(Path::new(path), |f| st.write_snapshot(f))?;
            if !quiet {
                eprintln!("note: wrote engine snapshot to {path}");
            }
        }
        let stats = st.stats();
        say!(
            "served {} lookups, {} mutations; staleness {:.4}, epoch {}",
            stats.lookups,
            stats.updates,
            stats.staleness,
            stats.epoch
        )
        .or_else(Failure::unless_stdout_closed)
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// Parse `S,D[;S,D…]` into edges.
fn parse_edge_list(spec: &str) -> Result<Vec<Edge>, String> {
    spec.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            let (s, d) = pair
                .split_once(',')
                .ok_or_else(|| format!("bad edge {pair:?} (want SRC,DST)"))?;
            let src = s
                .trim()
                .parse()
                .map_err(|_| format!("bad vertex {s:?} in {pair:?}"))?;
            let dst = d
                .trim()
                .parse()
                .map_err(|_| format!("bad vertex {d:?} in {pair:?}"))?;
            Ok(Edge::new(src, dst))
        })
        .collect()
}

/// Read whitespace-separated `src dst` lines (`#` comments allowed).
fn read_edge_file(path: &str) -> Result<Vec<Edge>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut edges = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(s), Some(d), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("{path}:{}: want \"src dst\"", lineno + 1));
        };
        let src = s
            .parse()
            .map_err(|_| format!("{path}:{}: bad vertex {s:?}", lineno + 1))?;
        let dst = d
            .parse()
            .map_err(|_| format!("{path}:{}: bad vertex {d:?}", lineno + 1))?;
        edges.push(Edge::new(src, dst));
    }
    Ok(edges)
}

/// `tps lookup`
pub fn lookup(args: &[String]) -> i32 {
    let flags = match Flags::parse(
        args,
        &["stats", "shutdown"],
        &[
            "connect",
            "edge",
            "replicas",
            "insert",
            "remove",
            "insert-file",
            "remove-file",
            "verify-parts",
        ],
    ) {
        Ok(f) => f,
        Err(e) => return fail(e),
    };
    let run = || -> Result<(), Failure> {
        let connect = flags.require("connect")?;
        let mut client = ServeClient::connect(connect).map_err(|e| format!("{connect}: {e}"))?;

        if let Some(spec) = flags.get("edge") {
            let edges = parse_edge_list(spec)?;
            let parts = client.lookup_batch(&edges).map_err(|e| e.to_string())?;
            for (e, p) in edges.iter().zip(parts) {
                match p {
                    Some(p) => say!("{},{} -> {p}", e.src, e.dst)?,
                    None => say!("{},{} -> not found", e.src, e.dst)?,
                }
            }
        }

        if let Some(spec) = flags.get("replicas") {
            let vertices: Vec<u32> = spec
                .split(',')
                .map(|v| v.trim().parse().map_err(|_| format!("bad vertex {v:?}")))
                .collect::<Result<_, String>>()?;
            let sets = client.replica_sets(&vertices).map_err(|e| e.to_string())?;
            for (v, set) in vertices.iter().zip(sets) {
                let list: Vec<String> = set.iter().map(|p| p.to_string()).collect();
                say!("{v} -> [{}]", list.join(","))?;
            }
        }

        let mut inserts = Vec::new();
        let mut removes = Vec::new();
        if let Some(spec) = flags.get("insert") {
            inserts.extend(parse_edge_list(spec)?);
        }
        if let Some(path) = flags.get("insert-file") {
            inserts.extend(read_edge_file(path)?);
        }
        if let Some(spec) = flags.get("remove") {
            removes.extend(parse_edge_list(spec)?);
        }
        if let Some(path) = flags.get("remove-file") {
            removes.extend(read_edge_file(path)?);
        }
        if !inserts.is_empty() || !removes.is_empty() {
            let out = client
                .update(&inserts, &removes)
                .map_err(|e| e.to_string())?;
            let ins = out.inserted.iter().filter(|p| p.is_some()).count();
            let rem = out.removed.iter().filter(|p| p.is_some()).count();
            say!(
                "applied {ins}/{} inserts, {rem}/{} removes; staleness {:.4}, epoch {}",
                inserts.len(),
                removes.len(),
                out.staleness,
                out.epoch
            )?;
        }

        if let Some(dir) = flags.get("verify-parts") {
            let loaded =
                tps_io::load_partition_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
            let mut mismatches = 0u64;
            for chunk in loaded.assignments.chunks(1024) {
                let edges: Vec<Edge> = chunk.iter().map(|&(e, _)| e).collect();
                let got = client.lookup_batch(&edges).map_err(|e| e.to_string())?;
                for (&(e, want), got) in chunk.iter().zip(got) {
                    if got != Some(want) {
                        mismatches += 1;
                        if mismatches <= 5 {
                            eprintln!(
                                "mismatch: {},{} served {:?}, files say {want}",
                                e.src, e.dst, got
                            );
                        }
                    }
                }
            }
            if mismatches > 0 {
                return Err(format!(
                    "{mismatches} of {} served partitions disagree with {dir}",
                    loaded.assignments.len()
                )
                .into());
            }
            say!(
                "verified {} edges against {dir}: all match",
                loaded.assignments.len()
            )?;
        }

        if flags.has("stats") {
            let s = client.stats().map_err(|e| e.to_string())?;
            say!("k: {}", s.k)?;
            say!("vertices: {}", s.num_vertices)?;
            say!("edges: {}", s.num_edges)?;
            say!("replication factor: {:.4}", s.replication_factor)?;
            say!("staleness: {:.4}", s.staleness)?;
            say!("epoch: {}", s.epoch)?;
            let loads: Vec<String> = s.loads.iter().map(|l| l.to_string()).collect();
            say!("loads: [{}]", loads.join(","))?;
            say!("lookups: {}", s.lookups)?;
            say!("updates: {}", s.updates)?;
            say!("cache: {} hits / {} misses", s.cache_hits, s.cache_misses)?;
            say!("uptime: {:.1} s", s.uptime_secs)?;
            for (op, l) in [
                ("lookup", &s.lookup_latency),
                ("replicas", &s.replicas_latency),
                ("update", &s.update_latency),
            ] {
                say!(
                    "latency {op}: n={} p50={} p90={} p99={} max={} ns",
                    l.count,
                    l.p50_ns,
                    l.p90_ns,
                    l.p99_ns,
                    l.max_ns
                )?;
            }
        }

        if flags.has("shutdown") {
            client.shutdown().map_err(|e| e.to_string())?;
            say!("daemon shut down")?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_syntax() {
        assert_eq!(
            parse_edge_list("1,2;3, 4").unwrap(),
            vec![Edge::new(1, 2), Edge::new(3, 4)]
        );
        assert!(parse_edge_list("1").is_err());
        assert!(parse_edge_list("a,b").is_err());
        assert!(parse_edge_list("").unwrap().is_empty());
    }

    #[test]
    fn edge_file_syntax() {
        let dir = std::env::temp_dir().join(format!("tps-serve-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("delta.txt");
        std::fs::write(&path, "# delta\n1 2\n 3 4 # trailing\n\n").unwrap();
        let edges = read_edge_file(path.to_str().unwrap()).unwrap();
        assert_eq!(edges, vec![Edge::new(1, 2), Edge::new(3, 4)]);
        std::fs::write(&path, "1 2 3\n").unwrap();
        assert!(read_edge_file(path.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_that_fails_midway_leaves_the_previous_snapshot() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("tps-save-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, tmp) = (dir.join("snap.bin"), dir.join("snap.bin.tmp"));
        std::fs::write(&path, b"previous snapshot").unwrap();
        let err = replace_file(&path, |f| {
            f.write_all(b"half a snap")?;
            Err(std::io::Error::other("disk full"))
        })
        .unwrap_err();
        assert!(err.contains("disk full"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous snapshot");
        assert!(!tmp.exists(), "the temp file outlived the failed save");

        replace_file(&path, |f| f.write_all(b"next snapshot")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"next snapshot");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
