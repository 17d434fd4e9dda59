//! JSON-lines trace files.
//!
//! A trace is a sequence of flat JSON objects, one per line:
//!
//! ```text
//! {"t":"meta","cmd":"partition","algo":"2PS-L","k":32,"alpha":1.1,"vertices":875713,"edges":5105039}
//! {"t":"e","k":"o","n":"degree","w":0,"tid":1,"ns":1200}
//! {"t":"e","k":"c","n":"degree","w":0,"tid":1,"ns":91200}
//! {"t":"e","k":"i","n":"dist.fault.retry","w":0,"tid":1,"ns":99000,"d":"shard 1: connection reset"}
//! {"t":"c","w":0,"n":"io.v2.chunks_decoded","v":613}
//! ```
//!
//! * `t` — record type: `meta` (run header), `e` (event), `c` (counter).
//! * event `k` — `o` (span open), `c` (span close), `i` (point mark).
//! * `w` — worker: `0` for the local process / coordinator, `shard + 1` for
//!   dist workers.
//! * `ns` — nanoseconds since that worker's process-local epoch.
//!
//! The format is line-oriented so a crashed run still leaves a parseable
//! prefix: [`Trace::parse`] treats an unparseable *final* line as torn
//! (setting [`Trace::truncated`]) but rejects corruption anywhere else.
//! Lines with an unknown `t` are skipped for forward compatibility.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::counter::{counters_snapshot, reset_counters};
use crate::json::{parse_json, Json};
use crate::recorder::{
    reset_events, set_enabled, take_events, take_remote_counters, EventKind, TraceEvent,
};

/// The run header stored on a trace's `meta` line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMeta {
    /// CLI mode that produced the trace (`partition`, `dist`, `bench`, …).
    pub cmd: String,
    /// Algorithm label (e.g. `2PS-L` or `2PS-L x4`).
    pub algo: String,
    /// Number of partitions.
    pub k: u32,
    /// Balance slack factor α.
    pub alpha: f64,
    /// Vertex count of the input graph (0 when unknown).
    pub vertices: u64,
    /// Edge count of the input graph (0 when unknown).
    pub edges: u64,
}

/// A parsed trace: header, events, counter values, truncation flag.
#[derive(Debug, Default)]
pub struct Trace {
    /// The `meta` line, if present.
    pub meta: Option<TraceMeta>,
    /// All events, in file order.
    pub events: Vec<TraceEvent>,
    /// Counter values as `(worker, name, value)`.
    pub counters: Vec<(u32, String, u64)>,
    /// True when the final line was torn (e.g. the process died mid-write).
    pub truncated: bool,
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Render a whole trace (meta + events + counters) as JSON-lines text.
pub fn render_trace(
    meta: &TraceMeta,
    events: &[TraceEvent],
    counters: &[(u32, String, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\"t\":\"meta\",");
    push_str_field(&mut out, "cmd", &meta.cmd);
    out.push(',');
    push_str_field(&mut out, "algo", &meta.algo);
    let _ = writeln!(
        out,
        ",\"k\":{},\"alpha\":{},\"vertices\":{},\"edges\":{}}}",
        meta.k, meta.alpha, meta.vertices, meta.edges
    );
    for e in events {
        let kind = match e.kind {
            EventKind::Open => "o",
            EventKind::Close => "c",
            EventKind::Mark => "i",
        };
        let _ = write!(out, "{{\"t\":\"e\",\"k\":\"{kind}\",");
        push_str_field(&mut out, "n", &e.name);
        let _ = write!(out, ",\"w\":{},\"tid\":{},\"ns\":{}", e.worker, e.tid, e.ns);
        if let Some(d) = &e.detail {
            out.push(',');
            push_str_field(&mut out, "d", d);
        }
        out.push_str("}\n");
    }
    for (worker, name, value) in counters {
        let _ = write!(out, "{{\"t\":\"c\",\"w\":{worker},");
        push_str_field(&mut out, "n", name);
        let _ = writeln!(out, ",\"v\":{value}}}");
    }
    out
}

/// Write a trace file at `path`.
pub fn write_trace(
    path: &Path,
    meta: &TraceMeta,
    events: &[TraceEvent],
    counters: &[(u32, String, u64)],
) -> std::io::Result<()> {
    fs::write(path, render_trace(meta, events, counters))
}

/// One traced run, from [`TraceRecording::begin`] to the file that
/// [`TraceRecording::finish`] writes.
pub struct TraceRecording {
    path: PathBuf,
}

impl TraceRecording {
    /// Start recording from a clean slate, so the file describes this run
    /// only: reset events and counters and switch event recording on
    /// (counters are always on; events need the switch).
    pub fn begin(path: impl Into<PathBuf>) -> Self {
        reset_events();
        reset_counters();
        set_enabled(true);
        TraceRecording { path: path.into() }
    }

    /// The file [`TraceRecording::finish`] writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop recording and write `meta`, the recorded events, the local
    /// counters as worker 0 and the remote ones under the worker id the dist
    /// coordinator tagged them with. Returns the event and counter counts.
    pub fn finish(self, meta: &TraceMeta) -> io::Result<(usize, usize)> {
        set_enabled(false);
        let events = take_events();
        let mut counters: Vec<(u32, String, u64)> = counters_snapshot()
            .into_iter()
            .map(|(n, v)| (0, n, v))
            .collect();
        counters.extend(take_remote_counters());
        write_trace(&self.path, meta, &events, &counters).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing trace {}: {e}", self.path.display()),
            )
        })?;
        Ok((events.len(), counters.len()))
    }
}

/// One record: a flat JSON object whose values are strings or numbers.
/// Nested objects and arrays are errors.
fn flat_object(line: &str) -> Result<Json, String> {
    if !line.trim_start().starts_with('{') {
        return Err("expected '{'".into());
    }
    let record = parse_json(line)?;
    let Json::Obj(fields) = &record else {
        return Err("expected '{'".into());
    };
    match fields
        .iter()
        .find(|(_, v)| !matches!(v, Json::Str(_) | Json::Num(_)))
    {
        Some((key, _)) => Err(format!("field {key:?} is not a string or number")),
        None => Ok(record),
    }
}

fn get_str(record: &Json, key: &str) -> Result<String, String> {
    match record.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn get_num(record: &Json, key: &str) -> Result<f64, String> {
    match record.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field {key:?} is not a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

enum Record {
    Meta(TraceMeta),
    Event(TraceEvent),
    Counter(u32, String, u64),
    Other,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let record = flat_object(line)?;
    match get_str(&record, "t")?.as_str() {
        "meta" => Ok(Record::Meta(TraceMeta {
            cmd: get_str(&record, "cmd")?,
            algo: get_str(&record, "algo")?,
            k: get_num(&record, "k")? as u32,
            alpha: get_num(&record, "alpha")?,
            vertices: get_num(&record, "vertices")? as u64,
            edges: get_num(&record, "edges")? as u64,
        })),
        "e" => {
            let kind = match get_str(&record, "k")?.as_str() {
                "o" => EventKind::Open,
                "c" => EventKind::Close,
                "i" => EventKind::Mark,
                other => return Err(format!("unknown event kind {other:?}")),
            };
            Ok(Record::Event(TraceEvent {
                kind,
                name: get_str(&record, "n")?,
                worker: get_num(&record, "w")? as u32,
                tid: get_num(&record, "tid")? as u32,
                ns: get_num(&record, "ns")? as u64,
                detail: get_str(&record, "d").ok(),
            }))
        }
        "c" => Ok(Record::Counter(
            get_num(&record, "w")? as u32,
            get_str(&record, "n")?,
            get_num(&record, "v")? as u64,
        )),
        _ => Ok(Record::Other),
    }
}

impl Trace {
    /// Parse trace text. A malformed *final* line is tolerated as a torn
    /// write (sets [`Trace::truncated`]); malformed earlier lines are
    /// errors reported with their 1-based line number.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let lines: Vec<&str> = text.lines().collect();
        let mut trace = Trace::default();
        let last_nonempty = lines.iter().rposition(|l| !l.trim().is_empty());
        for (idx, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_record(line) {
                Ok(Record::Meta(m)) => trace.meta = Some(m),
                Ok(Record::Event(e)) => trace.events.push(e),
                Ok(Record::Counter(w, n, v)) => trace.counters.push((w, n, v)),
                Ok(Record::Other) => {}
                Err(_) if Some(idx) == last_nonempty => {
                    trace.truncated = true;
                }
                Err(e) => return Err(format!("line {}: {e}", idx + 1)),
            }
        }
        Ok(trace)
    }

    /// Whether no line held a meta, event or counter record (an empty
    /// file, or one whose only line is torn or not a trace line at all).
    pub fn is_empty(&self) -> bool {
        self.meta.is_none() && self.events.is_empty() && self.counters.is_empty()
    }

    /// Load and parse the trace file at `path`.
    pub fn load(path: &Path) -> Result<Trace, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Trace::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (TraceMeta, Vec<TraceEvent>, Vec<(u32, String, u64)>) {
        let meta = TraceMeta {
            cmd: "partition".into(),
            algo: "2PS-L".into(),
            k: 32,
            alpha: 1.05,
            vertices: 100,
            edges: 500,
        };
        let events = vec![
            TraceEvent {
                kind: EventKind::Open,
                name: "degree".into(),
                worker: 0,
                tid: 1,
                ns: 10,
                detail: None,
            },
            TraceEvent {
                kind: EventKind::Mark,
                name: "dist.fault.retry".into(),
                worker: 0,
                tid: 1,
                ns: 15,
                detail: Some("shard 1: \"reset\"\n".into()),
            },
            TraceEvent {
                kind: EventKind::Close,
                name: "degree".into(),
                worker: 0,
                tid: 1,
                ns: 20,
                detail: None,
            },
        ];
        let counters = vec![(0, "io.v2.chunks_decoded".into(), 7)];
        (meta, events, counters)
    }

    #[test]
    fn roundtrip() {
        let (meta, events, counters) = sample();
        let text = render_trace(&meta, &events, &counters);
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.meta.as_ref().unwrap(), &meta);
        assert_eq!(trace.events, events);
        assert_eq!(trace.counters, counters);
        assert!(!trace.truncated);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let (meta, events, counters) = sample();
        let text = render_trace(&meta, &events, &counters);
        let cut = &text[..text.len() - 10];
        let trace = Trace::parse(cut).unwrap();
        assert!(trace.truncated);
        assert_eq!(trace.events.len(), events.len());
    }

    #[test]
    fn corrupt_middle_line_errors_with_line_number() {
        let (meta, events, counters) = sample();
        let mut lines: Vec<String> = render_trace(&meta, &events, &counters)
            .lines()
            .map(String::from)
            .collect();
        lines[1] = "{\"t\":\"e\",\"k\":\"o\",garbage".into();
        let err = Trace::parse(&lines.join("\n")).unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn nested_values_are_corrupt_records() {
        let counter = "{\"t\":\"c\",\"w\":0,\"n\":\"y\",\"v\":1}";
        for nested in [
            "{\"t\":\"c\",\"w\":0,\"n\":\"y\",\"v\":[1]}",
            "{\"t\":\"c\",\"w\":0,\"n\":\"y\",\"v\":1,\"x\":{\"a\":1}}",
            "{\"t\":\"future\",\"x\":[]}",
        ] {
            let err = Trace::parse(&format!("{counter}\n{nested}\n{counter}")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{nested}: {err}");
            let trace = Trace::parse(&format!("{counter}\n{nested}\n")).unwrap();
            assert!(trace.truncated, "{nested}");
            assert_eq!(trace.counters.len(), 1, "{nested}");
        }
    }

    #[test]
    fn missing_field_is_an_error() {
        let text =
            "{\"t\":\"e\",\"k\":\"o\",\"n\":\"x\"}\n{\"t\":\"c\",\"w\":0,\"n\":\"y\",\"v\":1}";
        let err = Trace::parse(text).unwrap_err();
        assert!(err.contains("missing field"), "got: {err}");
    }

    #[test]
    fn unknown_record_type_is_skipped() {
        let text = "{\"t\":\"future\",\"x\":1}\n{\"t\":\"c\",\"w\":0,\"n\":\"y\",\"v\":1}";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.counters.len(), 1);
    }

    #[test]
    fn empty_input_parses_empty() {
        let trace = Trace::parse("").unwrap();
        assert!(trace.meta.is_none());
        assert!(trace.events.is_empty());
        assert!(!trace.truncated);
    }
}
