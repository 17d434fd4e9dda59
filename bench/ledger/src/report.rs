//! What the ledger prints and writes: the driver's one-line result, the
//! full results file, and the layer tables rendered from it.

use std::collections::BTreeMap;

use crate::e2e::{EndToEndResult, Measured};
use crate::json::Json;
use crate::layers::TracedResult;
use crate::stats::Summary;
use crate::workload::{Layer, Workload};

/// The last line of standard output the driver reads: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(attempted: u64, failed: u64, metrics: Vec<(&str, f64, &str)>) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .compact()
}

/// Every end-to-end metric of an untraced run, as the contract line wants them.
pub fn end_to_end_metrics(r: &EndToEndResult) -> Vec<(&'static str, f64, &'static str)> {
    r.metrics()
        .into_iter()
        .map(|(spec, m)| (spec.name, m.value, spec.unit))
        .collect()
}

/// Every per-layer metric in `names` (`Workload::layers`), as the contract
/// line wants them: the ones the traced pass did not exercise read 0.
pub fn per_layer_metrics(
    names: &[Layer],
    layers: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    names
        .iter()
        .map(|&(name, unit, _)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn summary_json(value: f64, unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::str(unit)),
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

/// One workload's share of the results file.
pub fn workload_json(w: &Workload, e2e: &EndToEndResult, traced: Option<&TracedResult>) -> Json {
    let mut pairs = vec![
        ("why".to_string(), Json::str(w.why)),
        ("ops".to_string(), Json::Num(e2e.attempted as f64)),
        ("failed".to_string(), Json::Num(e2e.failed as f64)),
        (
            "problems".to_string(),
            Json::Arr(e2e.problems.iter().map(Json::str).collect()),
        ),
        (
            "end_to_end".to_string(),
            Json::obj(
                e2e.metrics()
                    .into_iter()
                    .map(|(spec, m)| (spec.name, summary_json(m.value, spec.unit, &m.samples))),
            ),
        ),
    ];
    if let Some(t) = traced {
        pairs.push((
            "traced".to_string(),
            Json::obj([
                ("ops", Json::Num(t.attempted as f64)),
                ("failed", Json::Num(t.failed as f64)),
                (
                    "problems",
                    Json::Arr(t.problems.iter().map(Json::str).collect()),
                ),
                (
                    "context",
                    Json::obj(t.context.iter().map(|&(k, v)| (k, Json::Num(v)))),
                ),
            ]),
        ));
        pairs.push((
            "per_layer".to_string(),
            Json::obj(t.layers.iter().map(|(&name, &value)| {
                let unit = crate::workload::layer_unit(name).unwrap_or("");
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ));
        let rows = t
            .table_rows()
            .into_iter()
            .map(|(layer, ns_per_edge, share)| {
                Json::obj([
                    ("layer", Json::str(layer)),
                    ("self_ns_per_edge", Json::Num(ns_per_edge)),
                    ("share_of_wall", Json::Num(share)),
                ])
            })
            .collect();
        pairs.push((
            "layer_table".to_string(),
            Json::obj([
                ("wall_of", Json::str(t.table_of)),
                ("wall_ns_per_edge", Json::Num(t.table_wall_ns_per_edge())),
                ("rows", Json::Arr(rows)),
            ]),
        ));
    }
    Json::Obj(pairs)
}

/// The layer tables of a full run as Markdown, one per workload —
/// "self ns/edge · share of wall · unattributed".
pub fn render_layer_tables<'a>(
    traced: impl IntoIterator<Item = (&'a Workload, &'a TracedResult)>,
) -> String {
    let mut md = String::new();
    for (w, t) in traced {
        md.push_str(&format!(
            "**`{}`** — {} {:.1} ns/edge\n\n| layer | self ns/edge | share of wall |\n|---|---:|---:|\n",
            w.name,
            t.table_of,
            t.table_wall_ns_per_edge()
        ));
        for (layer, ns_per_edge, share) in t.table_rows() {
            md.push_str(&format!(
                "| {layer} | {ns_per_edge:.1} | {:.1} % |\n",
                share * 100.0
            ));
        }
        md.push('\n');
    }
    md
}

/// `serial ÷ parallel` wall clock with its label. The two differ only when
/// the interquartile ranges of their reps do not overlap (choosing-metrics
/// §8); a ratio of 1 or less is a slowdown, whatever the flag that produced it
/// is called.
pub fn scaling_label(serial: &Measured, parallel: &Measured) -> (f64, &'static str) {
    let label = if parallel.samples.q3 < serial.samples.q1 {
        "speedup"
    } else if parallel.samples.q1 > serial.samples.q3 {
        "slowdown"
    } else {
        "no difference beyond the spread of the reps"
    };
    (serial.value / parallel.value, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ratio_is_a_speedup_only_beyond_the_spread() {
        let at = |x: f64| Measured::fastest_of(&[0.98 * x, x, 1.02 * x]);
        assert_eq!(scaling_label(&at(100.0), &at(90.0)).1, "speedup");
        assert_eq!(scaling_label(&at(100.0), &at(110.0)).1, "slowdown");
        let (ratio, label) = scaling_label(&at(100.0), &at(97.0));
        assert!(ratio > 1.0);
        assert_eq!(label, "no difference beyond the spread of the reps");
    }
}
