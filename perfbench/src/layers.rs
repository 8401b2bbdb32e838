//! The per-layer metric catalogue, and how each metric is derived from the
//! spans of a traced run.
//!
//! Every traced run prints every metric of the catalogue; a layer that a
//! workload does not exercise reads 0 there (the README's table says which
//! workload moves which metric).

use std::collections::BTreeMap;

use crate::instr::Span;
use crate::stats::{median, tail};

/// The six architectures: report name and metric key.
pub const ARCHS: [(&str, &str); 6] = [
    ("CPU", "cpu"),
    ("TensorDIMM", "tensordimm"),
    ("RecNMP", "recnmp"),
    ("TRiM-G", "trim_g"),
    ("TRiM-B", "trim_b"),
    ("ReCross", "recross"),
];

/// Architectures the serving workloads open sessions for.
pub const SESSION_ARCHS: [&str; 2] = ["cpu", "recross"];

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = vec![
        ("bench.traced_run_s".into(), "s"),
        ("bench.layer_share".into(), "ratio"),
        ("bench.instr_s".into(), "s"),
        ("workload.generate_ms".into(), "ms"),
        ("core.build_ms".into(), "ms"),
        ("core.plan_ms".into(), "ms"),
    ];
    for (_, a) in ARCHS {
        c.push((format!("nmp.run_s.{a}"), "s"));
    }
    for (_, a) in ARCHS {
        c.push((format!("dram.activations.{a}"), "count"));
    }
    for a in SESSION_ARCHS {
        c.push((format!("nmp.memo_hits.{a}"), "count"));
        c.push((format!("nmp.memo_misses.{a}"), "count"));
        c.push((format!("nmp.memo_hit_ratio.{a}"), "ratio"));
        c.push((format!("nmp.miss_ms.p50.{a}"), "ms"));
        c.push((format!("nmp.miss_ms.tail.{a}"), "ms"));
        c.push((format!("nmp.miss_s.{a}"), "s"));
        c.push((format!("nmp.hit_s.{a}"), "s"));
        c.push((format!("nmp.priced_lookups_per_s.{a}"), "1/s"));
    }
    c.extend([
        ("nmp.traced_s".into(), "s"),
        ("dram.commands".into(), "count"),
        ("dram.cmds_per_s".into(), "1/s"),
        ("dram.violations".into(), "count"),
        ("serve.probes".into(), "count"),
        ("serve.probe_ms.p50".into(), "ms"),
        ("serve.probe_ms.tail".into(), "ms"),
        ("serve.self_s".into(), "s"),
        ("serve.dispatches".into(), "count"),
        ("serve.late".into(), "count"),
        ("serve.deadline_shed".into(), "count"),
        ("obs.bytes".into(), "bytes"),
        ("obs.write_s".into(), "s"),
        ("obs.self_s".into(), "s"),
        ("obs.heap_kib".into(), "KiB"),
        ("obs.dropped".into(), "count"),
    ]);
    c
}

/// Spans of one recording, indexed for parent/child queries. Ids must be
/// the spans' positions (one undrained recording).
struct Tree<'a> {
    spans: &'a [Span],
    root: Vec<usize>,
    child_secs: Vec<f64>,
}

impl<'a> Tree<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut root = vec![0; spans.len()];
        let mut child_secs = vec![0.0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id, i, "span ids are positions in the recording");
            match s.parent {
                Some(p) => {
                    root[i] = root[p];
                    child_secs[p] += s.secs();
                }
                None => root[i] = i,
            }
        }
        Tree {
            spans,
            root,
            child_secs,
        }
    }

    /// Spans under the root `r` (the root included).
    fn under(&self, r: usize) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| self.root[s.id] == r)
    }

    /// Roots named `name`.
    fn roots(&self, name: &'static str) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.parent.is_none() && s.name == name)
    }

    /// A span's duration minus the part its children cover.
    fn self_secs(&self, s: &Span) -> f64 {
        s.secs() - self.child_secs[s.id]
    }
}

fn sum<'a>(spans: impl Iterator<Item = &'a Span>, f: impl Fn(&Span) -> f64) -> f64 {
    spans.map(f).sum()
}

/// Derives the span-timed per-layer metrics: setup metrics from every
/// `bench.setup` root, `core.plan_ms` from the `core.plan` roots, the rest from each `bench.measure` root (plus the
/// `bench.reference` root of the same group), and the median of each
/// metric over the measured units.
pub fn from_spans(spans: &[Span]) -> Layers {
    let tree = Tree::new(spans);
    let mut out = Layers::new();

    let mut generate = Vec::new();
    let mut build = Vec::new();
    for r in tree.roots("bench.setup") {
        generate.push(
            1e3 * sum(
                tree.under(r.id).filter(|s| s.name == "workload.generate"),
                Span::secs,
            ),
        );
        build.push(
            1e3 * sum(
                tree.under(r.id).filter(|s| s.name == "core.build"),
                Span::secs,
            ),
        );
    }
    out.insert("workload.generate_ms".into(), median(&generate));
    out.insert("core.build_ms".into(), median(&build));
    let plan: Vec<f64> = tree.roots("core.plan").map(|s| 1e3 * s.secs()).collect();
    out.insert("core.plan_ms".into(), median(&plan));

    let units: Vec<Layers> = tree
        .roots("bench.measure")
        .map(|m| {
            let reference = tree
                .roots("bench.reference")
                .find(|r| r.group == m.group)
                .map(|r| r.id);
            unit_layers(&tree, m, reference)
        })
        .collect();
    for (name, _) in catalogue() {
        let values: Vec<f64> = units.iter().filter_map(|u| u.get(&name).copied()).collect();
        if !values.is_empty() {
            out.insert(name, median(&values));
        }
    }
    out
}

fn unit_layers(tree: &Tree, measure: &Span, reference: Option<usize>) -> Layers {
    let mut l = Layers::new();
    let run_s = measure.secs();
    let inside: Vec<&Span> = tree.under(measure.id).collect();
    let named = |name: &'static str| inside.iter().copied().filter(move |s| s.name == name);
    let is_nmp = |s: &&Span| s.name.starts_with("nmp.");

    for (_, a) in ARCHS {
        let t = sum(
            inside
                .iter()
                .copied()
                .filter(is_nmp)
                .filter(|s| s.arch == a),
            Span::secs,
        );
        l.insert(format!("nmp.run_s.{a}"), t);
    }
    for a in SESSION_ARCHS {
        let of = |names: &'static [&'static str]| {
            inside
                .iter()
                .copied()
                .filter(move |s| s.arch == a && names.contains(&s.name))
        };
        let hits = of(&["nmp.hit", "nmp.traced_hit"]).count() as f64;
        let misses = of(&["nmp.miss", "nmp.traced_miss"]).count() as f64;
        let miss_ms: Vec<f64> = of(&["nmp.miss"]).map(|s| s.secs() * 1e3).collect();
        let miss_s = sum(of(&["nmp.miss"]), Span::secs);
        let hit_s = sum(of(&["nmp.hit"]), Span::secs);
        let lookups = sum(of(&["nmp.hit", "nmp.miss"]), |s| s.work as f64);
        l.insert(format!("nmp.memo_hits.{a}"), hits);
        l.insert(format!("nmp.memo_misses.{a}"), misses);
        l.insert(
            format!("nmp.memo_hit_ratio.{a}"),
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        l.insert(format!("nmp.miss_ms.p50.{a}"), median(&miss_ms));
        l.insert(format!("nmp.miss_ms.tail.{a}"), tail(&miss_ms).1);
        l.insert(format!("nmp.miss_s.{a}"), miss_s);
        l.insert(format!("nmp.hit_s.{a}"), hit_s);
        l.insert(
            format!("nmp.priced_lookups_per_s.{a}"),
            if miss_s + hit_s > 0.0 {
                lookups / (miss_s + hit_s)
            } else {
                0.0
            },
        );
    }
    let traced_s = sum(
        inside
            .iter()
            .copied()
            .filter(|s| s.name == "nmp.traced_hit" || s.name == "nmp.traced_miss"),
        Span::secs,
    );
    l.insert("nmp.traced_s".into(), traced_s);

    let probe_ms: Vec<f64> = named("serve.probe").map(|s| s.secs() * 1e3).collect();
    l.insert("serve.probes".into(), probe_ms.len() as f64);
    l.insert("serve.probe_ms.p50".into(), median(&probe_ms));
    l.insert("serve.probe_ms.tail".into(), tail(&probe_ms).1);
    // The serve event loop's own time: probe time outside the session
    // calls; on the traced point, the untraced reference re-run's.
    let serve_self = sum(named("serve.probe"), |s| tree.self_secs(s))
        + reference.map_or(0.0, |r| {
            sum(tree.under(r).filter(|s| s.name == "serve.reference"), |s| {
                tree.self_secs(s)
            })
        });
    l.insert("serve.self_s".into(), serve_self);

    let write_s = sum(named("obs.write"), Span::secs);
    let obs_calls = sum(named("serve.traced"), |s| tree.self_secs(s))
        + sum(named("obs.finish"), |s| tree.self_secs(s))
        + sum(named("obs.report"), Span::secs);
    let obs_self = if obs_calls > 0.0 {
        obs_calls - serve_self
    } else {
        0.0
    };
    l.insert("obs.write_s".into(), write_s);
    l.insert("obs.self_s".into(), obs_self);

    let instr_s = sum(named("bench.instr"), Span::secs);
    l.insert("bench.instr_s".into(), instr_s);

    let nmp_s = sum(inside.iter().copied().filter(is_nmp), Span::secs);
    let layered = nmp_s + serve_self + obs_self + write_s + instr_s;
    l.insert("bench.traced_run_s".into(), run_s);
    l.insert(
        "bench.layer_share".into(),
        if run_s > 0.0 { layered / run_s } else { 0.0 },
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            arch: "recross",
            group: 0,
            start_ns: start,
            end_ns: end,
            work: 8,
        }
    }

    #[test]
    fn probe_self_time_excludes_session_calls_and_shares_sum_to_run() {
        const S: u64 = 1_000_000_000;
        let spans = vec![
            span(0, None, "bench.measure", 0, 10 * S),
            span(1, Some(0), "serve.probe", 0, 4 * S),
            span(2, Some(1), "nmp.miss", 0, 3 * S),
            span(3, Some(0), "serve.probe", 4 * S, 10 * S),
            span(4, Some(3), "nmp.hit", 4 * S, 5 * S),
            span(5, Some(3), "nmp.miss", 5 * S, 9 * S),
        ];
        let l = from_spans(&spans);
        assert_eq!(l["serve.self_s"], 2.0);
        assert_eq!(l["nmp.run_s.recross"], 8.0);
        assert_eq!(l["nmp.memo_hit_ratio.recross"], 1.0 / 3.0);
        assert_eq!(l["nmp.miss_s.recross"], 7.0);
        assert_eq!(l["serve.probes"], 2.0);
        assert_eq!(l["bench.layer_share"], 1.0);
        assert_eq!(l["nmp.priced_lookups_per_s.recross"], 24.0 / 8.0);
    }

    #[test]
    fn every_catalogue_metric_is_derived() {
        let l = from_spans(&[span(0, None, "bench.measure", 0, 1)]);
        for (name, _) in catalogue() {
            let extra = name.starts_with("dram.")
                || [
                    "serve.dispatches",
                    "serve.late",
                    "serve.deadline_shed",
                    "obs.bytes",
                ]
                .contains(&name.as_str())
                || name.starts_with("obs.heap")
                || name == "obs.dropped";
            assert!(
                extra || l.contains_key(&name),
                "{name} not derived from spans"
            );
        }
    }
}
