//! The per-layer metrics of a traced run. Every workload reports the whole
//! list; a layer a workload bypasses reads 0. Counts and self times are per
//! replayed unit (one campaign over the stream, or one training run);
//! percentiles pool the spans of every replayed unit.

use crate::trace::{percentile, Agg};
use crate::Metric;
use std::collections::BTreeMap;

/// (metric, unit), in output order. `X.calls` and `X.self_s` read span `X`;
/// the set-up `X.s` metrics read span `X` of the single traced set-up.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.build.s", "s"),
    ("cfg.build.s", "s"),
    ("corpus.fuzz.s", "s"),
    ("corpus.dataset.s", "s"),
    ("core.model_load.s", "s"),
    ("vm.propose.calls", "count"),
    ("vm.propose.self_s", "s"),
    ("vm.exec.calls", "count"),
    ("vm.exec.self_s", "s"),
    ("vm.exec.us_p50", "us"),
    ("vm.exec.us_p99", "us"),
    ("race.detect.calls", "count"),
    ("race.detect.self_s", "s"),
    ("race.new.ratio", "ratio"),
    ("graph.base.calls", "count"),
    ("graph.base.self_s", "s"),
    ("graph.overlay.calls", "count"),
    ("graph.overlay.self_s", "s"),
    ("graph.overlay.rows_mean", "rows"),
    ("nn.forward.calls", "count"),
    ("nn.forward.self_s", "s"),
    ("nn.forward.us_p50", "us"),
    ("nn.forward.us_p99", "us"),
    ("nn.epoch.calls", "count"),
    ("nn.epoch.self_s", "s"),
    ("nn.step.us_p50", "us"),
    ("nn.step.us_p99", "us"),
    ("nn.validate.self_s", "s"),
    ("nn.tune.self_s", "s"),
    ("core.select.calls", "count"),
    ("core.select.self_s", "s"),
    ("core.select.ratio", "ratio"),
    ("core.dup_draw.ratio", "ratio"),
    ("core.repeat_graph.ratio", "ratio"),
    ("core.cti.ms_p50", "ms"),
    ("core.cti.ms_p99", "ms"),
    ("core.accumulate.self_s", "s"),
    ("core.model_save.self_s", "s"),
    ("harness.ckpt.calls", "count"),
    ("harness.ckpt_encode.self_s", "s"),
    ("harness.ckpt_write.self_s", "s"),
    ("harness.ckpt.bytes_max", "bytes"),
    ("harness.train_ckpt.self_s", "s"),
    ("harness.train_ckpt.bytes", "bytes"),
    ("harness.trainer.self_s", "s"),
    ("events.emit.calls", "count"),
    ("events.emit.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The root span wrapping one replayed unit; its duration is the traced wall.
pub const ROOT: &str = "unit";

/// Per-layer values under construction.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Fill every span-derived metric from the set-up aggregate and the
    /// aggregate of `units` replayed units.
    pub fn from_spans(
        setup: &BTreeMap<&'static str, Agg>,
        reps: &mut BTreeMap<&'static str, Agg>,
        units: usize,
    ) -> Self {
        let per_unit = units.max(1) as f64;
        let mut values = BTreeMap::new();
        for &(name, _) in PER_LAYER {
            let (span, field) = name.rsplit_once('.').expect("metric names have a layer prefix");
            let v = match field {
                "s" => setup.get(span).map_or(0.0, |a| a.self_ns as f64 / 1e9),
                "calls" => reps.get(span).map_or(0.0, |a| a.calls as f64 / per_unit),
                "self_s" => reps.get(span).map_or(0.0, |a| a.self_ns as f64 / 1e9 / per_unit),
                _ => continue,
            };
            values.insert(name, v);
        }
        let mut p = |span: &str, q: f64, scale: f64| {
            reps.get_mut(span).map_or(0.0, |a| percentile(&mut a.durations_ns, q) as f64 / scale)
        };
        let pcts = [
            ("vm.exec.us_p50", p("vm.exec", 0.50, 1e3)),
            ("vm.exec.us_p99", p("vm.exec", 0.99, 1e3)),
            ("nn.forward.us_p50", p("nn.forward", 0.50, 1e3)),
            ("nn.forward.us_p99", p("nn.forward", 0.99, 1e3)),
            ("core.cti.ms_p50", p("core.cti", 0.50, 1e6)),
            ("core.cti.ms_p99", p("core.cti", 0.99, 1e6)),
        ];
        values.extend(pcts);
        values.insert(
            "harness.ckpt.calls",
            reps.get("harness.ckpt_encode").map_or(0.0, |a| a.calls as f64 / per_unit),
        );
        let wall: u64 = reps.get(ROOT).map_or(0, |a| a.durations_ns.iter().sum());
        let leaf: u64 = reps.iter().filter(|(n, _)| **n != ROOT).map(|(_, a)| a.leaf_ns).sum();
        values.insert("trace.coverage", if wall == 0 { 0.0 } else { leaf as f64 / wall as f64 });
        Self { values }
    }

    /// Set a metric computed by the workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// Every per-layer metric, in list order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Human-readable table for standard error.
    pub fn describe(&self, reps: &BTreeMap<&'static str, Agg>) -> String {
        let mut s = String::from("span                      calls    self_ms\n");
        for (name, a) in reps {
            s.push_str(&format!("{name:<24} {:>7} {:>10.3}\n", a.calls, a.self_ns as f64 / 1e6));
        }
        s.push_str(&format!("trace.coverage {:.4}\n", self.values["trace.coverage"]));
        s
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
