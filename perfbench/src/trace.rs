//! In-memory span recorder for the traced run.
//!
//! Each span records a layer call made from the benchmark's replay code:
//! its name, start and end (ns since the tracer was created), the span that
//! contains it and the unit of work (CTI position or epoch) it belongs to.
//! Spans are only appended while the run measures; aggregation and the
//! span dump happen after the last unit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    unit: u32,
}

/// Per-name aggregate over every recorded span.
#[derive(Default)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
    pub leaf_ns: u64,
    pub durations_ns: Vec<u64>,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { epoch: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`]. Spans nest strictly.
    pub fn begin(&mut self, name: &'static str, unit: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        self.spans.push(Span { name, start: self.now(), end: 0, parent, unit });
        self.stack.push(id);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("end() without a matching begin()");
        let t = self.now();
        self.spans[id as usize].end = t;
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, unit: u32, f: impl FnOnce() -> R) -> R {
        self.begin(name, unit);
        let r = f();
        self.end();
        r
    }

    /// Aggregate the recorded spans into `into` by name, then forget them:
    /// calls, self time (duration minus the time covered by child spans),
    /// leaf time (duration of spans without children) and every duration,
    /// for percentiles.
    pub fn drain_into(&mut self, into: &mut BTreeMap<&'static str, Agg>) {
        assert!(self.stack.is_empty(), "drain_into() with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
                has_child[s.parent as usize] = true;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let a = into.entry(s.name).or_default();
            a.calls += 1;
            a.self_ns += dur - child_ns[i].min(dur);
            if !has_child[i] {
                a.leaf_ns += dur;
            }
            a.durations_ns.push(dur);
        }
        self.spans.clear();
    }

    /// Write every span as tab-separated `id name start_ns end_ns parent unit`
    /// (parent `-` for a root span).
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\tunit")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.unit)?;
        }
        w.flush()
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`, or 0 for an empty set.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
