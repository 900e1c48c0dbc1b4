//! Building CT graphs from sequential STI profiles and scheduling hints.

use crate::repr::{hash_token, CtGraph, Edge, EdgeKind, SchedMark, StaticFeats, VertKind, Vertex};
use snowcat_cfg::KernelCfg;
use snowcat_kernel::{asm, BlockId, Kernel, ThreadId};
use snowcat_vm::{BitSet, ExecResult, ScheduleHints};
use std::collections::{HashMap, HashSet};

/// Builds CT graphs for one kernel image.
pub struct CtGraphBuilder<'k> {
    kernel: &'k Kernel,
    cfg: &'k KernelCfg,
    /// URB identification depth (paper: 1).
    pub urb_hops: usize,
    /// Shortcut-edge stride along the sequential trace (0 disables).
    pub shortcut_stride: usize,
    /// Additional coarser shortcut strides (multi-scale densification: lets
    /// positional information cross the graph in few message-passing hops).
    pub extra_strides: Vec<usize>,
    /// Blocks flagged by the static may-race analysis (bit = block index).
    /// When set, vertices on these blocks carry [`Vertex::may_race`]; when
    /// `None`, the bit stays `false` everywhere.
    pub may_race_blocks: Option<BitSet>,
    /// Per-block static feature channels (indexed by block), mined by the
    /// value-flow analysis. When `None`, every vertex carries all-zero
    /// channels and a `static_channels = 0` model behaves exactly as
    /// before.
    pub block_static_feats: Option<Vec<StaticFeats>>,
}

impl<'k> CtGraphBuilder<'k> {
    /// Builder with the paper's defaults (1-hop URBs, stride-4 shortcuts).
    pub fn new(kernel: &'k Kernel, cfg: &'k KernelCfg) -> Self {
        Self {
            kernel,
            cfg,
            urb_hops: 1,
            shortcut_stride: 4,
            extra_strides: vec![16],
            may_race_blocks: None,
            block_static_feats: None,
        }
    }

    /// True if the static analysis marked `b` as may-race.
    fn block_may_race(&self, b: BlockId) -> bool {
        self.may_race_blocks.as_ref().is_some_and(|s| s.contains(b.index()))
    }

    /// The static feature channels for block `b` (zero without analysis).
    fn block_feats(&self, b: BlockId) -> StaticFeats {
        self.block_static_feats.as_ref().and_then(|f| f.get(b.index()).copied()).unwrap_or_default()
    }

    /// Build the CT graph for a CTI, given the *sequential* execution
    /// profiles of its two STIs (each run alone as thread 0 of its own VM)
    /// and the candidate schedule.
    pub fn build(&self, seq_a: &ExecResult, seq_b: &ExecResult, hints: &ScheduleHints) -> CtGraph {
        let base = self.build_base(seq_a, seq_b);
        self.with_schedule(&base, seq_a, seq_b, hints)
    }

    /// Build everything except the schedule edges. Exploring many
    /// interleavings of one CTI reuses this base graph.
    pub fn build_base(&self, seq_a: &ExecResult, seq_b: &ExecResult) -> CtGraph {
        let mut verts: Vec<Vertex> = Vec::new();
        let mut index: HashMap<(u8, BlockId), u32> = HashMap::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut edge_seen: HashSet<(u32, u32, EdgeKind)> = HashSet::new();

        let push_edge = |edges: &mut Vec<Edge>,
                         seen: &mut HashSet<(u32, u32, EdgeKind)>,
                         from: u32,
                         to: u32,
                         kind: EdgeKind| {
            if seen.insert((from, to, kind)) {
                edges.push(Edge { from, to, kind });
            }
        };

        // --- Vertices: SCBs in first-entry order, then URBs, per thread. ---
        for (t, seq) in [(0u8, seq_a), (1u8, seq_b)] {
            for &b in &seq.block_trace[0] {
                index.entry((t, b)).or_insert_with(|| {
                    let id = verts.len() as u32;
                    verts.push(Vertex {
                        block: b,
                        thread: ThreadId(t),
                        kind: VertKind::Scb,
                        sched_mark: SchedMark::None,
                        may_race: self.block_may_race(b),
                        static_feats: self.block_feats(b),
                        tokens: tokenize(self.kernel, b),
                    });
                    id
                });
            }
        }
        let mut urb_edges_per_thread = Vec::new();
        for (t, seq) in [(0u8, seq_a), (1u8, seq_b)] {
            let urbs = self.cfg.k_hop_urbs(&seq.per_thread_coverage[0], self.urb_hops);
            for e in &urbs {
                index.entry((t, e.to)).or_insert_with(|| {
                    let id = verts.len() as u32;
                    verts.push(Vertex {
                        block: e.to,
                        thread: ThreadId(t),
                        kind: VertKind::Urb,
                        sched_mark: SchedMark::None,
                        may_race: self.block_may_race(e.to),
                        static_feats: self.block_feats(e.to),
                        tokens: tokenize(self.kernel, e.to),
                    });
                    id
                });
            }
            urb_edges_per_thread.push(urbs);
        }

        // --- 1. SCB control-flow edges: consecutive trace transitions. ---
        for (t, seq) in [(0u8, seq_a), (1u8, seq_b)] {
            let trace = &seq.block_trace[0];
            for w in trace.windows(2) {
                let from = index[&(t, w[0])];
                let to = index[&(t, w[1])];
                push_edge(&mut edges, &mut edge_seen, from, to, EdgeKind::ScbFlow);
            }
            // --- 6. Shortcut densification along the same trace
            // (multi-scale: one edge set per stride). ---
            for &k in std::iter::once(&self.shortcut_stride)
                .chain(&self.extra_strides)
                .filter(|&&k| k > 1)
            {
                for i in 0..trace.len().saturating_sub(k) {
                    let from = index[&(t, trace[i])];
                    let to = index[&(t, trace[i + k])];
                    push_edge(&mut edges, &mut edge_seen, from, to, EdgeKind::Shortcut);
                }
            }
        }

        // --- 2. URB control-flow edges. ---
        for (t, urbs) in [(0u8, &urb_edges_per_thread[0]), (1u8, &urb_edges_per_thread[1])] {
            for e in urbs.iter() {
                let from = index[&(t, e.from)];
                let to = index[&(t, e.to)];
                push_edge(&mut edges, &mut edge_seen, from, to, EdgeKind::UrbFlow);
            }
        }

        // --- 3. Intra-thread data flow: last write → subsequent reads. ---
        for (t, seq) in [(0u8, seq_a), (1u8, seq_b)] {
            let mut last_write: HashMap<u32, BlockId> = HashMap::new();
            for a in &seq.accesses {
                if a.is_write {
                    last_write.insert(a.addr.0, a.loc.block);
                } else if let Some(&wb) = last_write.get(&a.addr.0) {
                    let from = index[&(t, wb)];
                    let to = index[&(t, a.loc.block)];
                    push_edge(&mut edges, &mut edge_seen, from, to, EdgeKind::IntraFlow);
                }
            }
        }

        // --- 4. Inter-thread potential data flow (both directions). ---
        let mut flows = |wt: u8, w_seq: &ExecResult, rt: u8, r_seq: &ExecResult| {
            let mut writes: HashMap<u32, Vec<BlockId>> = HashMap::new();
            for a in &w_seq.accesses {
                if a.is_write {
                    let v = writes.entry(a.addr.0).or_default();
                    if !v.contains(&a.loc.block) {
                        v.push(a.loc.block);
                    }
                }
            }
            let mut emitted: HashSet<(BlockId, BlockId)> = HashSet::new();
            for a in &r_seq.accesses {
                if a.is_write {
                    continue;
                }
                if let Some(wblocks) = writes.get(&a.addr.0) {
                    for &wb in wblocks {
                        if emitted.insert((wb, a.loc.block)) {
                            let from = index[&(wt, wb)];
                            let to = index[&(rt, a.loc.block)];
                            push_edge(&mut edges, &mut edge_seen, from, to, EdgeKind::InterFlow);
                        }
                    }
                }
            }
        };
        flows(0, seq_a, 1, seq_b);
        flows(1, seq_b, 0, seq_a);

        let g = CtGraph { verts, edges };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Clone `base` and add the scheduling-hint edges for `hints`: `base`
    /// plus [`schedule_overlay`](Self::schedule_overlay), so two hints with
    /// equal overlays give equal graphs.
    pub fn with_schedule(
        &self,
        base: &CtGraph,
        seq_a: &ExecResult,
        seq_b: &ExecResult,
        hints: &ScheduleHints,
    ) -> CtGraph {
        self.schedule_overlay(base, seq_a, seq_b, hints).apply(base)
    }

    /// The schedule edges `hints` add to `base`, without building the graph.
    ///
    /// For hint "thread T yields after executing n instructions", the source
    /// is the block T was executing at that point in its *sequential*
    /// profile; the first switch targets the other thread's resume block
    /// (its entry block), and the second switch draws its edge back to the
    /// block containing the first switch point, matching the paper's
    /// description. A switch whose blocks have no vertex adds no edge.
    pub fn schedule_overlay(
        &self,
        base: &CtGraph,
        seq_a: &ExecResult,
        seq_b: &ExecResult,
        hints: &ScheduleHints,
    ) -> ScheduleOverlay {
        // (thread, block) vertices are unique, and a CT graph has tens of
        // them: a scan beats building an index per candidate.
        let vertex = |t: u8, b: BlockId| {
            base.verts.iter().position(|v| v.thread.0 == t && v.block == b).map(|i| i as u32)
        };
        let seqs = [seq_a, seq_b];
        let mut progress = [0u64, 0u64];
        let mut prev_src: Option<u32> = None;
        let mut edges = Vec::with_capacity(hints.switches.len());
        for (si, sw) in hints.switches.iter().enumerate() {
            let t = sw.thread.0;
            let other = 1 - t;
            let src_block = block_at(seqs[t as usize], sw.after);
            let dst_block = block_at(seqs[other as usize], progress[other as usize]);
            progress[t as usize] = sw.after;
            if let (Some(src), Some(dst)) =
                (src_block.and_then(|b| vertex(t, b)), dst_block.and_then(|b| vertex(other, b)))
            {
                let to = if si == 1 { prev_src.unwrap_or(dst) } else { dst };
                edges.push((src, to));
                prev_src = Some(src);
            }
        }
        ScheduleOverlay { edges }
    }

    /// Label a graph's vertices with the observed concurrent coverage:
    /// vertex (t, b) is positive iff thread t covered block b during the
    /// dynamic execution of the CT.
    pub fn label(&self, graph: &CtGraph, ct_result: &ExecResult) -> Vec<bool> {
        graph
            .verts
            .iter()
            .map(|v| ct_result.per_thread_coverage[v.thread.index()].contains(v.block.index()))
            .collect()
    }

    /// Label a graph's *edges* with realized inter-thread data flows: an
    /// `InterFlow` edge (writer block → reader block) is positive iff,
    /// during the CT's dynamic execution, a read in the reader block
    /// actually read-from a write in the writer block (same address, write
    /// latest before the read, across threads). Non-InterFlow edges are
    /// always labelled false.
    ///
    /// This implements the prediction task the paper proposes as future
    /// work in §6 ("training PIC to predict the inter-thread data flows
    /// between code blocks").
    pub fn flow_labels(&self, graph: &CtGraph, ct_result: &ExecResult) -> Vec<bool> {
        use std::collections::HashMap;
        // Realized cross-thread reads-from at block granularity.
        let mut last_write: HashMap<u32, (BlockId, u8)> = HashMap::new();
        let mut realized: HashSet<(BlockId, u8, BlockId, u8)> = HashSet::new();
        for a in &ct_result.accesses {
            if a.is_write {
                last_write.insert(a.addr.0, (a.loc.block, a.thread.0));
            } else if let Some(&(wb, wt)) = last_write.get(&a.addr.0) {
                if wt != a.thread.0 {
                    realized.insert((wb, wt, a.loc.block, a.thread.0));
                }
            }
        }
        graph
            .edges
            .iter()
            .map(|e| {
                if e.kind != EdgeKind::InterFlow {
                    return false;
                }
                let u = &graph.verts[e.from as usize];
                let v = &graph.verts[e.to as usize];
                realized.contains(&(u.block, u.thread.0, v.block, v.thread.0))
            })
            .collect()
    }
}

/// The schedule edges one candidate adds to its CTI's base graph: a
/// (source vertex → target vertex) pair per switch point whose blocks have
/// vertices, in switch order (at most two for the paper's two-hint
/// schedules). Hints pick instruction counts while these edges land on basic
/// blocks, so many hints of one CTI share an overlay; a candidate's graph is
/// a function of its overlay alone ([`ScheduleOverlay::apply`]).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ScheduleOverlay {
    edges: Vec<(u32, u32)>,
}

impl ScheduleOverlay {
    /// The (source, target) vertex pairs, in switch order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// `base` with the overlay's schedule edges added and their endpoint
    /// vertices marked (node-type enhancement, §6).
    pub fn apply(&self, base: &CtGraph) -> CtGraph {
        let mut g = base.clone();
        for &(from, to) in &self.edges {
            g.edges.push(Edge { from, to, kind: EdgeKind::Schedule });
            g.verts[from as usize].sched_mark = SchedMark::YieldSource;
            if g.verts[to as usize].sched_mark == SchedMark::None {
                g.verts[to as usize].sched_mark = SchedMark::ResumeTarget;
            }
        }
        debug_assert!(g.validate().is_ok());
        g
    }
}

/// The block a thread was executing when its `executed` counter was `n`,
/// according to its sequential profile.
fn block_at(seq: &ExecResult, n: u64) -> Option<BlockId> {
    let steps = &seq.block_entry_steps[0];
    let trace = &seq.block_trace[0];
    if trace.is_empty() {
        return None;
    }
    // Last entry with entry_step <= n.
    match steps.binary_search(&n) {
        Ok(i) => Some(trace[i]),
        Err(0) => Some(trace[0]),
        Err(i) => Some(trace[i - 1]),
    }
}

fn tokenize(kernel: &Kernel, block: BlockId) -> Vec<u32> {
    asm::tokenize_block(kernel, kernel.block(block)).iter().map(|t| hash_token(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{generate, GenConfig, SyscallId};
    use snowcat_vm::{run_ct, run_sequential, Cti, Sti, SwitchPoint, SyscallInvocation, VmConfig};

    fn setup() -> (Kernel, KernelCfg) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        (k, cfg)
    }

    fn sti(i: u32) -> Sti {
        Sti::new(vec![SyscallInvocation { syscall: SyscallId(i), args: [0; 3] }])
    }

    fn hints(x: u64, y: u64) -> ScheduleHints {
        ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint { thread: ThreadId(0), after: x },
                SwitchPoint { thread: ThreadId(1), after: y },
            ],
        }
    }

    #[test]
    fn graph_has_all_ingredient_edge_kinds() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        // Use a bug-carrier pair to guarantee inter-thread flow.
        let bug = &k.bugs[0];
        let sa = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.0, args: [0; 3] }]);
        let sb = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.1, args: [0; 3] }]);
        let ra = run_sequential(&k, &sa);
        let rb = run_sequential(&k, &sb);
        let g = b.build(&ra, &rb, &hints(5, 5));
        let s = g.stats();
        assert!(s.verts > 0);
        assert!(s.urbs > 0, "expected URBs");
        assert!(s.scbs > 0);
        assert!(s.by_edge_kind[EdgeKind::ScbFlow.index()] > 0);
        assert!(s.by_edge_kind[EdgeKind::UrbFlow.index()] > 0);
        assert!(s.by_edge_kind[EdgeKind::InterFlow.index()] > 0, "carriers share memory");
        assert_eq!(s.by_edge_kind[EdgeKind::Schedule.index()], 2, "two scheduling hints");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn vertices_are_unique_per_thread_block() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let ra = run_sequential(&k, &sti(0));
        let rb = run_sequential(&k, &sti(1));
        let g = b.build(&ra, &rb, &hints(3, 3));
        let mut seen = HashSet::new();
        for v in &g.verts {
            assert!(seen.insert((v.thread, v.block)), "duplicate vertex {:?}", (v.thread, v.block));
        }
    }

    #[test]
    fn urb_vertices_are_not_sequentially_covered() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let ra = run_sequential(&k, &sti(0));
        let rb = run_sequential(&k, &sti(1));
        let g = b.build(&ra, &rb, &hints(3, 3));
        for v in &g.verts {
            let cov = if v.thread == ThreadId(0) { &ra } else { &rb };
            match v.kind {
                VertKind::Scb => assert!(cov.per_thread_coverage[0].contains(v.block.index())),
                VertKind::Urb => assert!(!cov.per_thread_coverage[0].contains(v.block.index())),
            }
        }
    }

    #[test]
    fn labels_match_concurrent_coverage() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let sa = sti(0);
        let sb = sti(1);
        let ra = run_sequential(&k, &sa);
        let rb = run_sequential(&k, &sb);
        let h = hints(4, 4);
        let g = b.build(&ra, &rb, &h);
        let ct = run_ct(&k, &Cti::new(sa, sb), h, VmConfig::default());
        let labels = b.label(&g, &ct);
        assert_eq!(labels.len(), g.num_verts());
        // All SCB vertices of thread 0 that appear in the CT coverage are
        // positive; and every positive URB truly was covered concurrently.
        for (i, v) in g.verts.iter().enumerate() {
            let covered = ct.per_thread_coverage[v.thread.index()].contains(v.block.index());
            assert_eq!(labels[i], covered);
        }
    }

    #[test]
    fn different_hints_change_schedule_edges_only() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let ra = run_sequential(&k, &sti(2));
        let rb = run_sequential(&k, &sti(3));
        let g1 = b.build(&ra, &rb, &hints(2, 2));
        let g2 = b.build(&ra, &rb, &hints(ra.steps.max(2), 2));
        // Vertices are identical up to schedule-endpoint marks.
        let strip_marks = |g: &CtGraph| {
            g.verts
                .iter()
                .map(|v| (v.block, v.thread, v.kind, v.tokens.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip_marks(&g1), strip_marks(&g2), "vertices independent of hints");
        let strip = |g: &CtGraph| {
            let mut e: Vec<Edge> =
                g.edges.iter().copied().filter(|e| e.kind != EdgeKind::Schedule).collect();
            e.sort_by_key(|e| (e.from, e.to, e.kind.index()));
            e
        };
        assert_eq!(strip(&g1), strip(&g2), "non-schedule edges independent of hints");
    }

    #[test]
    fn empty_stis_build_empty_graph() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let ra = run_sequential(&k, &Sti::default());
        let rb = run_sequential(&k, &Sti::default());
        let g = b.build(&ra, &rb, &ScheduleHints::sequential(ThreadId(0)));
        assert_eq!(g.num_verts(), 0);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn shortcut_stride_zero_disables_shortcuts() {
        let (k, cfg) = setup();
        let mut b = CtGraphBuilder::new(&k, &cfg);
        b.shortcut_stride = 0;
        b.extra_strides.clear();
        let ra = run_sequential(&k, &sti(0));
        let rb = run_sequential(&k, &sti(1));
        let g = b.build(&ra, &rb, &hints(3, 3));
        assert_eq!(g.stats().by_edge_kind[EdgeKind::Shortcut.index()], 0);
    }

    #[test]
    fn flow_labels_align_with_edges_and_mark_only_interflow() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let bug = &k.bugs[0];
        let sa = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.0, args: [0; 3] }]);
        let sb = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.1, args: [0; 3] }]);
        let ra = run_sequential(&k, &sa);
        let rb = run_sequential(&k, &sb);
        let h = hints(5, 5);
        let g = b.build(&ra, &rb, &h);
        let ct = run_ct(&k, &Cti::new(sa, sb), h, VmConfig::default());
        let flows = b.flow_labels(&g, &ct);
        assert_eq!(flows.len(), g.edges.len());
        for (e, &f) in g.edges.iter().zip(&flows) {
            if e.kind != EdgeKind::InterFlow {
                assert!(!f, "non-interflow edge labelled positive");
            }
        }
        // The bug carriers share memory; under a tight interleaving some
        // inter-thread flow is typically realized. (Not guaranteed for
        // every hint; just check no panic and plausible structure.)
    }

    #[test]
    fn static_feats_are_stamped_from_analysis_channels() {
        let (k, cfg) = setup();
        let mut b = CtGraphBuilder::new(&k, &cfg);
        b.block_static_feats =
            Some(vec![
                StaticFeats { alias_density: 1, lockset: 0, race_degree: 2 };
                k.num_blocks()
            ]);
        let ra = run_sequential(&k, &sti(0));
        let rb = run_sequential(&k, &sti(1));
        let g = b.build(&ra, &rb, &hints(3, 3));
        assert!(g.num_verts() > 0);
        assert!(g
            .verts
            .iter()
            .all(|v| v.static_feats.alias_density == 1 && v.static_feats.race_degree == 2));
        assert_eq!(g.stats().static_feat_verts, g.num_verts());
        // Without channels every vertex carries zeros.
        b.block_static_feats = None;
        let g0 = b.build(&ra, &rb, &hints(3, 3));
        assert_eq!(g0.stats().static_feat_verts, 0);
    }

    #[test]
    fn graph_is_deterministic() {
        let (k, cfg) = setup();
        let b = CtGraphBuilder::new(&k, &cfg);
        let ra = run_sequential(&k, &sti(4));
        let rb = run_sequential(&k, &sti(5));
        assert_eq!(b.build(&ra, &rb, &hints(6, 2)), b.build(&ra, &rb, &hints(6, 2)));
    }
}
