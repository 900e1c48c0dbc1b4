//! Schedule overlays against the graphs they stand for.
//!
//! MLPCT scores each distinct overlay of a CTI once and reuses the
//! prediction for every other proposal with the same overlay. That is exact
//! only if a candidate's graph is a function of its overlay, and a one-to-one
//! function at that. This suite checks both over every proposal
//! `propose_hints` can emit for a handful of CTIs on the default kernel
//! (including empty and one-block STIs), and checks `with_schedule` against
//! the index-based overlay it replaced.

use snowcat_cfg::KernelCfg;
use snowcat_graph::{CtGraph, CtGraphBuilder, Edge, EdgeKind, SchedMark, ScheduleOverlay};
use snowcat_kernel::{generate, BlockId, GenConfig, Kernel, SyscallId, ThreadId};
use snowcat_vm::{run_sequential, ExecResult, ScheduleHints, Sti, SwitchPoint, SyscallInvocation};
use std::collections::HashMap;

fn sti(calls: &[u32]) -> Sti {
    Sti::new(
        calls.iter().map(|&i| SyscallInvocation { syscall: SyscallId(i), args: [0; 3] }).collect(),
    )
}

/// A syscall whose sequential run stays in a single basic block.
fn one_block_syscall(k: &Kernel) -> u32 {
    (0..k.syscalls.len() as u32)
        .find(|&i| run_sequential(k, &sti(&[i])).block_trace[0].len() == 1)
        .expect("the default kernel has a one-block syscall")
}

/// Every schedule `propose_hints` can draw for STIs of these lengths.
fn every_proposal(len_a: u64, len_b: u64) -> impl Iterator<Item = ScheduleHints> {
    (1..=len_a.max(1)).flat_map(move |x| {
        (1..=len_b.max(1)).map(move |y| ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint { thread: ThreadId(0), after: x },
                SwitchPoint { thread: ThreadId(1), after: y },
            ],
        })
    })
}

/// The schedule overlay as `with_schedule` built it before overlays existed:
/// a (thread, block) → vertex index over the whole graph, edges and marks
/// applied switch by switch.
fn reference_with_schedule(
    base: &CtGraph,
    seq_a: &ExecResult,
    seq_b: &ExecResult,
    hints: &ScheduleHints,
) -> CtGraph {
    fn block_at(seq: &ExecResult, n: u64) -> Option<BlockId> {
        let (steps, trace) = (&seq.block_entry_steps[0], &seq.block_trace[0]);
        if trace.is_empty() {
            return None;
        }
        match steps.binary_search(&n) {
            Ok(i) => Some(trace[i]),
            Err(0) => Some(trace[0]),
            Err(i) => Some(trace[i - 1]),
        }
    }
    let mut g = base.clone();
    let index: HashMap<(u8, BlockId), u32> =
        g.verts.iter().enumerate().map(|(i, v)| ((v.thread.0, v.block), i as u32)).collect();
    let seqs = [seq_a, seq_b];
    let mut progress = [0u64, 0u64];
    let mut prev_src: Option<u32> = None;
    for (si, sw) in hints.switches.iter().enumerate() {
        let t = sw.thread.0;
        let other = 1 - t;
        let src_block = block_at(seqs[t as usize], sw.after);
        let dst_block = block_at(seqs[other as usize], progress[other as usize]);
        progress[t as usize] = sw.after;
        if let (Some(&src), Some(&dst)) = (
            src_block.and_then(|b| index.get(&(t, b))),
            dst_block.and_then(|b| index.get(&(other, b))),
        ) {
            let to = if si == 1 { prev_src.unwrap_or(dst) } else { dst };
            g.edges.push(Edge { from: src, to, kind: EdgeKind::Schedule });
            g.verts[src as usize].sched_mark = SchedMark::YieldSource;
            if g.verts[to as usize].sched_mark == SchedMark::None {
                g.verts[to as usize].sched_mark = SchedMark::ResumeTarget;
            }
            prev_src = Some(src);
        }
    }
    g
}

#[test]
fn overlays_determine_candidate_graphs_one_to_one() {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let builder = CtGraphBuilder::new(&k, &cfg);
    let bug = &k.bugs[0];
    let one = one_block_syscall(&k);
    let ctis: Vec<(Sti, Sti)> = vec![
        (sti(&[0]), sti(&[1])),
        (sti(&[bug.syscalls.0 .0]), sti(&[bug.syscalls.1 .0])),
        (sti(&[2, 3]), sti(&[4, 5])),
        (Sti::default(), sti(&[0])),
        (Sti::default(), Sti::default()),
        (sti(&[one]), sti(&[1])),
        (sti(&[one]), sti(&[one])),
    ];
    let mut overlays_seen = 0;
    for (sa, sb) in &ctis {
        let (ra, rb) = (run_sequential(&k, sa), run_sequential(&k, sb));
        let base = builder.build_base(&ra, &rb);
        let mut by_overlay: HashMap<ScheduleOverlay, CtGraph> = HashMap::new();
        let mut proposals = 0;
        for hints in every_proposal(ra.steps, rb.steps) {
            proposals += 1;
            let overlay = builder.schedule_overlay(&base, &ra, &rb, &hints);
            let graph = builder.with_schedule(&base, &ra, &rb, &hints);
            assert_eq!(graph, reference_with_schedule(&base, &ra, &rb, &hints), "{hints:?}");
            assert!(overlay.edges().len() <= 2);
            let first = by_overlay.entry(overlay).or_insert_with(|| graph.clone());
            assert_eq!(*first, graph, "equal overlays must give equal graphs ({hints:?})");
        }
        let graphs: Vec<&CtGraph> = by_overlay.values().collect();
        for (i, g) in graphs.iter().enumerate() {
            for h in &graphs[i + 1..] {
                assert_ne!(g, h, "different overlays must give different graphs");
            }
        }
        if base.verts.is_empty() {
            assert_eq!(by_overlay.len(), 1, "an empty graph has only the empty overlay");
            assert!(by_overlay.keys().all(|o| o.edges().is_empty()));
        }
        assert!(by_overlay.len() <= proposals);
        overlays_seen += by_overlay.len();
    }
    let proposals: u64 = ctis
        .iter()
        .map(|(a, b)| run_sequential(&k, a).steps.max(1) * run_sequential(&k, b).steps.max(1))
        .sum();
    assert!(
        (overlays_seen as u64) < proposals,
        "block-level overlays collapse instruction-level hints ({overlays_seen} of {proposals})"
    );
}
