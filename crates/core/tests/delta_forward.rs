//! The delta forward against the full forward of the applied overlay.
//!
//! `PicModel::forward_overlay` recomputes only the rows a schedule overlay
//! can reach and reads every other row from the base pass. It is exact only
//! if the frontier covers every row whose inputs change and each recomputed
//! row folds its inputs in the full forward's order. This suite checks the
//! probabilities bit for bit against `forward(&overlay.apply(&base))` for
//! every distinct overlay of seven CTIs (including empty and one-block
//! STIs), over a grid of model shapes, plus hand-built overlays: none, one
//! edge, a second edge back into the first edge's source, and an overlay on
//! a base that already carries one (so a target's mark stays put while its
//! Schedule in-edges change). It also checks `Pic`'s delta scorer against
//! the default apply-and-predict scorer, counters included, and that pooled
//! sessions stop allocating once warm.

use snowcat_cfg::KernelCfg;
use snowcat_core::{CoveragePredictor, ParallelPredictor, Pic};
use snowcat_graph::{CtGraph, CtGraphBuilder, SchedMark, ScheduleOverlay, StaticFeats};
use snowcat_kernel::{generate, GenConfig, Kernel, SyscallId, ThreadId};
use snowcat_nn::{Checkpoint, PicConfig, PicModel, PicSession};
use snowcat_vm::{run_sequential, ScheduleHints, Sti, SwitchPoint, SyscallInvocation};
use std::collections::HashSet;

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

/// Deterministic non-zero static channels for every block, so models with
/// `static_channels > 0` read them.
fn static_feats(k: &Kernel) -> Vec<StaticFeats> {
    (0..k.num_blocks())
        .map(|b| StaticFeats {
            alias_density: (b % 5) as u8,
            lockset: (b % 3) as u8,
            race_degree: (b % 7) as u8,
        })
        .collect()
}

/// Each CTI's base graph with its distinct overlays, in first-proposal
/// order, drawn from every schedule `propose_hints` can emit.
fn ctis(k: &Kernel, cfg: &KernelCfg) -> Vec<(CtGraph, Vec<ScheduleOverlay>)> {
    let mut builder = CtGraphBuilder::new(k, cfg);
    builder.block_static_feats = Some(static_feats(k));
    let bug = &k.bugs[0];
    let one = one_block_syscall(k);
    let pairs: Vec<(Sti, Sti)> = vec![
        (sti(&[0]), sti(&[1])),
        (sti(&[bug.syscalls.0 .0]), sti(&[bug.syscalls.1 .0])),
        (sti(&[2, 3]), sti(&[4, 5])),
        (Sti::default(), sti(&[0])),
        (Sti::default(), Sti::default()),
        (sti(&[one]), sti(&[1])),
        (sti(&[one]), sti(&[one])),
    ];
    pairs
        .iter()
        .map(|(sa, sb)| {
            let (ra, rb) = (run_sequential(k, sa), run_sequential(k, sb));
            let base = builder.build_base(&ra, &rb);
            let mut seen = HashSet::new();
            let mut overlays = Vec::new();
            for x in 1..=ra.steps.max(1) {
                for y in 1..=rb.steps.max(1) {
                    let hints = ScheduleHints {
                        first: ThreadId(0),
                        switches: vec![
                            SwitchPoint { thread: ThreadId(0), after: x },
                            SwitchPoint { thread: ThreadId(1), after: y },
                        ],
                    };
                    let overlay = builder.schedule_overlay(&base, &ra, &rb, &hints);
                    if seen.insert(overlay.edges().to_vec()) {
                        overlays.push(overlay);
                    }
                }
            }
            (base, overlays)
        })
        .collect()
}

/// Hand-built overlays on `base` (at least three vertices): none, one edge,
/// and a second edge into the first edge's source, which stays a yield
/// source instead of becoming a resume target.
fn synthetic_overlays(base: &CtGraph) -> Vec<ScheduleOverlay> {
    let n = base.num_verts() as u32;
    let (a, b, c) = (0, n - 1, n / 2);
    vec![
        ScheduleOverlay::new(vec![]),
        ScheduleOverlay::new(vec![(a, b)]),
        ScheduleOverlay::new(vec![(a, b), (c, a)]),
    ]
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Delta probabilities of every overlay equal the full forward's, bit for
/// bit; returns (recomputed rows, full-pass rows) over all of them.
fn check_overlays(
    model: &PicModel,
    session: &mut PicSession,
    base: &CtGraph,
    overlays: &[ScheduleOverlay],
    what: &str,
) -> (usize, usize) {
    let layers = model.cfg.layers + 1;
    let mut rows = (0, 0);
    model.forward_base(base, session);
    for overlay in overlays {
        let want = model.forward(&overlay.apply(base));
        let got = model.forward_overlay(base, overlay, session);
        assert_eq!(bits(got), bits(&want), "{what}: overlay {:?}", overlay.edges());
        assert!(session.recomputed_rows() <= layers * base.num_verts());
        if overlay.edges().is_empty() {
            assert_eq!(
                session.recomputed_rows(),
                0,
                "{what}: the empty overlay recomputes nothing"
            );
        }
        rows.0 += session.recomputed_rows();
        rows.1 += layers * base.num_verts();
    }
    rows
}

#[test]
fn delta_forward_matches_the_applied_forward_bitwise() {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let ctis = ctis(&k, &cfg);
    assert!(ctis.iter().any(|(base, _)| base.verts.is_empty()), "an empty CTI is covered");
    let (largest, _) = ctis.iter().max_by_key(|(base, _)| base.num_verts()).unwrap();
    assert!(largest.num_verts() >= 3);
    let with_one_edge = synthetic_overlays(largest);
    let a = with_one_edge[1].edges()[0].0;
    assert_eq!(with_one_edge[2].mark(a, SchedMark::None), SchedMark::YieldSource);
    // A base that already carries an overlay: its first edge's target is a
    // resume target (turned into a yield source below) and its source stays a
    // yield source while gaining Schedule in-edges.
    let stacked = with_one_edge[1].apply(largest);
    let (src, dst) = with_one_edge[1].edges()[0];
    let onto_stacked = vec![
        ScheduleOverlay::new(vec![(dst, src)]),
        ScheduleOverlay::new(vec![(with_one_edge[2].edges()[1].0, src)]),
    ];

    let mut session = PicSession::new();
    for layers in [0, 1, 5] {
        for hidden in [8, 32] {
            for static_channels in [0, 3] {
                let model = PicModel::new(PicConfig {
                    layers,
                    hidden,
                    static_channels,
                    seed: 0xDE17A ^ (layers * 31 + hidden) as u64,
                    ..PicConfig::default()
                });
                let shape = format!("layers {layers}, hidden {hidden}, static {static_channels}");
                let mut rows = (0, 0);
                for (ci, (base, overlays)) in ctis.iter().enumerate() {
                    let r = check_overlays(&model, &mut session, base, overlays, &shape);
                    assert!(!overlays.is_empty(), "{shape}: CTI {ci} has an overlay");
                    rows = (rows.0 + r.0, rows.1 + r.1);
                }
                check_overlays(&model, &mut session, largest, &with_one_edge, &shape);
                check_overlays(&model, &mut session, &stacked, &onto_stacked, &shape);
                if layers > 0 {
                    assert!(rows.0 < rows.1, "{shape}: the delta skips rows ({rows:?})");
                }
            }
        }
    }
}

fn pic_fixture(k: &Kernel, cfg: &KernelCfg) -> Checkpoint {
    let model = PicModel::new(PicConfig { hidden: 16, layers: 3, ..PicConfig::default() });
    // Threshold at the median probability of one candidate, so positive
    // sets vary between overlays.
    let (base, overlays) = &ctis(k, cfg)[1];
    let mut probs = model.forward(&overlays[overlays.len() / 2].apply(base));
    probs.sort_by(f32::total_cmp);
    Checkpoint::new(&model, probs[probs.len() / 2], "delta")
}

#[test]
fn pic_delta_scorer_matches_the_default_scorer_and_counts_alike() {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let ck = pic_fixture(&k, &cfg);
    let (pic, pic_ref) = (Pic::new(&ck, &k, &cfg), Pic::new(&ck, &k, &cfg));
    // A one-worker parallel wrapper keeps the default scorer.
    let reference = ParallelPredictor::new(&pic_ref, 1);
    let mut scored = 0;
    let mut positives = HashSet::new();
    for (base, overlays) in ctis(&k, &cfg) {
        let mut delta = pic.overlay_scorer(&base);
        let mut apply = reference.overlay_scorer(&base);
        for overlay in &overlays {
            let got = delta.score(overlay);
            assert_eq!(got, apply.score(overlay), "overlay {:?}", overlay.edges());
            positives.insert(got.iter().collect::<Vec<_>>());
            scored += 1;
        }
    }
    assert!(positives.len() > 2, "the threshold splits vertices differently per overlay");
    assert_eq!(pic.stats().inferences(), scored, "one inference per scored overlay");
    assert_eq!(pic.stats().batches(), scored, "one batch per scored overlay");
    assert_eq!(pic.stats(), pic_ref.stats());
}

#[test]
fn pooled_sessions_stop_allocating_once_warm() {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let ctis = ctis(&k, &cfg);
    let pic = Pic::new(&pic_fixture(&k, &cfg), &k, &cfg);
    let model = pic.model();
    let run_all = || {
        for (base, overlays) in &ctis {
            let mut scorer = pic.overlay_scorer(base);
            for overlay in overlays {
                scorer.score(overlay);
            }
        }
        pic.predict_batch(&[ctis[0].0.clone()]);
    };
    run_all();
    let warm = pic.session_allocations();
    assert!(warm > 0);
    for pass in 0..3 {
        run_all();
        assert_eq!(pic.session_allocations(), warm, "pass {pass} across CTIs and predict_batch");
    }

    // Within one CTI: once every overlay has been through the session, its
    // scratch arena serves each of them again without allocating.
    let (base, overlays) = ctis.iter().max_by_key(|(_, o)| o.len()).unwrap();
    let mut session = PicSession::new();
    model.forward_base(base, &mut session);
    for overlay in overlays {
        model.forward_overlay(base, overlay, &mut session);
    }
    let warm = session.allocations();
    for overlay in overlays {
        model.forward_overlay(base, overlay, &mut session);
        assert_eq!(session.allocations(), warm, "overlay {:?}", overlay.edges());
    }
}
