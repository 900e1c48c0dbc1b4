//! `explore_mlpct`'s per-CTI overlay reuse against the loop it replaced.
//!
//! The reference below scores every non-duplicate candidate through the
//! chain. `explore_mlpct` scores each distinct schedule overlay once per CTI
//! and reuses the positives for repeats; it must give the same outcomes,
//! the same strategy memory after every CTI and the same chain
//! `inferences()`, for every strategy. A chain whose fingerprint changes
//! mid-CTI must see fresh forwards for overlays it already scored.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    explore_mlpct, graph_fingerprint, CoveragePredictor, ExploreConfig, ExploreOutcome, Pic,
    PredictedCoverage, PredictorService, PredictorStats, SelectionStrategy, StrategyKind,
};
use snowcat_corpus::{interacting_cti_pairs, StiFuzzer, StiProfile};
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use snowcat_race::{RaceDetector, RaceKey};
use snowcat_vm::{propose_hints, run_ct, BitSet, Cti};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `explore_mlpct` as it was before overlay reuse: every non-duplicate
/// candidate is built and predicted through the chain.
fn reference_explore_mlpct(
    kernel: &Kernel,
    service: &PredictorService<'_, '_>,
    strategy: &mut dyn SelectionStrategy,
    a: &StiProfile,
    b: &StiProfile,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let detector = RaceDetector::default();
    let cti = Cti::new(a.sti.clone(), b.sti.clone());
    let mut seq_cov = BitSet::new(kernel.num_blocks());
    seq_cov.union_with(&a.seq.coverage);
    seq_cov.union_with(&b.seq.coverage);
    let base = service.base_graph(a, b);
    let mut outcome = ExploreOutcome {
        executions: 0,
        inferences: 0,
        races: Vec::new(),
        bugs: Vec::new(),
        sched_dep_blocks: BitSet::new(kernel.num_blocks()),
        hangs: 0,
        crashes: 0,
    };
    let mut seen_races = HashSet::new();
    let mut seen_hints = HashSet::new();
    while (outcome.executions as usize) < cfg.exec_budget
        && (outcome.inferences as usize) < cfg.inference_cap
    {
        let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
        if !seen_hints.insert(hints.clone()) {
            outcome.inferences += 1;
            continue;
        }
        let pred = service.predict_candidate(&base, a, b, &hints);
        outcome.inferences += 1;
        if !strategy.select(&pred) {
            continue;
        }
        let r = run_ct(kernel, &cti, hints, cfg.vm_config());
        outcome.executions += 1;
        outcome.hangs += u64::from(r.hung());
        outcome.crashes += u64::from(r.crashed());
        for report in detector.detect(kernel, &r) {
            if seen_races.insert(report.key) {
                outcome.races.push(report);
            }
        }
        outcome.bugs.extend(r.unique_bugs());
        outcome.sched_dep_blocks.union_with(&r.coverage.difference(&seq_cov));
    }
    outcome.bugs.sort_unstable();
    outcome.bugs.dedup();
    outcome
}

type Comparable = (u64, u64, Vec<RaceKey>, Vec<snowcat_kernel::BugId>, BitSet, u64, u64);

fn comparable(o: &ExploreOutcome) -> Comparable {
    (
        o.executions,
        o.inferences,
        o.race_keys(),
        o.bugs.clone(),
        o.sched_dep_blocks.clone(),
        o.hangs,
        o.crashes,
    )
}

struct Fixture {
    kernel: Kernel,
    cfg: KernelCfg,
    corpus: Vec<StiProfile>,
    stream: Vec<(usize, usize)>,
    ck: Checkpoint,
}

/// A short interacting CTI stream and an untrained PIC whose threshold sits
/// at the median probability of one candidate, so positive sets vary
/// between schedules.
fn fixture() -> Fixture {
    let kernel = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&kernel);
    let mut fz = StiFuzzer::new(&kernel, 21);
    fz.seed_each_syscall();
    fz.fuzz(20);
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(0xC71);
    let stream = interacting_cti_pairs(&mut rng, &corpus, 5);
    let model = PicModel::new(PicConfig { hidden: 8, layers: 2, ..Default::default() });
    let probe = Pic::new(&Checkpoint::new(&model, 0.5, "probe"), &kernel, &cfg);
    let (a, b) = (&corpus[stream[0].0], &corpus[stream[0].1]);
    let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
    let base = probe.base_graph(a, b);
    let mut probs = probe.predict_one(&probe.candidate_graph(&base, a, b, &hints)).probs;
    probs.sort_by(f32::total_cmp);
    let ck = Checkpoint::new(&model, probs[probs.len() / 2], "reuse");
    Fixture { kernel, cfg, corpus, stream, ck }
}

fn explore_cfg(ci: usize) -> ExploreConfig {
    ExploreConfig::default()
        .with_exec_budget(50)
        .with_inference_cap(1600)
        .with_seed(0x5EED ^ (ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[test]
fn overlay_reuse_matches_the_reference_loop_for_every_strategy() {
    let f = fixture();
    for kind in [StrategyKind::S1, StrategyKind::S2, StrategyKind::S3(2)] {
        let (pic_ref, pic) =
            (Pic::new(&f.ck, &f.kernel, &f.cfg), Pic::new(&f.ck, &f.kernel, &f.cfg));
        let (svc_ref, svc) = (PredictorService::direct(&pic_ref), PredictorService::direct(&pic));
        let (mut strat_ref, mut strat) = (kind.build(), kind.build());
        let mut executions = 0;
        for (ci, &(ia, ib)) in f.stream.iter().enumerate() {
            let (a, b) = (&f.corpus[ia], &f.corpus[ib]);
            let want = reference_explore_mlpct(
                &f.kernel,
                &svc_ref,
                strat_ref.as_mut(),
                a,
                b,
                &explore_cfg(ci),
            );
            let got = explore_mlpct(&f.kernel, &svc, strat.as_mut(), a, b, &explore_cfg(ci));
            assert_eq!(comparable(&got), comparable(&want), "{kind:?}, CTI {ci}");
            assert_eq!(strat.snapshot(), strat_ref.snapshot(), "{kind:?}, CTI {ci}");
            executions += got.executions;
        }
        let (want, got) = (svc_ref.stats(), svc.stats());
        assert_eq!(got.inferences(), want.inferences(), "{kind:?}: inferences keep their value");
        assert_eq!(got.batches(), want.batches(), "{kind:?}");
        assert_eq!(want.reused(), 0);
        assert_eq!(got.forwards(), pic.stats().inferences(), "{kind:?}: forwards are model passes");
        assert!(got.reused() > got.forwards(), "{kind:?}: most candidates repeat an overlay");
        assert!(executions > 0 && executions < got.inferences(), "{kind:?}: strategy filters");
    }
}

/// Delegates to a PIC, reporting fingerprint 0 for its first `flip_after`
/// forwards and 1 afterwards (a model swapped mid-CTI that predicts the
/// same), and records every graph it forwards with the fingerprint it was
/// forwarded under.
struct SwappingStub<'p, 'k> {
    inner: &'p Pic<'k>,
    flip_after: u64,
    calls: AtomicU64,
    forwarded: Mutex<Vec<(u64, u64)>>,
}

impl CoveragePredictor for SwappingStub<'_, '_> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        let epoch = self.fingerprint();
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut log = self.forwarded.lock().unwrap();
        log.extend(graphs.iter().map(|g| (epoch, graph_fingerprint(g))));
        self.inner.predict_batch(graphs)
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }

    fn fingerprint(&self) -> u64 {
        u64::from(self.calls.load(Ordering::Relaxed) >= self.flip_after)
    }

    fn name(&self) -> String {
        "swapping-stub".into()
    }
}

#[test]
fn fingerprint_change_mid_cti_forces_fresh_forwards() {
    let f = fixture();
    let (ia, ib) = f.stream[0];
    let (a, b) = (&f.corpus[ia], &f.corpus[ib]);
    let cfg = explore_cfg(0);
    let pic_ref = Pic::new(&f.ck, &f.kernel, &f.cfg);
    let mut strat_ref = StrategyKind::S3(2).build();
    let want = reference_explore_mlpct(
        &f.kernel,
        &PredictorService::direct(&pic_ref),
        strat_ref.as_mut(),
        a,
        b,
        &cfg,
    );

    let pic = Pic::new(&f.ck, &f.kernel, &f.cfg);
    let stub = SwappingStub {
        inner: &pic,
        flip_after: 8,
        calls: AtomicU64::new(0),
        forwarded: Mutex::new(Vec::new()),
    };
    let svc = PredictorService::with(&pic, &stub);
    let mut strat = StrategyKind::S3(2).build();
    let got = explore_mlpct(&f.kernel, &svc, strat.as_mut(), a, b, &cfg);
    assert_eq!(comparable(&got), comparable(&want));
    assert_eq!(strat.snapshot(), strat_ref.snapshot());

    let stats = svc.stats();
    let log = stub.forwarded.into_inner().unwrap();
    let before: Vec<u64> = log.iter().filter(|(e, _)| *e == 0).map(|&(_, g)| g).collect();
    let after: Vec<u64> = log.iter().filter(|(e, _)| *e == 1).map(|&(_, g)| g).collect();
    assert_eq!(before.len(), 8, "the fingerprint changes after the 8th forward");
    for (epoch, graphs) in [(0, &before), (1, &after)] {
        let distinct: HashSet<u64> = graphs.iter().copied().collect();
        assert_eq!(distinct.len(), graphs.len(), "epoch {epoch}: each overlay forwarded once");
    }
    let before: HashSet<u64> = before.into_iter().collect();
    assert!(
        after.iter().any(|g| before.contains(g)),
        "an overlay scored under the old fingerprint is forwarded again under the new one"
    );
    assert_eq!(stats.forwards(), log.len() as u64);
    assert_eq!(stats.inferences(), pic_ref.stats().inferences());
}
