//! The predictor service: a unified, batched coverage-prediction API.
//!
//! Everything that consumes coverage predictions — MLPCT exploration,
//! Razzer-PIC candidate filtering, Snowboard exemplar sampling, campaign
//! runs, the experiment regenerators — goes through one trait:
//!
//! * [`CoveragePredictor`] — batched inference over pre-built CT graphs,
//!   with [`PredictorStats`] counters behind `&self` (interior mutability),
//!   so predictors can be shared across threads.
//!
//! Implementors:
//!
//! * [`crate::pic::Pic`] — the trained GNN + tuned threshold,
//! * [`BaselineService`] — the Table-1 baselines (all-positive, fair coin,
//!   biased coin), deterministic per graph,
//! * [`ParallelPredictor`] — fans a batch out over a scoped worker pool with
//!   work stealing; results are bit-identical to serial evaluation,
//! * [`crate::predcache::CachedPredictor`] — content-addressed memoization.
//!
//! The wrappers compose: `CachedPredictor<ParallelPredictor<&Pic>>` caches
//! batched parallel inference. [`PredictorService`] bundles a predictor
//! chain with the graph-building [`Pic`] so workflow code can go from (CTI,
//! scheduling hints) to predictions in one call.

use crate::pic::{Pic, PredictedCoverage};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_corpus::StiProfile;
use snowcat_graph::CtGraph;
use snowcat_nn::BaselinePredictor;
use snowcat_vm::ScheduleHints;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// FNV-1a over a byte slice, continuing from `h` (so hashes can be chained).
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content fingerprint of a CT graph. Two graphs with the same vertices
/// (block, thread, kind, schedule mark, tokens) and the same edge list hash
/// equal; CT graphs are pure functions of (checkpointed corpus, CTI pair,
/// scheduling hints), so this fingerprints the prediction *input*.
pub fn graph_fingerprint(g: &CtGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(h, &(g.verts.len() as u64).to_le_bytes());
    for v in &g.verts {
        h = fnv1a(h, &v.block.0.to_le_bytes());
        h = fnv1a(h, &[v.thread.0, v.kind as u8, v.sched_mark.index() as u8, u8::from(v.may_race)]);
        h = fnv1a(h, &v.static_feats.bytes());
        for t in &v.tokens {
            h = fnv1a(h, &t.to_le_bytes());
        }
    }
    h = fnv1a(h, &(g.edges.len() as u64).to_le_bytes());
    for e in &g.edges {
        h = fnv1a(h, &e.from.to_le_bytes());
        h = fnv1a(h, &e.to.to_le_bytes());
        h = fnv1a(h, &[e.kind.index() as u8]);
    }
    h
}

/// Counter snapshot of a predictor (chain). Wrapper predictors merge their
/// own counters into the inner predictor's snapshot, so the stats of the
/// outermost predictor describe the whole chain.
///
/// The fields are private and the struct is `#[non_exhaustive]`: consumers
/// read counters through accessors ([`batches`](Self::batches),
/// [`cache_hits`](Self::cache_hits), …) and wrapper predictors compose
/// snapshots through the `with_*`/`add_*` builders, so future exporters can
/// add counters without breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    pub(crate) inferences: u64,
    pub(crate) batches: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) degraded_batches: u64,
    pub(crate) fallback_predictions: u64,
    pub(crate) queue_depth_max: u64,
    pub(crate) coalesced_graphs: u64,
    pub(crate) server_flushes: u64,
    pub(crate) flush_capacity: u64,
    pub(crate) shed_requests: u64,
    pub(crate) reused: u64,
}

impl PredictorStats {
    /// An all-zero snapshot (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of a leaf predictor: `inferences` model evaluations over
    /// `batches` batch calls, no cache or degradation activity.
    pub fn of_inference_counts(inferences: u64, batches: u64) -> Self {
        PredictorStats { inferences, batches, ..Self::default() }
    }

    /// Candidates scored: model passes ([`forwards`](Self::forwards)) plus
    /// candidates whose prediction [`crate::explore_mlpct`] reused from an
    /// identical schedule overlay of the same CTI ([`reused`](Self::reused)).
    /// Cache hits are excluded.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Candidates scored by reuse instead of a call into the chain.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Model passes: [`inferences`](Self::inferences) minus
    /// [`reused`](Self::reused).
    pub fn forwards(&self) -> u64 {
        self.inferences - self.reused
    }

    /// `predict_batch` calls on the outermost predictor, plus one per
    /// reused candidate (the call the reuse replaced).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Prediction requests served without an inference.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Prediction requests that had to run an inference.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Cached predictions dropped to respect the cache capacity.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Batches that failed (panic or latency-budget violation) and were
    /// served by the degradation fallback instead.
    pub fn degraded_batches(&self) -> u64 {
        self.degraded_batches
    }

    /// Individual predictions produced by the fallback predictor.
    pub fn fallback_predictions(&self) -> u64 {
        self.fallback_predictions
    }

    /// Replace the batch count: a wrapper reports *its* batch calls, not
    /// the inner predictor's.
    pub fn with_batches(mut self, batches: u64) -> Self {
        self.batches = batches;
        self
    }

    /// Merge cache-layer counters on top of the inner snapshot.
    pub fn add_cache_activity(&mut self, hits: u64, misses: u64, evictions: u64) {
        self.cache_hits += hits;
        self.cache_misses += misses;
        self.cache_evictions += evictions;
    }

    /// Merge candidates scored by reuse on top of the chain's snapshot: each
    /// counts as an inference and as the one-graph batch it replaced, so
    /// `inferences` and `batches` read as if every candidate had been
    /// predicted.
    pub(crate) fn add_reuse(&mut self, reused: u64) {
        self.inferences += reused;
        self.batches += reused;
        self.reused += reused;
    }

    /// Merge degradation-layer counters on top of the inner snapshot.
    pub fn add_degradation(&mut self, degraded_batches: u64, fallback_predictions: u64) {
        self.degraded_batches += degraded_batches;
        self.fallback_predictions += fallback_predictions;
    }

    /// Deepest the serving queue has been, in pending graphs (0 when no
    /// inference server is in the chain).
    pub fn queue_depth_max(&self) -> u64 {
        self.queue_depth_max
    }

    /// Caller requests that bypassed the serving queue under the shed
    /// overload policy (predicted inline instead of queued).
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Micro-batches flushed by an inference server.
    pub fn server_flushes(&self) -> u64 {
        self.server_flushes
    }

    /// Mean fill of the server's micro-batches: coalesced graphs over the
    /// total `max_batch` capacity of every flush (0.0 when no server is in
    /// the chain). 1.0 means every flush left at `max_batch`; low values
    /// mean the latency deadline, not the batch size, drives flushes.
    pub fn batch_fill(&self) -> f64 {
        if self.flush_capacity == 0 {
            0.0
        } else {
            self.coalesced_graphs as f64 / self.flush_capacity as f64
        }
    }

    /// Merge serving-layer counters on top of the inner snapshot:
    /// high-water queue depth (merged by max), graphs coalesced into
    /// flushed micro-batches, flush count, the summed `max_batch` capacity
    /// of those flushes, and shed requests.
    pub fn add_serving(
        &mut self,
        queue_depth_max: u64,
        coalesced_graphs: u64,
        flushes: u64,
        flush_capacity: u64,
        shed: u64,
    ) {
        self.queue_depth_max = self.queue_depth_max.max(queue_depth_max);
        self.coalesced_graphs += coalesced_graphs;
        self.server_flushes += flushes;
        self.flush_capacity += flush_capacity;
        self.shed_requests += shed;
    }

    /// Fraction of cache-mediated requests served from the cache
    /// (0.0 when no cache is in the chain).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A coverage predictor: CT graphs in, per-vertex coverage predictions out.
///
/// Implementations take `&self` and are `Sync`, so one predictor can serve
/// several exploration threads; counters use interior mutability and come
/// back via [`CoveragePredictor::stats`].
pub trait CoveragePredictor: Sync {
    /// Predict coverage for a batch of CT graphs. The output is aligned
    /// with the input: `out[i]` is the prediction for `graphs[i]`.
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage>;

    /// Counter snapshot for the whole predictor chain.
    fn stats(&self) -> PredictorStats;

    /// Content fingerprint of the underlying model (for cache keying);
    /// wrappers forward to the predictor that actually infers.
    fn fingerprint(&self) -> u64;

    /// Human-readable name of the chain ("PIC-5", "cached(parallel(PIC-5))").
    fn name(&self) -> String;

    /// Predict coverage for a single CT graph.
    fn predict_one(&self, graph: &CtGraph) -> PredictedCoverage {
        self.predict_batch(std::slice::from_ref(graph))
            .pop()
            .expect("predict_batch returns one prediction per input graph")
    }
}

impl<P: CoveragePredictor + ?Sized> CoveragePredictor for &P {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        (**self).predict_batch(graphs)
    }

    fn stats(&self) -> PredictorStats {
        (**self).stats()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn predict_one(&self, graph: &CtGraph) -> PredictedCoverage {
        (**self).predict_one(graph)
    }
}

/// Coverage prediction with the auxiliary inter-thread-flow head (§6). Only
/// meaningful on models trained with [`snowcat_nn::train_with_flows`]; the
/// flow scores are aligned with `graph.edges` (0.0 on non-InterFlow edges).
pub trait FlowPredictor: CoveragePredictor {
    /// Predict coverage *and* per-edge inter-thread-flow probabilities.
    fn predict_with_flows(&self, graph: &CtGraph) -> (PredictedCoverage, Vec<f32>);
}

/// The Table-1 baseline predictors behind the unified API. Coin flips are
/// derived deterministically from the graph fingerprint, so a baseline is
/// `Sync`, repeatable, and parallel evaluation is bit-identical to serial.
pub struct BaselineService {
    kind: BaselinePredictor,
    seed: u64,
    inferences: AtomicU64,
    batches: AtomicU64,
}

impl BaselineService {
    /// Wrap a baseline; `seed` decorrelates coin flips across services.
    pub fn new(kind: BaselinePredictor, seed: u64) -> Self {
        Self { kind, seed, inferences: AtomicU64::new(0), batches: AtomicU64::new(0) }
    }

    /// Predict every vertex positive.
    pub fn all_pos() -> Self {
        Self::new(BaselinePredictor::AllPos, 0)
    }

    /// Fair coin per vertex.
    pub fn fair_coin(seed: u64) -> Self {
        Self::new(BaselinePredictor::FairCoin, seed)
    }

    /// Coin biased to the training-set URB base rate.
    pub fn biased_coin(rate: f64, seed: u64) -> Self {
        Self::new(BaselinePredictor::BiasedCoin(rate), seed)
    }
}

impl CoveragePredictor for BaselineService {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        graphs
            .iter()
            .map(|graph| {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ graph_fingerprint(graph));
                let positive = self.kind.predict(&mut rng, graph.num_verts());
                let probs = positive.iter().map(|&p| if p { 1.0 } else { 0.0 }).collect();
                PredictedCoverage { graph: graph.clone(), probs, positive }
            })
            .collect()
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats {
            inferences: self.inferences.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            ..PredictorStats::default()
        }
    }

    fn fingerprint(&self) -> u64 {
        let tag: u64 = match self.kind {
            BaselinePredictor::AllPos => 1,
            BaselinePredictor::FairCoin => 2,
            BaselinePredictor::BiasedCoin(p) => 3 ^ p.to_bits(),
        };
        fnv1a(0x6261_7365_6c69_6e65, &(tag ^ self.seed).to_le_bytes())
    }

    fn name(&self) -> String {
        match self.kind {
            BaselinePredictor::AllPos => "all-pos".into(),
            BaselinePredictor::FairCoin => "fair-coin".into(),
            BaselinePredictor::BiasedCoin(p) => format!("biased-coin({p:.2})"),
        }
    }
}

/// Fans `predict_batch` out over a scoped worker pool. Workers steal graph
/// indices from a shared counter, so an uneven batch (graphs vary widely in
/// vertex count) still balances; each prediction lands back in its input
/// slot, making the output bit-identical to serial evaluation.
pub struct ParallelPredictor<P> {
    inner: P,
    workers: usize,
    batches: AtomicU64,
}

impl<P: CoveragePredictor> ParallelPredictor<P> {
    /// Wrap `inner`, evaluating batches on up to `workers` threads.
    pub fn new(inner: P, workers: usize) -> Self {
        Self { inner, workers: workers.max(1), batches: AtomicU64::new(0) }
    }

    /// Worker pool size (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: CoveragePredictor> CoveragePredictor for ParallelPredictor<P> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if self.workers == 1 || graphs.len() <= 1 {
            return self.inner.predict_batch(graphs);
        }
        let next = AtomicUsize::new(0);
        let inner = &self.inner;
        let predicted: Vec<(usize, PredictedCoverage)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(graphs.len()))
                .map(|_| {
                    scope.spawn(|_| {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= graphs.len() {
                                break;
                            }
                            got.push((i, inner.predict_one(&graphs[i])));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("predictor worker panicked")).collect()
        })
        .expect("predictor pool panicked");
        let mut out: Vec<Option<PredictedCoverage>> = graphs.iter().map(|_| None).collect();
        for (i, p) in predicted {
            out[i] = Some(p);
        }
        out.into_iter().map(|p| p.expect("every batch index predicted exactly once")).collect()
    }

    fn stats(&self) -> PredictorStats {
        // The inner predictor sees one "batch" per stolen graph; report the
        // batches this wrapper was actually asked for.
        PredictorStats { batches: self.batches.load(Ordering::Relaxed), ..self.inner.stats() }
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn name(&self) -> String {
        format!("parallel{}({})", self.workers, self.inner.name())
    }
}

/// Graph construction + a predictor chain, bundled so workflow code can go
/// from (CTI, scheduling hints) straight to predictions. The [`Pic`] side
/// builds graphs; the [`CoveragePredictor`] side — by default the same
/// `Pic`, optionally a cached/parallel chain around it — infers.
#[derive(Clone, Copy)]
pub struct PredictorService<'a, 'k> {
    pic: &'a Pic<'k>,
    predictor: &'a dyn CoveragePredictor,
}

impl<'a, 'k> PredictorService<'a, 'k> {
    /// Serve predictions directly from the deployed PIC.
    pub fn direct(pic: &'a Pic<'k>) -> Self {
        Self { pic, predictor: pic }
    }

    /// Serve predictions through `predictor` (a chain that must wrap the
    /// same deployed model for the predictions to be meaningful).
    pub fn with(pic: &'a Pic<'k>, predictor: &'a dyn CoveragePredictor) -> Self {
        Self { pic, predictor }
    }

    /// The graph-building PIC deployment.
    pub fn pic(&self) -> &'a Pic<'k> {
        self.pic
    }

    /// The inference chain predictions go through.
    pub fn predictor(&self) -> &'a dyn CoveragePredictor {
        self.predictor
    }

    /// Build the schedule-independent base graph of a CTI.
    pub fn base_graph(&self, a: &StiProfile, b: &StiProfile) -> CtGraph {
        self.pic.base_graph(a, b)
    }

    /// Predict one CT candidate given its CTI's base graph.
    pub fn predict_candidate(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> PredictedCoverage {
        let graph = self.pic.candidate_graph(base, a, b, hints);
        self.predictor.predict_one(&graph)
    }

    /// Predict a batch of CT candidates of the same CTI, one per entry of
    /// `hints` (output aligned with `hints`).
    pub fn predict_candidates(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &[ScheduleHints],
    ) -> Vec<PredictedCoverage> {
        let graphs: Vec<CtGraph> =
            hints.iter().map(|h| self.pic.candidate_graph(base, a, b, h)).collect();
        self.predictor.predict_batch(&graphs)
    }

    /// Predict one CT candidate from scratch (base graph built and dropped).
    pub fn predict_ct(
        &self,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> PredictedCoverage {
        let base = self.base_graph(a, b);
        self.predict_candidate(&base, a, b, hints)
    }

    /// Counter snapshot of the inference chain, with the candidates
    /// [`crate::explore_mlpct`] scored by reuse merged in.
    pub fn stats(&self) -> PredictorStats {
        let mut stats = self.predictor.stats();
        stats.add_reuse(self.pic.reused());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_cfg::KernelCfg;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::{Checkpoint, PicConfig, PicModel};
    use snowcat_vm::propose_hints;

    fn setup_graphs(n: usize) -> (Vec<CtGraph>, Checkpoint) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 9);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(11, 13);
        let base = pic.base_graph(&corpus[0], &corpus[1]);
        let graphs = (0..n)
            .map(|_| {
                let hints = propose_hints(&mut rng, corpus[0].seq.steps, corpus[1].seq.steps);
                pic.candidate_graph(&base, &corpus[0], &corpus[1], &hints)
            })
            .collect();
        (graphs, ck)
    }

    #[test]
    fn graph_fingerprint_is_content_addressed() {
        let (graphs, _) = setup_graphs(3);
        assert_eq!(graph_fingerprint(&graphs[0]), graph_fingerprint(&graphs[0].clone()));
        // Distinct schedules give distinct graphs and distinct fingerprints.
        if graphs[0] != graphs[1] {
            assert_ne!(graph_fingerprint(&graphs[0]), graph_fingerprint(&graphs[1]));
        }
        let mut tweaked = graphs[0].clone();
        tweaked.verts[0].tokens.push(7);
        assert_ne!(graph_fingerprint(&graphs[0]), graph_fingerprint(&tweaked));
    }

    #[test]
    fn serving_stats_accessors_compose() {
        let mut s = PredictorStats::of_inference_counts(10, 2);
        assert_eq!(s.queue_depth_max(), 0);
        assert_eq!(s.batch_fill(), 0.0, "no server in the chain");
        s.add_serving(7, 24, 4, 32, 1);
        s.add_serving(3, 8, 1, 8, 0);
        assert_eq!(s.queue_depth_max(), 7, "high-water mark merges by max, not sum");
        assert_eq!(s.server_flushes(), 5);
        assert_eq!(s.shed_requests(), 1);
        assert!((s.batch_fill() - 32.0 / 40.0).abs() < 1e-12);
        assert_eq!(s.inferences(), 10, "serving counters leave inference counts alone");
    }

    #[test]
    fn baselines_are_deterministic_and_aligned() {
        let (graphs, _) = setup_graphs(2);
        for svc in [
            BaselineService::all_pos(),
            BaselineService::fair_coin(3),
            BaselineService::biased_coin(0.2, 3),
        ] {
            let a = svc.predict_batch(&graphs);
            let b = svc.predict_batch(&graphs);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.positive, y.positive, "{}", svc.name());
                assert_eq!(x.positive.len(), x.graph.num_verts());
            }
        }
        let all = BaselineService::all_pos().predict_one(&graphs[0]);
        assert!(all.positive.iter().all(|&p| p));
        assert_eq!(BaselineService::all_pos().stats().inferences, 0);
    }

    #[test]
    fn parallel_predictor_is_bit_identical_to_serial() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let (graphs, ck) = setup_graphs(9);
        let pic = Pic::new(&ck, &k, &cfg);
        let serial = pic.predict_batch(&graphs);
        let par = ParallelPredictor::new(&pic, 4);
        let parallel = par.predict_batch(&graphs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.graph, p.graph);
            assert_eq!(s.probs, p.probs);
            assert_eq!(s.positive, p.positive);
        }
        let stats = par.stats();
        assert_eq!(stats.inferences, 18, "9 serial + 9 parallel on the shared Pic");
        assert_eq!(stats.batches, 1);
        assert_eq!(par.fingerprint(), pic.fingerprint());
    }

    #[test]
    fn service_candidate_paths_agree() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 9);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let svc = PredictorService::direct(&pic);
        let mut rng = rand::rngs::mock::StepRng::new(5, 17);
        let (a, b) = (&corpus[0], &corpus[1]);
        let base = svc.base_graph(a, b);
        let hints: Vec<_> =
            (0..3).map(|_| propose_hints(&mut rng, a.seq.steps, b.seq.steps)).collect();
        let batch = svc.predict_candidates(&base, a, b, &hints);
        for (h, p) in hints.iter().zip(&batch) {
            let one = svc.predict_candidate(&base, a, b, h);
            assert_eq!(one.probs, p.probs);
            let fresh = svc.predict_ct(a, b, h);
            assert_eq!(fresh.probs, p.probs);
        }
    }
}
