//! The deployed coverage predictor: trained model + tuned threshold + graph
//! construction, packaged behind the interface the testing workflow uses
//! ("given a CT candidate, predict its block coverage").
//!
//! Inference goes through the [`crate::predictor::CoveragePredictor`] trait,
//! which [`Pic`] implements; this module keeps the graph-construction side
//! (base graphs, schedule overlays) and the prediction result type.

use crate::predictor::{fnv1a, CoveragePredictor, FlowPredictor, PredictorStats};
use snowcat_cfg::KernelCfg;
use snowcat_corpus::StiProfile;
use snowcat_graph::{CtGraph, CtGraphBuilder};
use snowcat_kernel::{BlockId, Kernel, ThreadId};
use snowcat_nn::{Checkpoint, PicModel, PicSession};
use snowcat_vm::{BitSet, ScheduleHints};
use std::sync::atomic::{AtomicU64, Ordering};

/// Predicted coverage for one CT candidate.
#[derive(Debug, Clone)]
pub struct PredictedCoverage {
    /// The CT graph the prediction was made on.
    pub graph: CtGraph,
    /// Per-vertex positive-class probabilities.
    pub probs: Vec<f32>,
    /// Thresholded predictions.
    pub positive: Vec<bool>,
}

impl PredictedCoverage {
    /// (thread, block) pairs predicted covered.
    pub fn positive_blocks(&self) -> Vec<(ThreadId, BlockId)> {
        self.graph
            .verts
            .iter()
            .zip(&self.positive)
            .filter(|(_, &p)| p)
            .map(|(v, _)| (v.thread, v.block))
            .collect()
    }

    /// Whether any vertex for `block` (either thread) is predicted covered.
    pub fn covers_block(&self, block: BlockId) -> bool {
        self.graph.verts.iter().zip(&self.positive).any(|(v, &p)| p && v.block == block)
    }

    /// Indices of predicted-positive vertices.
    pub fn positive_indices(&self) -> Vec<usize> {
        self.positive.iter().enumerate().filter(|(_, &p)| p).map(|(i, _)| i).collect()
    }

    /// The predicted-positive vertices as a bitset over the graph's vertex
    /// order (which a candidate graph shares with its CTI's base graph).
    pub fn positive_bits(&self) -> BitSet {
        let mut bits = BitSet::new(self.positive.len());
        for i in self.positive_indices() {
            bits.insert(i);
        }
        bits
    }
}

/// The deployable PIC predictor: a restored model, its tuned threshold, and
/// the graph builder for the kernel it was deployed against.
///
/// Inference state (the model, the threshold, the inference counter) is
/// encapsulated: predictions go through [`CoveragePredictor::predict_batch`]
/// / [`CoveragePredictor::predict_one`], counters come back via
/// [`CoveragePredictor::stats`], and the model/threshold are read-only
/// through [`Pic::model`] and [`Pic::threshold`].
pub struct Pic<'k> {
    model: PicModel,
    threshold: f32,
    builder: CtGraphBuilder<'k>,
    /// Inferences performed (for inference-budget accounting, §5.3.1 caps
    /// these at 1,600 per CTI). Atomic so shared references can predict
    /// concurrently (see [`crate::predictor::ParallelPredictor`]).
    inferences: AtomicU64,
    batches: AtomicU64,
    /// Candidates [`crate::explore_mlpct`] scored by reusing an identical
    /// overlay's prediction instead of calling the chain; merged into the
    /// chain's counters by [`crate::PredictorService::stats`].
    reused: AtomicU64,
    fingerprint: u64,
    name: String,
}

impl<'k> Pic<'k> {
    /// Deploy a checkpoint against a kernel image.
    pub fn new(checkpoint: &Checkpoint, kernel: &'k Kernel, cfg: &'k KernelCfg) -> Self {
        Self {
            model: checkpoint.restore(),
            threshold: checkpoint.threshold,
            builder: CtGraphBuilder::new(kernel, cfg),
            inferences: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            fingerprint: checkpoint_fingerprint(checkpoint),
            name: checkpoint.name.clone(),
        }
    }

    /// Enable the static may-race node feature: vertices on `blocks` carry
    /// [`snowcat_graph::Vertex::may_race`] in every graph this predictor
    /// builds. Pass the block set of `snowcat-analysis`' may-race pass.
    pub fn with_may_race_blocks(mut self, blocks: snowcat_vm::BitSet) -> Self {
        self.builder.may_race_blocks = Some(blocks);
        self
    }

    /// Enable the per-block static feature channels (alias-class density,
    /// must-lockset size, refined may-race degree): every graph this
    /// predictor builds stamps `feats[block]` onto its vertices. Pass the
    /// `snowcat-analysis` per-block channel table, indexed by `BlockId`.
    pub fn with_static_feats(mut self, feats: Vec<snowcat_graph::StaticFeats>) -> Self {
        self.builder.block_static_feats = Some(feats);
        self
    }

    /// The restored model (read-only).
    pub fn model(&self) -> &PicModel {
        &self.model
    }

    /// The tuned classification threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Total inferences performed so far (same as `stats().inferences`).
    pub fn inferences(&self) -> u64 {
        self.inferences.load(Ordering::Relaxed)
    }

    /// Access the underlying graph builder.
    pub fn builder(&self) -> &CtGraphBuilder<'k> {
        &self.builder
    }

    /// Build the schedule-independent base graph of a CTI (reused across
    /// interleaving candidates).
    pub fn base_graph(&self, a: &StiProfile, b: &StiProfile) -> CtGraph {
        self.builder.build_base(&a.seq, &b.seq)
    }

    /// Overlay a candidate schedule on a CTI's base graph, producing the
    /// complete CT graph a predictor consumes.
    pub fn candidate_graph(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> CtGraph {
        self.builder.with_schedule(base, &a.seq, &b.seq, hints)
    }

    pub(crate) fn note_reuse(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

impl CoveragePredictor for Pic<'_> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        // One session per batch: every graph after the first reuses the same
        // scratch buffers and CSR arrays, so steady-state inference does not
        // touch the allocator.
        let mut session = PicSession::new();
        graphs
            .iter()
            .map(|graph| {
                let mut probs = Vec::new();
                self.model.forward_into(graph, &mut session, &mut probs);
                let positive = probs.iter().map(|&p| p >= self.threshold).collect();
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
        self.fingerprint
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl FlowPredictor for Pic<'_> {
    fn predict_with_flows(&self, graph: &CtGraph) -> (PredictedCoverage, Vec<f32>) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(1, Ordering::Relaxed);
        let (probs, cache) = self.model.forward_cached(graph);
        let flows = self.model.forward_flows(graph, &cache);
        let positive = probs.iter().map(|&p| p >= self.threshold).collect();
        (PredictedCoverage { graph: graph.clone(), probs, positive }, flows)
    }
}

/// Content fingerprint of a checkpoint, used to key prediction caches: two
/// deployments of the same trained model agree, different trainings (almost
/// surely) differ. Hashes the provenance name, the threshold, the model
/// hyperparameters and a prefix of the learned token embedding.
pub fn checkpoint_fingerprint(ck: &Checkpoint) -> u64 {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, ck.name.as_bytes());
    h = fnv1a(h, &ck.threshold.to_bits().to_le_bytes());
    h = fnv1a(h, &(ck.cfg.hidden as u64).to_le_bytes());
    h = fnv1a(h, &(ck.cfg.layers as u64).to_le_bytes());
    let emb = &ck.params.tok_emb.data;
    h = fnv1a(h, &(emb.len() as u64).to_le_bytes());
    for v in emb.iter().take(256) {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::PicConfig;
    use snowcat_vm::propose_hints;

    #[test]
    fn predictor_produces_aligned_outputs() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(42, 77);
        let hints = propose_hints(&mut rng, corpus[0].seq.steps, corpus[1].seq.steps);
        let base = pic.base_graph(&corpus[0], &corpus[1]);
        let graph = pic.candidate_graph(&base, &corpus[0], &corpus[1], &hints);
        let pred = pic.predict_one(&graph);
        assert_eq!(pred.probs.len(), pred.graph.num_verts());
        assert_eq!(pred.positive.len(), pred.graph.num_verts());
        assert_eq!(pic.inferences(), 1);
        assert_eq!(pic.stats().inferences, 1);
        // positive_blocks consistent with positive flags.
        assert_eq!(pred.positive_blocks().len(), pred.positive_indices().len());
    }

    #[test]
    fn batch_prediction_matches_one_by_one() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 2);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(7, 3);
        let base = pic.base_graph(&corpus[2], &corpus[3]);
        let graphs: Vec<CtGraph> = (0..4)
            .map(|_| {
                let hints = propose_hints(&mut rng, corpus[2].seq.steps, corpus[3].seq.steps);
                pic.candidate_graph(&base, &corpus[2], &corpus[3], &hints)
            })
            .collect();
        let batch = pic.predict_batch(&graphs);
        assert_eq!(batch.len(), graphs.len());
        for (g, p) in graphs.iter().zip(&batch) {
            let one = pic.predict_one(g);
            assert_eq!(one.graph, p.graph);
            assert_eq!(one.probs, p.probs);
            assert_eq!(one.positive, p.positive);
        }
        assert_eq!(pic.inferences(), 8, "4 batched + 4 single");
    }

    #[test]
    fn checkpoint_fingerprint_distinguishes_models() {
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let a = Checkpoint::new(&model, 0.5, "a");
        let b = Checkpoint::new(&model, 0.5, "b");
        let c = Checkpoint::new(&model, 0.25, "a");
        assert_eq!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&a));
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&b));
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&c));
    }
}
