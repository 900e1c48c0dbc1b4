//! CT-candidate selection strategies (§3.3).
//!
//! Given the *predicted* coverage of a candidate CT — its positive
//! (thread, block) set, see [`PositiveSet`] — a strategy decides whether it
//! is worth a dynamic execution:
//!
//! * **S1 — new set of positive blocks**: select if the predicted coverage
//!   bitmap (as a set of (thread, block) positives) has never been seen.
//! * **S2 — new positive blocks**: select if at least one predicted-covered
//!   block has never been predicted-covered by a selected CT before.
//! * **S3 — positive blocks with limited trials**: select while some
//!   predicted-covered block has been attempted fewer than `limit` times;
//!   selecting charges one trial to every predicted-positive block.
//!
//! Strategies are stateful and cumulative across CTIs, exactly as in the
//! paper ("SNOWCAT remembers the predicted block coverage of each previously
//! chosen CT").

use crate::pic::PredictedCoverage;
use serde::{Deserialize, Serialize};
use snowcat_graph::Vertex;
use snowcat_kernel::{BlockId, ThreadId};
use snowcat_vm::BitSet;
use std::collections::{HashMap, HashSet};

/// The predicted-positive (thread, block) pairs of one CT candidate: all a
/// [`SelectionStrategy`] decides on. A [`PredictedCoverage`] is one; MLPCT's
/// per-CTI reuse passes [`PositiveVerts`] instead, so it keeps no graph.
pub trait PositiveSet {
    /// Every positive pair. The order is the implementor's (graph vertex
    /// order, or (thread, block) order for [`PositiveVerts`]); no strategy
    /// depends on it.
    fn positive_blocks(&self) -> Vec<(ThreadId, BlockId)>;
}

impl PositiveSet for PredictedCoverage {
    fn positive_blocks(&self) -> Vec<(ThreadId, BlockId)> {
        PredictedCoverage::positive_blocks(self)
    }
}

/// A positive set given as a bitset over a CTI's vertices in (thread,
/// block) order (see [`BlockOrder`]), so its pairs come out sorted.
#[derive(Debug, Clone, Copy)]
pub struct PositiveVerts<'g> {
    /// Every vertex's (thread, block), ascending.
    pub blocks: &'g [(ThreadId, BlockId)],
    /// Bit `j` set iff the vertex at `blocks[j]` is predicted positive.
    pub bits: &'g BitSet,
}

impl PositiveSet for PositiveVerts<'_> {
    fn positive_blocks(&self) -> Vec<(ThreadId, BlockId)> {
        self.bits.iter().map(|j| self.blocks[j]).collect()
    }
}

/// A CTI's vertices sorted by (thread, block). A candidate graph shares its
/// base graph's vertices, so one order serves every candidate of the CTI:
/// positives kept in it reach S1's fingerprint already sorted.
#[derive(Debug, Clone)]
pub struct BlockOrder {
    /// Every vertex's (thread, block), ascending.
    blocks: Vec<(ThreadId, BlockId)>,
    /// Each vertex's position in `blocks`.
    rank: Vec<u32>,
}

impl BlockOrder {
    /// The order of `verts` (a CTI's base graph's vertices).
    pub fn new(verts: &[Vertex]) -> Self {
        let mut order: Vec<u32> = (0..verts.len() as u32).collect();
        order.sort_by_key(|&i| (verts[i as usize].thread, verts[i as usize].block));
        let mut rank = vec![0; verts.len()];
        for (j, &i) in order.iter().enumerate() {
            rank[i as usize] = j as u32;
        }
        let blocks = order.iter().map(|&i| (verts[i as usize].thread, verts[i as usize].block));
        Self { blocks: blocks.collect(), rank }
    }

    /// `bits` over the graph's vertex order, re-indexed into this order.
    pub fn permute(&self, bits: &BitSet) -> BitSet {
        let mut sorted = BitSet::new(self.rank.len());
        for i in bits.iter() {
            sorted.insert(self.rank[i] as usize);
        }
        sorted
    }

    /// The positive set of bits already in this order (from
    /// [`BlockOrder::permute`]).
    pub fn positives<'a>(&'a self, sorted_bits: &'a BitSet) -> PositiveVerts<'a> {
        PositiveVerts { blocks: &self.blocks, bits: sorted_bits }
    }
}

/// Serializable snapshot of a strategy's cumulative memory, used by the
/// campaign supervisor's checkpoint/resume path. Collections are sorted so
/// the encoding is deterministic for a given state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategySnapshot {
    /// [`S1NewBitmap`] memory: sorted fingerprints of seen bitmaps.
    S1 {
        /// Seen coverage-bitmap fingerprints.
        seen: Vec<u64>,
    },
    /// [`S2NewBlocks`] memory: sorted seen block ids.
    S2 {
        /// Seen predicted-positive blocks.
        seen: Vec<u32>,
    },
    /// [`S3LimitedTrials`] memory: sorted (block, trials) pairs + limit.
    S3 {
        /// Per-block trial counts.
        trials: Vec<(u32, usize)>,
        /// The per-block trial limit.
        limit: usize,
    },
}

/// A candidate-selection strategy.
pub trait SelectionStrategy: Send {
    /// Decide whether to execute the candidate with this predicted-positive
    /// set; selecting updates the strategy's memory.
    fn select(&mut self, positives: &dyn PositiveSet) -> bool;

    /// Short name for reports ("S1", "S2", "S3(3)").
    fn name(&self) -> String;

    /// Export the cumulative memory for checkpointing.
    fn snapshot(&self) -> StrategySnapshot;

    /// Restore memory from a snapshot. Returns `false` (leaving the
    /// strategy untouched) if the snapshot belongs to a different strategy
    /// kind.
    fn restore(&mut self, snap: &StrategySnapshot) -> bool;
}

/// S1: new set of positive blocks (coverage-bitmap novelty).
#[derive(Debug, Default)]
pub struct S1NewBitmap {
    seen: HashSet<u64>,
}

impl S1NewBitmap {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

fn bitmap_fingerprint(positives: &dyn PositiveSet) -> u64 {
    let mut blocks = positives.positive_blocks();
    // Linear when the pairs arrive sorted, as `PositiveVerts` yields them.
    blocks.sort_unstable();
    // FNV-1a over the sorted positive set.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (t, b) in blocks {
        h ^= (u64::from(t.0) << 32) | u64::from(b.0);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SelectionStrategy for S1NewBitmap {
    fn select(&mut self, positives: &dyn PositiveSet) -> bool {
        self.seen.insert(bitmap_fingerprint(positives))
    }

    fn name(&self) -> String {
        "S1".into()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        StrategySnapshot::S1 { seen }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S1 { seen } => {
                self.seen = seen.iter().copied().collect();
                true
            }
            _ => false,
        }
    }
}

/// S2: at least one never-before-predicted-covered block.
#[derive(Debug, Default)]
pub struct S2NewBlocks {
    seen: HashSet<BlockId>,
}

impl S2NewBlocks {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionStrategy for S2NewBlocks {
    fn select(&mut self, positives: &dyn PositiveSet) -> bool {
        let fresh: Vec<BlockId> = positives
            .positive_blocks()
            .iter()
            .map(|&(_, b)| b)
            .filter(|b| !self.seen.contains(b))
            .collect();
        if fresh.is_empty() {
            return false;
        }
        self.seen.extend(fresh);
        true
    }

    fn name(&self) -> String {
        "S2".into()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut seen: Vec<u32> = self.seen.iter().map(|b| b.0).collect();
        seen.sort_unstable();
        StrategySnapshot::S2 { seen }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S2 { seen } => {
                self.seen = seen.iter().map(|&b| BlockId(b)).collect();
                true
            }
            _ => false,
        }
    }
}

/// S3: per-block trial budget.
#[derive(Debug)]
pub struct S3LimitedTrials {
    trials: HashMap<BlockId, usize>,
    limit: usize,
}

impl S3LimitedTrials {
    /// Strategy allowing each positive block to be attempted `limit` times.
    pub fn new(limit: usize) -> Self {
        Self { trials: HashMap::new(), limit: limit.max(1) }
    }
}

impl SelectionStrategy for S3LimitedTrials {
    fn select(&mut self, positives: &dyn PositiveSet) -> bool {
        let blocks: Vec<BlockId> = positives.positive_blocks().iter().map(|&(_, b)| b).collect();
        let interesting =
            blocks.iter().any(|b| self.trials.get(b).copied().unwrap_or(0) < self.limit);
        if interesting {
            for b in blocks {
                *self.trials.entry(b).or_insert(0) += 1;
            }
        }
        interesting
    }

    fn name(&self) -> String {
        format!("S3({})", self.limit)
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut trials: Vec<(u32, usize)> = self.trials.iter().map(|(b, &n)| (b.0, n)).collect();
        trials.sort_unstable();
        StrategySnapshot::S3 { trials, limit: self.limit }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S3 { trials, limit } => {
                self.trials = trials.iter().map(|&(b, n)| (BlockId(b), n)).collect();
                self.limit = (*limit).max(1);
                true
            }
            _ => false,
        }
    }
}

/// The strategy lineup evaluated in the paper's §5.3.
pub fn standard_strategies() -> Vec<Box<dyn SelectionStrategy>> {
    vec![
        Box::new(S1NewBitmap::new()),
        Box::new(S2NewBlocks::new()),
        Box::new(S3LimitedTrials::new(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_graph::{CtGraph, VertKind};

    fn pred_with_blocks(blocks: &[(u8, u32)], positive: &[bool]) -> PredictedCoverage {
        let verts = blocks
            .iter()
            .map(|&(t, b)| Vertex {
                block: BlockId(b),
                thread: ThreadId(t),
                kind: VertKind::Scb,
                sched_mark: snowcat_graph::SchedMark::None,
                may_race: false,
                tokens: vec![1],
                static_feats: Default::default(),
            })
            .collect();
        PredictedCoverage {
            graph: CtGraph { verts, edges: vec![] },
            probs: positive.iter().map(|&p| if p { 0.9 } else { 0.1 }).collect(),
            positive: positive.to_vec(),
        }
    }

    #[test]
    fn s1_rejects_repeated_bitmap() {
        let mut s = S1NewBitmap::new();
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        assert!(s.select(&p));
        assert!(!s.select(&p));
        // Different subset → new bitmap.
        let q = pred_with_blocks(&[(0, 1), (0, 2)], &[true, false]);
        assert!(s.select(&q));
    }

    #[test]
    fn s1_bitmap_is_order_independent() {
        let mut s = S1NewBitmap::new();
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        let q = pred_with_blocks(&[(0, 2), (0, 1)], &[true, true]);
        assert!(s.select(&p));
        assert!(!s.select(&q), "same positive set in different order must collide");
    }

    #[test]
    fn s2_needs_a_new_block() {
        let mut s = S2NewBlocks::new();
        assert!(s.select(&pred_with_blocks(&[(0, 1), (0, 2)], &[true, true])));
        // Subset of already-seen blocks → rejected (unlike S1).
        assert!(!s.select(&pred_with_blocks(&[(0, 1)], &[true])));
        assert!(s.select(&pred_with_blocks(&[(0, 1), (1, 9)], &[true, true])));
    }

    #[test]
    fn s2_rejects_all_negative() {
        let mut s = S2NewBlocks::new();
        assert!(!s.select(&pred_with_blocks(&[(0, 1)], &[false])));
    }

    #[test]
    fn s3_respects_trial_limit() {
        let mut s = S3LimitedTrials::new(2);
        let p = pred_with_blocks(&[(0, 5)], &[true]);
        assert!(s.select(&p));
        assert!(s.select(&p));
        assert!(!s.select(&p), "third trial exceeds the limit");
        // A fresh block resets interest.
        assert!(s.select(&pred_with_blocks(&[(0, 5), (0, 6)], &[true, true])));
    }

    #[test]
    fn bitset_view_decides_like_the_prediction() {
        let p = pred_with_blocks(&[(1, 1), (0, 2), (0, 1), (1, 7)], &[true, false, true, true]);
        let order = BlockOrder::new(&p.graph.verts);
        let bits = order.permute(&p.positive_bits());
        let view = order.positives(&bits);
        let mut want = p.positive_blocks();
        want.sort_unstable();
        assert_eq!(view.positive_blocks(), want, "the same pairs, sorted");
        for mut s in standard_strategies() {
            let mut t = standard_strategies().into_iter().find(|t| t.name() == s.name()).unwrap();
            for _ in 0..4 {
                assert_eq!(s.select(&view), t.select(&p), "{}", s.name());
            }
            assert_eq!(s.snapshot(), t.snapshot());
        }
    }

    /// S1's fingerprint before positives came in (thread, block) order.
    fn vertex_order_fingerprint(p: &PredictedCoverage) -> u64 {
        let mut blocks: Vec<(u8, u32)> =
            p.positive_blocks().iter().map(|(t, b)| (t.0, b.0)).collect();
        blocks.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (t, b) in blocks {
            h ^= (u64::from(t) << 32) | u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    #[test]
    fn fingerprint_of_sorted_positives_is_unchanged() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x51);
        for case in 0..300 {
            // Small block ids, so some (thread, block) pairs repeat.
            let n = rng.gen_range(0..60);
            let blocks: Vec<(u8, u32)> =
                (0..n).map(|_| (rng.gen_range(0..2), rng.gen_range(0..40))).collect();
            let positive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let p = pred_with_blocks(&blocks, &positive);
            let order = BlockOrder::new(&p.graph.verts);
            let bits = order.permute(&p.positive_bits());
            let want = vertex_order_fingerprint(&p);
            assert_eq!(bitmap_fingerprint(&order.positives(&bits)), want, "case {case}");
            assert_eq!(bitmap_fingerprint(&p), want, "case {case}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(S1NewBitmap::new().name(), "S1");
        assert_eq!(S2NewBlocks::new().name(), "S2");
        assert_eq!(S3LimitedTrials::new(3).name(), "S3(3)");
    }

    #[test]
    fn snapshots_roundtrip_and_preserve_decisions() {
        // Drive each strategy, snapshot it, restore into a fresh instance,
        // and check the fresh instance makes the same next decision — the
        // property the supervisor's checkpoint/resume path relies on.
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        let q = pred_with_blocks(&[(0, 1)], &[true]);
        let r = pred_with_blocks(&[(1, 9)], &[true]);

        let mut s1 = S1NewBitmap::new();
        s1.select(&p);
        let mut s1b = S1NewBitmap::new();
        assert!(s1b.restore(&s1.snapshot()));
        assert!(!s1b.select(&p), "restored S1 remembers the seen bitmap");
        assert!(s1b.select(&q));

        let mut s2 = S2NewBlocks::new();
        s2.select(&p);
        let mut s2b = S2NewBlocks::new();
        assert!(s2b.restore(&s2.snapshot()));
        assert!(!s2b.select(&q), "restored S2 remembers seen blocks");
        assert!(s2b.select(&r));

        let mut s3 = S3LimitedTrials::new(2);
        s3.select(&q);
        s3.select(&q);
        let mut s3b = S3LimitedTrials::new(2);
        assert!(s3b.restore(&s3.snapshot()));
        assert!(!s3b.select(&q), "restored S3 remembers exhausted trials");

        // Kind mismatch leaves the strategy untouched.
        let mut s1c = S1NewBitmap::new();
        assert!(!s1c.restore(&s3.snapshot()));
        assert!(s1c.select(&p));

        // Snapshots are deterministic for a given state (sorted encoding).
        assert_eq!(s3.snapshot(), s3b.snapshot());
    }
}
