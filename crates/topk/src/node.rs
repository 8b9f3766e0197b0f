//! Node-side abstraction for distributed top-k.
//!
//! A node holds a local score map (in the wavelet setting: the non-zero
//! local coefficients of one split). Items the node does not hold score 0.

use wh_wavelet::hash::FxHashMap;
use wh_wavelet::select::TopBottomK;

/// The per-node operations the TPUT-family drivers need.
pub trait ScoreNode {
    /// The `k` highest-scored items, sorted by descending score
    /// (ties: ascending item id). Shorter when the node holds fewer items.
    fn top_k(&self, k: usize) -> Vec<(u64, f64)>;

    /// The `k` lowest-scored items, sorted ascending (ties: ascending id).
    fn bottom_k(&self, k: usize) -> Vec<(u64, f64)>;

    /// All held items with `|score| > threshold`.
    fn items_above_magnitude(&self, threshold: f64) -> Vec<(u64, f64)>;

    /// The exact local score of `item` (0 when not held).
    fn score(&self, item: u64) -> f64;

    /// Number of held items.
    fn len(&self) -> usize;

    /// Whether the node holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A node backed by a hash map of local scores.
#[derive(Debug, Clone, Default)]
pub struct InMemoryNode {
    scores: FxHashMap<u64, f64>,
}

impl InMemoryNode {
    /// Builds a node from `(item, score)` pairs; duplicate items accumulate.
    pub fn new(pairs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut scores = FxHashMap::default();
        for (i, s) in pairs {
            *scores.entry(i).or_insert(0.0) += s;
        }
        scores.retain(|_, s| *s != 0.0);
        Self { scores }
    }

    /// Read-only view of the underlying map.
    pub fn scores(&self) -> &FxHashMap<u64, f64> {
        &self.scores
    }
}

impl ScoreNode for InMemoryNode {
    fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let mut tb = TopBottomK::new(k);
        for (&i, &s) in &self.scores {
            tb.offer(i, s);
        }
        tb.top().into_iter().map(|e| (e.slot, e.value)).collect()
    }

    fn bottom_k(&self, k: usize) -> Vec<(u64, f64)> {
        let mut tb = TopBottomK::new(k);
        for (&i, &s) in &self.scores {
            tb.offer(i, s);
        }
        tb.bottom().into_iter().map(|e| (e.slot, e.value)).collect()
    }

    fn items_above_magnitude(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .scores
            .iter()
            .filter(|(_, s)| s.abs() > threshold)
            .map(|(&i, &s)| (i, s))
            .collect();
        v.sort_by_key(|&(i, _)| i);
        v
    }

    fn score(&self, item: u64) -> f64 {
        self.scores.get(&item).copied().unwrap_or(0.0)
    }

    fn len(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> InMemoryNode {
        InMemoryNode::new([(1, 5.0), (2, -3.0), (3, 0.5), (4, -8.0), (5, 2.0)])
    }

    #[test]
    fn top_and_bottom() {
        let n = node();
        assert_eq!(n.top_k(2), vec![(1, 5.0), (5, 2.0)]);
        assert_eq!(n.bottom_k(2), vec![(4, -8.0), (2, -3.0)]);
    }

    #[test]
    fn k_exceeds_items() {
        let n = InMemoryNode::new([(9, 1.0)]);
        assert_eq!(n.top_k(5), vec![(9, 1.0)]);
        assert_eq!(n.bottom_k(5), vec![(9, 1.0)]);
    }

    #[test]
    fn magnitude_filter() {
        let n = node();
        assert_eq!(
            n.items_above_magnitude(2.5),
            vec![(1, 5.0), (2, -3.0), (4, -8.0)]
        );
        assert!(n.items_above_magnitude(100.0).is_empty());
    }

    #[test]
    fn absent_items_score_zero() {
        let n = node();
        assert_eq!(n.score(99), 0.0);
        assert_eq!(n.score(1), 5.0);
    }

    #[test]
    fn duplicates_accumulate_and_zeros_drop() {
        let n = InMemoryNode::new([(1, 2.0), (1, 3.0), (2, 1.0), (2, -1.0)]);
        assert_eq!(n.len(), 1);
        assert_eq!(n.score(1), 5.0);
        assert_eq!(n.score(2), 0.0);
    }
}
