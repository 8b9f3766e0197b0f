//! The node side of the two-sided protocol: one split's share of every
//! round, written once for H-WTopk's map tasks and the in-memory executor.
//!
//! A node holds the non-zero local scores (in the wavelet setting: the
//! local coefficients of one split) it has not sent yet, in ascending
//! item order. Each round hands over what it sends and keeps the rest,
//! sized exactly — Appendix A's state file. Items the node does not hold
//! score 0.

use wh_wavelet::select::{CoefEntry, TopBottomK};

/// One split's protocol state: its unsent non-zero scores.
#[derive(Debug, Clone, Default)]
pub struct InMemoryNode {
    /// `(item, score)`, strictly ascending item, no zero score.
    kept: Vec<(u64, f64)>,
}

/// What a node sends in round 1.
#[derive(Debug, Clone)]
pub struct Round1 {
    /// Its local top-k ∪ bottom-k, ascending item, each item once.
    pub sent: Vec<(u64, f64)>,
    /// The k-th highest entry; `None` when the node held fewer than k.
    pub kth_high: Option<CoefEntry>,
    /// The k-th lowest entry; `None` when the node held fewer than k.
    pub kth_low: Option<CoefEntry>,
}

impl InMemoryNode {
    /// Builds a node from `(item, score)` pairs in any order; duplicate
    /// items accumulate in arrival order and zero sums drop.
    pub fn new(pairs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut kept: Vec<(u64, f64)> = pairs.into_iter().collect();
        kept.sort_by_key(|&(item, _)| item);
        kept.dedup_by(|next, first| {
            let same = next.0 == first.0;
            if same {
                first.1 += next.1;
            }
            same
        });
        kept.retain(|&(_, s)| s != 0.0);
        Self::from_sorted(kept)
    }

    /// Takes a run that is already in node form — strictly ascending
    /// items, no zero score — as a sparse transform returns it.
    pub fn from_sorted(kept: Vec<(u64, f64)>) -> Self {
        debug_assert!(kept.windows(2).all(|w| w[0].0 < w[1].0), "items ascend");
        debug_assert!(kept.iter().all(|&(_, s)| s != 0.0), "no zero score");
        Self { kept }
    }

    /// The scores not sent yet, ascending item.
    pub fn coefficients(&self) -> &[(u64, f64)] {
        &self.kept
    }

    /// The local score of `item` if it was not sent yet, else 0.
    pub fn score(&self, item: u64) -> f64 {
        self.position(item).map_or(0.0, |at| self.kept[at].1)
    }

    /// Number of scores not sent yet.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether everything has been sent (or there was nothing).
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Round 1: the local top-k and bottom-k by signed score, with the
    /// k-th highest and k-th lowest entries marked. `TopBottomK` orders
    /// entries totally by `(score, item)`, so the result does not depend
    /// on the order the node holds them in.
    pub fn round1(&mut self, k: usize) -> Round1 {
        let mut tb = TopBottomK::new(k);
        for &(item, score) in &self.kept {
            tb.offer(item, score);
        }
        let (top, bottom) = (tb.top(), tb.bottom());
        let full = self.kept.len() >= k;
        let kth_high = top.last().copied().filter(|_| full);
        let kth_low = bottom.last().copied().filter(|_| full);
        let mut marked: Vec<u64> = top.iter().chain(&bottom).map(|e| e.slot).collect();
        marked.sort_unstable();
        marked.dedup();
        let at: Vec<usize> = marked
            .iter()
            .map(|&item| self.position(item).expect("held"))
            .collect();
        Round1 {
            sent: self.hand_over(&at),
            kth_high,
            kth_low,
        }
    }

    /// Round 2: every unsent score with `|score| > tau` (`T₁/m`).
    pub fn round2(&mut self, tau: f64) -> Vec<(u64, f64)> {
        let at: Vec<usize> = (0..self.kept.len())
            .filter(|&i| self.kept[i].1.abs() > tau)
            .collect();
        self.hand_over(&at)
    }

    /// Round 3: the unsent scores of the candidates `R` (ascending ids).
    pub fn round3(&mut self, candidates: &[u64]) -> Vec<(u64, f64)> {
        let at: Vec<usize> = candidates
            .iter()
            .filter_map(|&c| self.position(c))
            .collect();
        self.hand_over(&at)
    }

    /// Where `item` sits among the kept pairs.
    fn position(&self, item: u64) -> Option<usize> {
        self.kept.binary_search_by_key(&item, |&(i, _)| i).ok()
    }

    /// Hands over the pairs at the ascending positions `at`. The rest
    /// moves into an exactly sized buffer, so the old one (at first the
    /// transform's, with its growth slack) goes back whole.
    fn hand_over(&mut self, at: &[usize]) -> Vec<(u64, f64)> {
        if at.is_empty() {
            return Vec::new();
        }
        let sent = at.iter().map(|&i| self.kept[i]).collect();
        let mut kept = Vec::with_capacity(self.kept.len() - at.len());
        let mut from = 0;
        for &i in at {
            kept.extend_from_slice(&self.kept[from..i]);
            from = i + 1;
        }
        kept.extend_from_slice(&self.kept[from..]);
        self.kept = kept;
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> InMemoryNode {
        InMemoryNode::new([(1, 5.0), (2, -3.0), (3, 0.5), (4, -8.0), (5, 2.0)])
    }

    fn entry(slot: u64, value: f64) -> Option<CoefEntry> {
        Some(CoefEntry { slot, value })
    }

    #[test]
    fn round1_sends_top_and_bottom_once_with_marks() {
        let mut n = node();
        let r1 = n.round1(2);
        assert_eq!(r1.sent, vec![(1, 5.0), (2, -3.0), (4, -8.0), (5, 2.0)]);
        assert_eq!(r1.kth_high, entry(5, 2.0));
        assert_eq!(r1.kth_low, entry(2, -3.0));
        assert_eq!(n.coefficients(), &[(3, 0.5)]);
    }

    #[test]
    fn k_exceeds_items() {
        let mut n = InMemoryNode::new([(9, 1.0)]);
        let r1 = n.round1(5);
        assert_eq!(r1.sent, vec![(9, 1.0)]);
        assert_eq!((r1.kth_high, r1.kth_low), (None, None));
        assert!(n.is_empty());
    }

    #[test]
    fn round2_sends_above_the_magnitude_threshold() {
        let mut n = node();
        // Strictly above: |−3.0| = τ stays.
        assert_eq!(n.round2(3.0), vec![(1, 5.0), (4, -8.0)]);
        assert_eq!(n.coefficients(), &[(2, -3.0), (3, 0.5), (5, 2.0)]);
        assert!(n.round2(100.0).is_empty());
    }

    #[test]
    fn round3_sends_only_held_candidates() {
        let mut n = node();
        assert_eq!(n.round3(&[0, 2, 3, 9]), vec![(2, -3.0), (3, 0.5)]);
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn absent_items_score_zero() {
        let n = node();
        assert_eq!(n.score(99), 0.0);
        assert_eq!(n.score(1), 5.0);
    }

    #[test]
    fn duplicates_accumulate_and_zeros_drop() {
        let n = InMemoryNode::new([(1, 2.0), (2, 1.0), (1, 3.0), (2, -1.0)]);
        assert_eq!(n.len(), 1);
        assert_eq!(n.score(1), 5.0);
        assert_eq!(n.score(2), 0.0);
    }
}
