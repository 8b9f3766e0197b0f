//! The node side of the two-sided protocol: one split's share of every
//! round, written once for H-WTopk's map tasks and the in-memory executor.
//!
//! A node holds the non-zero local scores (in the wavelet setting: the
//! local coefficients of one split) it has not sent yet — Appendix A's
//! state file. Items the node does not hold score 0.
//!
//! The state is two buffers filled once, when the node is built: the
//! ascending items as LEB128 gaps, and one `f64` score per item. A round
//! walks both forward and overwrites each score it sends with `0.0`,
//! which no held score can be, so nothing is copied or reallocated after
//! the build. An unsent coefficient costs 8 B plus its gap's bytes — 1 B
//! for the adjacent slots a sparse transform mostly yields.

use wh_wavelet::select::{CoefEntry, TopBottomK};

/// One split's protocol state: its unsent non-zero scores.
#[derive(Debug, Clone, Default)]
pub struct InMemoryNode {
    /// The items, strictly ascending, as LEB128 gaps: each item minus
    /// the one before it (the first minus 0).
    gaps: Vec<u8>,
    /// One score per item, in item order; `0.0` marks a sent score.
    scores: Vec<f64>,
    /// How many entries of `scores` are not sent yet.
    unsent: usize,
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
    /// items, no zero score — as a sparse transform returns it. The run
    /// is read once (each pass over its 16 B pairs is bound by memory
    /// bandwidth) into buffers sized exactly, then dropped.
    pub fn from_sorted(kept: Vec<(u64, f64)>) -> Self {
        debug_assert!(kept.windows(2).all(|w| w[0].0 < w[1].0), "items ascend");
        debug_assert!(kept.iter().all(|&(_, s)| s != 0.0), "no zero score");
        // Every gap takes at least one byte and most take exactly one, so
        // `gaps` grows past this at most a few times and is trimmed after.
        let mut gaps = Vec::with_capacity(kept.len());
        let mut scores = Vec::with_capacity(kept.len());
        let mut prev = 0;
        for &(item, score) in &kept {
            push_leb128(&mut gaps, item - prev);
            prev = item;
            scores.push(score);
        }
        gaps.shrink_to_fit();
        Self {
            gaps,
            scores,
            unsent: kept.len(),
        }
    }

    /// The scores not sent yet, ascending item.
    pub fn coefficients(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.unsent);
        out.extend(self.held().filter(|&(_, s)| s != 0.0));
        out
    }

    /// The local score of `item` if it was not sent yet, else 0. A
    /// linear walk: the items are stored as gaps.
    pub fn score(&self, item: u64) -> f64 {
        self.held()
            .find(|&(i, _)| i >= item)
            .filter(|&(i, _)| i == item)
            .map_or(0.0, |(_, s)| s)
    }

    /// Number of scores not sent yet.
    pub fn len(&self) -> usize {
        self.unsent
    }

    /// Whether everything has been sent (or there was nothing).
    pub fn is_empty(&self) -> bool {
        self.unsent == 0
    }

    /// Round 1: the local top-k and bottom-k by signed score, with the
    /// k-th highest and k-th lowest entries marked. `TopBottomK` orders
    /// entries totally by `(score, item)`, so the result does not depend
    /// on the order the node holds them in.
    pub fn round1(&mut self, k: usize) -> Round1 {
        let mut tb = TopBottomK::new(k);
        for (item, score) in self.held().filter(|&(_, s)| s != 0.0) {
            tb.offer(item, score);
        }
        let (top, bottom) = (tb.top(), tb.bottom());
        let full = self.unsent >= k;
        let kth_high = top.last().copied().filter(|_| full);
        let kth_low = bottom.last().copied().filter(|_| full);
        let mut marked: Vec<u64> = top.iter().chain(&bottom).map(|e| e.slot).collect();
        marked.sort_unstable();
        marked.dedup();
        let sent = self.take_listed(&marked);
        debug_assert_eq!(sent.len(), marked.len(), "every marked item is held");
        Round1 {
            sent,
            kth_high,
            kth_low,
        }
    }

    /// Round 2: every unsent score with `|score| > tau` (`T₁/m`).
    pub fn round2(&mut self, tau: f64) -> Vec<(u64, f64)> {
        let mut sent = Vec::new();
        for (item, score) in Items::new(&self.gaps).zip(&mut self.scores) {
            if *score != 0.0 && score.abs() > tau {
                sent.push((item, *score));
                *score = 0.0;
            }
        }
        self.unsent -= sent.len();
        sent
    }

    /// Round 3: the unsent scores of the candidates `R` (ascending ids).
    pub fn round3(&mut self, candidates: &[u64]) -> Vec<(u64, f64)> {
        self.take_listed(candidates)
    }

    /// `(item, score)` for every item the node was built with, ascending;
    /// a sent one scores 0.
    fn held(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        Items::new(&self.gaps).zip(self.scores.iter().copied())
    }

    /// Sends the unsent scores of `items` (strictly ascending), in one
    /// merge walk that stops once `items` is used up.
    fn take_listed(&mut self, items: &[u64]) -> Vec<(u64, f64)> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        let mut sent = Vec::new();
        let mut wanted = items.iter().copied().peekable();
        for (item, score) in Items::new(&self.gaps).zip(&mut self.scores) {
            while wanted.next_if(|&w| w < item).is_some() {}
            let Some(&w) = wanted.peek() else { break };
            if w == item && *score != 0.0 {
                sent.push((item, *score));
                *score = 0.0;
            }
        }
        self.unsent -= sent.len();
        sent
    }
}

/// Appends `v` as LEB128: 7 bits a byte, low first, high bit set on
/// all but the last.
fn push_leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes a node's LEB128 gaps back into its ascending items.
struct Items<'a> {
    bytes: std::slice::Iter<'a, u8>,
    item: u64,
}

impl<'a> Items<'a> {
    fn new(gaps: &'a [u8]) -> Self {
        Self {
            bytes: gaps.iter(),
            item: 0,
        }
    }
}

impl Iterator for Items<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut gap = 0;
        let mut shift = 0;
        loop {
            let byte = *self.bytes.next()?;
            gap |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        self.item += gap;
        Some(self.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_wavelet::sparse::sparse_transform;
    use wh_wavelet::Domain;

    fn node() -> InMemoryNode {
        InMemoryNode::new([(1, 5.0), (2, -3.0), (3, 0.5), (4, -8.0), (5, 2.0)])
    }

    fn entry(slot: u64, value: f64) -> Option<CoefEntry> {
        Some(CoefEntry { slot, value })
    }

    /// One split's local coefficients: a skewed key stream over
    /// `u = 2^16`, through the sparse transform the builder runs.
    fn transformed_split() -> Vec<(u64, f64)> {
        let domain = Domain::new(16).unwrap();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..6_000).map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Squaring a uniform draw skews the keys toward 0.
            let r = (seed >> 40) as f64 / (1u64 << 24) as f64;
            ((r * r * 65_536.0) as u64, 1.0)
        });
        sparse_transform(domain, keys)
    }

    fn held_bytes(n: &InMemoryNode) -> usize {
        n.gaps.capacity() + n.scores.capacity() * std::mem::size_of::<f64>()
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

    #[test]
    fn holds_at_most_nine_and_a_quarter_bytes_per_coefficient() {
        let coefs = transformed_split();
        let count = coefs.len();
        assert!(count >= 10_000, "{count} coefficients");
        let n = InMemoryNode::from_sorted(coefs);
        // 8 B per score + 1.25 B per gap, in whole bytes: 37 per 4.
        assert!(4 * held_bytes(&n) <= 37 * count, "{} B", held_bytes(&n));
        assert_eq!(n.len(), count);
    }

    #[test]
    fn rounds_never_reallocate() {
        let coefs = transformed_split();
        let candidates: Vec<u64> = coefs.iter().map(|&(i, _)| i).step_by(7).collect();
        let mut n = InMemoryNode::from_sorted(coefs);
        let capacities = |n: &InMemoryNode| (n.gaps.capacity(), n.scores.capacity());
        let before = capacities(&n);
        let sent = n.round1(30).sent.len();
        assert_eq!(capacities(&n), before, "round 1");
        let sent = sent + n.round2(2.0).len();
        assert_eq!(capacities(&n), before, "round 2");
        let sent = sent + n.round3(&candidates).len();
        assert_eq!(capacities(&n), before, "round 3");
        assert!(sent > 60, "the rounds sent {sent}");
        assert_eq!(n.len() + sent, n.scores.len());
    }

    #[test]
    fn items_past_u32_answer_every_round() {
        let big = 1u64 << 32;
        let top = (1u64 << Domain::MAX_LOG_U) - 1;
        let mut n = InMemoryNode::new([
            (3, 0.25),
            (big - 1, -4.0),
            (big, 6.0),
            (big + 1, 1.5),
            (big + 300, -1.0),
            (top - 1, 0.5),
            (top, -7.0),
        ]);
        assert_eq!(n.score(big + 300), -1.0);
        assert_eq!(n.score(big + 2), 0.0);
        let r1 = n.round1(1);
        assert_eq!(r1.sent, vec![(big, 6.0), (top, -7.0)]);
        assert_eq!(
            (r1.kth_high, r1.kth_low),
            (entry(big, 6.0), entry(top, -7.0))
        );
        assert_eq!(n.round2(1.0), vec![(big - 1, -4.0), (big + 1, 1.5)]);
        assert_eq!(
            n.round3(&[3, big, big + 300, top - 1, top]),
            vec![(3, 0.25), (big + 300, -1.0), (top - 1, 0.5)]
        );
        assert!(n.is_empty());
    }
}
