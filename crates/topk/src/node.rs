//! The node side of the two-sided protocol: one split's share of every
//! round, written once for H-WTopk's map tasks and the in-memory executor.
//!
//! A node holds the non-zero local scores (in the wavelet setting: the
//! local coefficients of one split) it has not sent yet — Appendix A's
//! state file. Items the node does not hold score 0.
//!
//! The state is filled once, when the node is built: the ascending items
//! as LEB128 gaps, one `u16` code per item, and a dictionary of the
//! node's distinct scores, exact and in first-seen order, that the codes
//! index. A split's coefficients take few distinct values — Haar details
//! of small integer counts repeat — so an unsent coefficient costs its
//! 2 B code, its gap's bytes (1 B for the adjacent slots a sparse
//! transform mostly yields) and a small share of the dictionary. A round
//! walks gaps and codes forward and overwrites the code of each score it
//! sends with 0, so nothing is copied or reallocated after the build.
//! The dictionary also counts the unsent items holding each score, which
//! lets round 1 offer the heap only the items whose score is at or beyond
//! the k-th highest or the k-th lowest, and round 2 test `|score| > τ`
//! once per distinct score. A node with more distinct scores than codes
//! keeps the rest as plain `f64`s behind an escape code.

use wh_wavelet::select::{CoefEntry, TopBottomK};

/// The code of a sent item; `values[SENT]` is `0.0`.
const SENT: u16 = 0;
/// The code of an item whose score is the next one in `escaped`: the
/// dictionary holds at most `ESCAPE - 1` scores, codes `1..ESCAPE`.
const ESCAPE: u16 = u16::MAX;

/// One split's protocol state: its unsent non-zero scores.
#[derive(Debug, Clone)]
pub struct InMemoryNode {
    /// The items, strictly ascending, as LEB128 gaps: each item minus
    /// the one before it (the first minus 0).
    gaps: Vec<u8>,
    /// One code per item, in item order: its score's index in `values`,
    /// [`SENT`] once sent, or [`ESCAPE`].
    codes: Vec<u16>,
    /// The dictionary: the node's distinct scores, exact and in
    /// first-seen item order, behind `values[SENT] = 0.0`.
    values: Vec<f64>,
    /// How many unsent items hold each entry of `values`.
    counts: Vec<u32>,
    /// The scores of the [`ESCAPE`]-coded items, in item order; `0.0`
    /// marks a sent one, whose code stays [`ESCAPE`].
    escaped: Vec<f64>,
    /// How many items are not sent yet.
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

/// An unsent item's score as a walk meets it: a dictionary code, or
/// the score itself past the dictionary.
#[derive(Clone, Copy)]
enum Score {
    Coded(u16),
    Escaped(f64),
}

/// What a round's walk does with one unsent item.
enum Pick {
    Keep,
    Send,
    Stop,
}

impl Default for InMemoryNode {
    fn default() -> Self {
        Self::from_sorted(Vec::new())
    }
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
        assert!(
            u32::try_from(kept.len()).is_ok(),
            "a node holds < 2^32 items"
        );
        // Every gap takes at least one byte and most take exactly one, so
        // `gaps` grows past this at most a few times and is trimmed after.
        let mut gaps = Vec::with_capacity(kept.len());
        let mut codes = Vec::with_capacity(kept.len());
        let mut dictionary = Dictionary::new(kept.len());
        let mut escaped = Vec::new();
        let mut prev = 0;
        for &(item, score) in &kept {
            push_leb128(&mut gaps, item - prev);
            prev = item;
            let code = dictionary.code(score);
            if code == ESCAPE {
                escaped.push(score);
            }
            codes.push(code);
        }
        gaps.shrink_to_fit();
        escaped.shrink_to_fit();
        let Dictionary {
            mut values,
            mut counts,
            ..
        } = dictionary;
        values.shrink_to_fit();
        counts.shrink_to_fit();
        Self {
            gaps,
            codes,
            values,
            counts,
            escaped,
            unsent: kept.len(),
        }
    }

    /// The scores not sent yet, ascending item.
    pub fn coefficients(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.unsent);
        out.extend(self.unsent().map(|(item, s)| (item, self.value(s))));
        out
    }

    /// The local score of `item` if it was not sent yet, else 0. A
    /// linear walk: the items are stored as gaps.
    pub fn score(&self, item: u64) -> f64 {
        self.unsent()
            .find(|&(i, _)| i >= item)
            .filter(|&(i, _)| i == item)
            .map_or(0.0, |(_, s)| self.value(s))
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
    /// entries totally by `(score, item)`, so the result depends only on
    /// the set offered to it. Only items at or beyond the k-th highest or
    /// the k-th lowest score are offered: any other has k unsent items
    /// strictly above it and k strictly below, so it is in neither side.
    pub fn round1(&mut self, k: usize) -> Round1 {
        let beyond = self.beyond_kth(k);
        let mut tb = TopBottomK::new(k);
        for (item, s) in self.unsent() {
            if let Score::Coded(code) = s {
                if !beyond[usize::from(code)] {
                    continue;
                }
            }
            tb.offer(item, self.value(s));
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
        let above: Vec<bool> = self.values.iter().map(|v| v.abs() > tau).collect();
        self.send(|_, s| {
            let send = match s {
                Score::Coded(code) => above[usize::from(code)],
                Score::Escaped(score) => score.abs() > tau,
            };
            if send {
                Pick::Send
            } else {
                Pick::Keep
            }
        })
    }

    /// Round 3: the unsent scores of the candidates `R` (ascending ids).
    pub fn round3(&mut self, candidates: &[u64]) -> Vec<(u64, f64)> {
        self.take_listed(candidates)
    }

    /// The unsent items, ascending, each with its score's code or, past
    /// the dictionary, its score.
    fn unsent(&self) -> impl Iterator<Item = (u64, Score)> + '_ {
        let mut escaped = self.escaped.iter();
        Items::new(&self.gaps)
            .zip(&self.codes)
            .filter_map(move |(item, &code)| match code {
                SENT => None,
                ESCAPE => {
                    let score = *escaped.next().expect("one score per escape code");
                    (score != 0.0).then_some((item, Score::Escaped(score)))
                }
                _ => Some((item, Score::Coded(code))),
            })
    }

    /// The score an unsent item holds.
    fn value(&self, s: Score) -> f64 {
        match s {
            Score::Coded(code) => self.values[usize::from(code)],
            Score::Escaped(score) => score,
        }
    }

    /// Flags, per dictionary entry, whether its score is at or beyond
    /// the k-th highest or the k-th lowest unsent dictionary score,
    /// counting each entry's unsent items.
    fn beyond_kth(&self, k: usize) -> Vec<bool> {
        let mut order: Vec<usize> = (1..self.values.len())
            .filter(|&code| self.counts[code] > 0)
            .collect();
        order.sort_unstable_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        let mut beyond = vec![false; self.values.len()];
        let low = first_k(order.iter(), &self.counts, k);
        let high = first_k(order.iter().rev(), &self.counts, k);
        for code in low.chain(high) {
            beyond[code] = true;
        }
        beyond
    }

    /// Sends the unsent scores of `items` (strictly ascending), in one
    /// merge walk that stops once `items` is used up.
    fn take_listed(&mut self, items: &[u64]) -> Vec<(u64, f64)> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        let mut wanted = items.iter().copied().peekable();
        self.send(|item, _| {
            while wanted.next_if(|&w| w < item).is_some() {}
            match wanted.peek() {
                None => Pick::Stop,
                Some(&w) if w == item => Pick::Send,
                Some(_) => Pick::Keep,
            }
        })
    }

    /// Walks the unsent items forward, asking `pick` about each, and
    /// sends what it picks: each sent item is marked in place and leaves
    /// its dictionary entry's count.
    fn send(&mut self, mut pick: impl FnMut(u64, Score) -> Pick) -> Vec<(u64, f64)> {
        let mut sent = Vec::new();
        let mut escaped = self.escaped.iter_mut();
        for (item, code) in Items::new(&self.gaps).zip(&mut self.codes) {
            let mut spilled = None;
            let s = match *code {
                SENT => continue,
                ESCAPE => {
                    let score = escaped.next().expect("one score per escape code");
                    if *score == 0.0 {
                        continue;
                    }
                    let held = Score::Escaped(*score);
                    spilled = Some(score);
                    held
                }
                c => Score::Coded(c),
            };
            match pick(item, s) {
                Pick::Keep => {}
                Pick::Stop => break,
                Pick::Send => match spilled {
                    Some(score) => {
                        sent.push((item, *score));
                        *score = 0.0;
                    }
                    None => {
                        let entry = usize::from(*code);
                        sent.push((item, self.values[entry]));
                        self.counts[entry] -= 1;
                        *code = SENT;
                    }
                },
            }
        }
        self.unsent -= sent.len();
        sent
    }
}

/// The codes of `order` up to and including the one whose items bring
/// the running count to `k`.
fn first_k<'a>(
    order: impl Iterator<Item = &'a usize> + 'a,
    counts: &'a [u32],
    k: usize,
) -> impl Iterator<Item = usize> + 'a {
    order.scan(0, move |seen, &code| {
        let short = *seen < k;
        *seen += counts[code] as usize;
        short.then_some(code)
    })
}

/// The node build's score interning: an open-addressing table of codes
/// over the scores' bits, at most a quarter full (a probe mostly lands
/// on its entry at once), dropped after the build.
struct Dictionary {
    values: Vec<f64>,
    counts: Vec<u32>,
    /// Codes into `values`, [`SENT`] for an empty slot; a power of two
    /// long.
    table: Vec<u16>,
    /// `64 - log2(table.len())`: an index is a hash's top bits.
    shift: u32,
}

impl Dictionary {
    /// A dictionary for a node of `len` items: the table starts at the
    /// size that `len` distinct scores would need, up to 8,192 slots
    /// (16 KB), so most nodes never grow it.
    fn new(len: usize) -> Self {
        let slots = len.saturating_mul(4).next_power_of_two().clamp(16, 1 << 13);
        Self {
            values: vec![0.0],
            counts: vec![0],
            table: vec![SENT; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// The code of `score`, interning it if it is new; [`ESCAPE`] once
    /// the dictionary is full.
    fn code(&mut self, score: f64) -> u16 {
        let bits = score.to_bits();
        let mask = self.table.len() - 1;
        let mut at = self.slot(bits);
        loop {
            let code = self.table[at];
            if code == SENT {
                break;
            }
            if self.values[usize::from(code)].to_bits() == bits {
                self.counts[usize::from(code)] += 1;
                return code;
            }
            at = (at + 1) & mask;
        }
        if self.values.len() == usize::from(ESCAPE) {
            return ESCAPE;
        }
        let code = self.values.len() as u16;
        self.values.push(score);
        self.counts.push(1);
        self.table[at] = code;
        if 4 * self.values.len() > self.table.len() {
            self.grow();
        }
        code
    }

    /// Where `bits` hashes to. The sign, the exponent and the top of the
    /// mantissa are folded onto the low bits before the multiply, and the
    /// multiply carries every bit into the top bits kept, so `x`, `-x`
    /// and `2x` — a Haar detail beside its neighbours at the adjacent
    /// levels — land apart.
    fn slot(&self, bits: u64) -> usize {
        ((bits ^ (bits >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Doubles the table and re-inserts every code.
    fn grow(&mut self) {
        let slots = 2 * self.table.len();
        self.table = vec![SENT; slots];
        self.shift -= 1;
        let mask = slots - 1;
        for (code, value) in (1u16..).zip(&self.values[1..]) {
            let mut at = self.slot(value.to_bits());
            while self.table[at] != SENT {
                at = (at + 1) & mask;
            }
            self.table[at] = code;
        }
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

    /// Every byte the node's buffers hold: gaps, codes, the
    /// dictionary's values and counts, and the escaped scores.
    fn held_bytes(n: &InMemoryNode) -> usize {
        use std::mem::size_of;
        n.gaps.capacity()
            + n.codes.capacity() * size_of::<u16>()
            + n.values.capacity() * size_of::<f64>()
            + n.counts.capacity() * size_of::<u32>()
            + n.escaped.capacity() * size_of::<f64>()
    }

    fn capacities(n: &InMemoryNode) -> [usize; 5] {
        [
            n.gaps.capacity(),
            n.codes.capacity(),
            n.values.capacity(),
            n.counts.capacity(),
            n.escaped.capacity(),
        ]
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
    fn holds_at_most_three_and_a_half_bytes_per_coefficient() {
        let coefs = transformed_split();
        let count = coefs.len();
        assert!(count >= 10_000, "{count} coefficients");
        let n = InMemoryNode::from_sorted(coefs);
        // 2 B per code + ≈ 1.2 B per gap + the dictionary: 7 B per 2.
        assert!(2 * held_bytes(&n) <= 7 * count, "{} B", held_bytes(&n));
        assert!(n.escaped.is_empty());
        assert_eq!(n.len(), count);
    }

    #[test]
    fn rounds_never_reallocate() {
        let coefs = transformed_split();
        let candidates: Vec<u64> = coefs.iter().map(|&(i, _)| i).step_by(7).collect();
        let mut n = InMemoryNode::from_sorted(coefs);
        let before = capacities(&n);
        let sent = n.round1(30).sent.len();
        assert_eq!(capacities(&n), before, "round 1");
        let sent = sent + n.round2(2.0).len();
        assert_eq!(capacities(&n), before, "round 2");
        let sent = sent + n.round3(&candidates).len();
        assert_eq!(capacities(&n), before, "round 3");
        assert!(sent > 60, "the rounds sent {sent}");
        assert_eq!(n.len() + sent, n.codes.len());
    }

    #[test]
    fn scores_past_the_dictionary_take_the_escape_code() {
        // 70,000 distinct scores: the last 4,466 do not fit a code.
        let pairs: Vec<(u64, f64)> = (0..70_000u64)
            .map(|i| (3 * i, if i % 2 == 0 { 1.0 } else { -1.0 } * (i + 1) as f64))
            .collect();
        let mut n = InMemoryNode::from_sorted(pairs.clone());
        assert_eq!(n.values.len(), usize::from(ESCAPE));
        assert_eq!(n.escaped.len(), 70_000 - usize::from(ESCAPE - 1));
        assert_eq!(n.coefficients(), pairs);
        assert_eq!(n.score(3 * 69_999), -70_000.0);
        let before = capacities(&n);
        let r1 = n.round1(2);
        // The extremes are all escaped: ±69,999 and ±70,000.
        assert_eq!(
            r1.sent,
            vec![
                (3 * 69_996, 69_997.0),
                (3 * 69_997, -69_998.0),
                (3 * 69_998, 69_999.0),
                (3 * 69_999, -70_000.0),
            ]
        );
        assert_eq!(r1.kth_high, entry(3 * 69_996, 69_997.0));
        assert_eq!(r1.kth_low, entry(3 * 69_997, -69_998.0));
        let r2 = n.round2(69_990.0);
        assert_eq!(r2.len(), 6);
        assert_eq!(n.score(3 * 69_999), 0.0);
        let r3 = n.round3(&[0, 3, 3 * 69_989, 3 * 69_990, 3 * 69_999]);
        assert_eq!(r3, vec![(0, 1.0), (3, -2.0), (3 * 69_989, -69_990.0)]);
        assert_eq!(capacities(&n), before);
        assert_eq!(n.len(), 70_000 - 4 - 6 - 3);
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
