//! The paper's modified TPUT (§3): exact distributed top-k by **magnitude**
//! over scores that may be positive or negative.
//!
//! The coordinator maintains, for every item ever received, a partial sum
//! and the set of nodes whose score is known, and derives per-item bounds:
//!
//! * `τ⁺(x) ≥ r(x) ≥ τ⁻(x)` — the unseen contribution of node `j` is
//!   bounded above by its k-th highest round-1 score and below by its k-th
//!   lowest (clamped against 0, since an item a node never held scores
//!   exactly 0 there — a sharpening the paper leaves implicit but that is
//!   required for exactness when a node's k-th lowest score is positive);
//! * a magnitude lower bound `τ(x) = min(|τ⁺|, |τ⁻|)` when both bounds have
//!   the same sign, else 0; the k-th largest `τ(x)` is the round-1
//!   threshold `T₁`;
//! * after round 2 (every node ships all items with `|score| > T₁/m`),
//!   unseen contributions are within `±T₁/m`, tightening the bounds and
//!   yielding `T₂`; items with `max(|τ⁺|, |τ⁻|) < T₂` cannot be in the
//!   top-k and are pruned;
//! * round 3 fetches exact scores for the surviving candidate set `R`.
//!
//! [`Coordinator`] is a pure state machine over received messages and
//! [`InMemoryNode`] the split side, so the same two types drive both the
//! in-memory executor here ([`two_sided_topk`]) and the three MapReduce
//! rounds of `wh-core`'s H-WTopk builder.

use crate::node::InMemoryNode;
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::select::{sort_by_magnitude, CoefEntry};

/// Coordinator state for one two-sided TPUT execution.
#[derive(Debug)]
pub struct Coordinator {
    m: usize,
    k: usize,
    items: FxHashMap<u64, ItemState>,
    /// Per node: k-th highest score sent in round 1, clamped to ≥ 0
    /// (0 when the node sent fewer than k items).
    kth_high: Vec<f64>,
    /// Per node: k-th lowest, clamped to ≤ 0.
    kth_low: Vec<f64>,
    t1: Option<f64>,
    t2: Option<f64>,
}

#[derive(Debug, Clone)]
struct ItemState {
    partial: f64,
    /// Appendix A's `F_i`: bit `j` is set once node `j`'s score arrived.
    seen: Vec<u64>,
}

impl ItemState {
    /// The nodes whose score arrived, ascending.
    fn seen_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.seen.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |&b| {
                Some(b & (b - 1)).filter(|&rest| rest != 0)
            })
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }

    /// How many of `m` nodes have not sent a score yet.
    fn unseen(&self, m: usize) -> usize {
        m - self
            .seen
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
    }
}

impl Coordinator {
    /// A coordinator for `m` nodes and target size `k`.
    pub fn new(m: usize, k: usize) -> Self {
        Self {
            m,
            k,
            items: FxHashMap::default(),
            kth_high: vec![0.0; m],
            kth_low: vec![0.0; m],
            t1: None,
            t2: None,
        }
    }

    fn record(&mut self, node: usize, item: u64, score: f64) {
        assert!(node < self.m, "node {node} out of {}", self.m);
        let words = self.m.div_ceil(64);
        let state = self.items.entry(item).or_insert_with(|| ItemState {
            partial: 0.0,
            seen: vec![0; words],
        });
        let (word, bit) = (node / 64, 1u64 << (node % 64));
        assert!(
            state.seen[word] & bit == 0,
            "node {node} sent item {item} twice"
        );
        state.partial += score;
        state.seen[word] |= bit;
    }

    /// Absorbs node `j`'s round-1 message: its local top-k ∪ bottom-k,
    /// each item once, plus the marked k-th highest / k-th lowest
    /// values.
    ///
    /// `kth_high`/`kth_low` must be `None` when the node sent *all* its
    /// items (fewer than k available), in which case unseen scores at that
    /// node are exactly 0.
    pub fn absorb_round1(
        &mut self,
        node: usize,
        sent: &[(u64, f64)],
        kth_high: Option<f64>,
        kth_low: Option<f64>,
    ) {
        for &(i, s) in sent {
            self.record(node, i, s);
        }
        // Clamp against 0: an unseen item may simply be absent from the node.
        self.kth_high[node] = kth_high.map_or(0.0, |v| v.max(0.0));
        self.kth_low[node] = kth_low.map_or(0.0, |v| v.min(0.0));
    }

    /// Computes `T₁` from the round-1 state.
    pub fn finish_round1(&mut self) -> f64 {
        let total_high: f64 = self.kth_high.iter().sum();
        let total_low: f64 = self.kth_low.iter().sum();
        let mut taus: Vec<f64> = Vec::with_capacity(self.items.len());
        for state in self.items.values() {
            let mut seen_high = 0.0;
            let mut seen_low = 0.0;
            for j in state.seen_nodes() {
                seen_high += self.kth_high[j];
                seen_low += self.kth_low[j];
            }
            let tau_plus = state.partial + (total_high - seen_high);
            let tau_minus = state.partial + (total_low - seen_low);
            taus.push(magnitude_lower_bound(tau_plus, tau_minus));
        }
        let t1 = kth_largest_or_zero(&mut taus, self.k);
        self.t1 = Some(t1);
        t1
    }

    /// Absorbs node `j`'s round-2 message: all items with
    /// `|score| > T₁/m` not already sent in round 1.
    pub fn absorb_round2(&mut self, node: usize, items: &[(u64, f64)]) {
        assert!(self.t1.is_some(), "round 2 before finish_round1");
        for &(i, s) in items {
            self.record(node, i, s);
        }
    }

    /// Computes `T₂`, prunes the candidate set, and returns the surviving
    /// item ids (`R`), sorted ascending.
    pub fn finish_round2(&mut self) -> (f64, Vec<u64>) {
        let t1 = self.t1.expect("finish_round1 first");
        let slack = t1 / self.m as f64;
        // Per-node residual bound after round 2: the paper bounds an
        // unseen score by T₁/m; the round-1 bounds still apply, so take
        // the tighter of the two per side.
        let total_high: f64 = self.kth_high.iter().map(|v| v.min(slack)).sum();
        let total_low: f64 = self.kth_low.iter().map(|v| v.max(-slack)).sum();
        let mut t2_taus: Vec<f64> = Vec::with_capacity(self.items.len());
        let mut upper: Vec<(u64, f64)> = Vec::with_capacity(self.items.len());
        for (&item, state) in &self.items {
            let mut tau_plus = state.partial;
            let mut tau_minus = state.partial;
            let unseen = state.unseen(self.m);
            if unseen > 0 {
                let mut seen_high = 0.0;
                let mut seen_low = 0.0;
                for j in state.seen_nodes() {
                    seen_high += self.kth_high[j].min(slack);
                    seen_low += self.kth_low[j].max(-slack);
                }
                tau_plus += (unseen as f64 * slack).min(total_high - seen_high);
                tau_minus += (-(unseen as f64) * slack).max(total_low - seen_low);
            }
            upper.push((item, tau_plus.abs().max(tau_minus.abs())));
            t2_taus.push(magnitude_lower_bound(tau_plus, tau_minus));
        }
        let t2 = kth_largest_or_zero(&mut t2_taus, self.k);
        self.t2 = Some(t2);
        let mut survivors: Vec<u64> = upper
            .into_iter()
            .filter(|&(_, bound)| bound >= t2)
            .map(|(item, _)| item)
            .collect();
        survivors.sort_unstable();
        // Drop pruned items so round 3 state stays small.
        self.items
            .retain(|item, _| survivors.binary_search(item).is_ok());
        (t2, survivors)
    }

    /// Absorbs node `j`'s round-3 message: exact scores for candidate
    /// items not previously sent.
    pub fn absorb_round3(&mut self, node: usize, items: &[(u64, f64)]) {
        assert!(self.t2.is_some(), "round 3 before finish_round2");
        for &(i, s) in items {
            assert!(
                self.items.contains_key(&i),
                "round-3 item {i} not in candidate set"
            );
            self.record(node, i, s);
        }
    }

    /// Final result: the k candidates of largest exact |sum|.
    ///
    /// After round 3 the partial sums of surviving candidates are exact:
    /// any node that never sent a score for a candidate holds 0 for it.
    pub fn finish(self) -> Vec<(u64, f64)> {
        let mut entries: Vec<CoefEntry> = self
            .items
            .into_iter()
            .filter(|(_, s)| s.partial != 0.0)
            .map(|(item, s)| CoefEntry {
                slot: item,
                value: s.partial,
            })
            .collect();
        sort_by_magnitude(&mut entries);
        entries.truncate(self.k);
        entries.into_iter().map(|e| (e.slot, e.value)).collect()
    }
}

/// `τ(x)`: lower bound on `|r(x)|` given `τ⁻ ≤ r(x) ≤ τ⁺`.
#[inline]
fn magnitude_lower_bound(tau_plus: f64, tau_minus: f64) -> f64 {
    if tau_plus.signum() != tau_minus.signum() || tau_plus == 0.0 || tau_minus == 0.0 {
        0.0
    } else {
        tau_plus.abs().min(tau_minus.abs())
    }
}

/// k-th largest value, or 0 when fewer than k values exist (no pruning).
fn kth_largest_or_zero(values: &mut [f64], k: usize) -> f64 {
    if values.len() < k || k == 0 {
        return 0.0;
    }
    values.sort_by(|a, b| b.partial_cmp(a).expect("no NaN bounds"));
    values[k - 1].max(0.0)
}

/// Per-round communication of a TPUT-style run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TputComm {
    /// `(item, score)` pairs uploaded to the coordinator per round.
    pub pairs_per_round: Vec<u64>,
    /// Item ids broadcast to nodes (thresholds are O(1) and ignored).
    pub broadcast_items: u64,
}

impl TputComm {
    /// Total uploaded pairs.
    pub fn total_pairs(&self) -> u64 {
        self.pairs_per_round.iter().sum()
    }
}

/// Result of an in-memory two-sided TPUT run.
#[derive(Debug, Clone)]
pub struct TwoSidedResult {
    /// The k items of largest aggregated magnitude (descending |score|).
    pub topk: Vec<(u64, f64)>,
    /// Per-round communication.
    pub comm: TputComm,
    /// `T₁` and `T₂` (diagnostics).
    pub thresholds: (f64, f64),
}

/// Runs the full three-round protocol against in-memory nodes. Rounds
/// consume what a node sends, so this runs on copies and leaves
/// `nodes` as they were.
pub fn two_sided_topk(nodes: &[InMemoryNode], k: usize) -> TwoSidedResult {
    let m = nodes.len();
    let mut comm = TputComm::default();
    if m == 0 || k == 0 {
        return TwoSidedResult {
            topk: Vec::new(),
            comm,
            thresholds: (0.0, 0.0),
        };
    }
    let mut nodes = nodes.to_vec();
    let mut coord = Coordinator::new(m, k);

    // ---- Round 1 ----
    let mut round1 = 0u64;
    for (j, node) in nodes.iter_mut().enumerate() {
        let sent = node.round1(k);
        round1 += sent.sent.len() as u64;
        let (high, low) = (sent.kth_high, sent.kth_low);
        coord.absorb_round1(j, &sent.sent, high.map(|e| e.value), low.map(|e| e.value));
    }
    comm.pairs_per_round.push(round1);
    let t1 = coord.finish_round1();

    // ---- Round 2 ----
    let mut round2 = 0u64;
    let tau = t1 / m as f64;
    for (j, node) in nodes.iter_mut().enumerate() {
        let sent = node.round2(tau);
        round2 += sent.len() as u64;
        coord.absorb_round2(j, &sent);
    }
    comm.pairs_per_round.push(round2);
    let (t2, candidates) = coord.finish_round2();

    // ---- Round 3 ----
    comm.broadcast_items += candidates.len() as u64;
    let mut round3 = 0u64;
    for (j, node) in nodes.iter_mut().enumerate() {
        let sent = node.round3(&candidates);
        round3 += sent.len() as u64;
        coord.absorb_round3(j, &sent);
    }
    comm.pairs_per_round.push(round3);

    TwoSidedResult {
        topk: coord.finish(),
        comm,
        thresholds: (t1, t2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::topk_by_magnitude;
    use crate::node::InMemoryNode;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn make_nodes(seed: u64, m: usize, items: u64, density: u64) -> Vec<InMemoryNode> {
        let mut s = seed;
        (0..m)
            .map(|_| {
                let pairs: Vec<(u64, f64)> = (0..items)
                    .filter_map(|i| {
                        let r = lcg(&mut s);
                        r.is_multiple_of(density)
                            .then_some((i, (r % 2001) as f64 - 1000.0))
                    })
                    .collect();
                InMemoryNode::new(pairs)
            })
            .collect()
    }

    /// Compares by the guarantee that matters: the returned set achieves the
    /// same magnitudes as the reference (ties at the k-th place may swap
    /// equal-magnitude items).
    fn assert_topk_equivalent(got: &[(u64, f64)], want: &[(u64, f64)]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.1.abs() - w.1.abs()).abs() < 1e-9,
                "magnitude mismatch: got {g:?} want {w:?}"
            );
        }
        // Non-tied prefix must match exactly.
        let kth = want.last().map_or(0.0, |w| w.1.abs());
        let want_map: wh_wavelet::hash::FxHashMap<u64, f64> = want.iter().copied().collect();
        for g in got {
            if g.1.abs() > kth + 1e-9 {
                assert_eq!(want_map.get(&g.0), Some(&g.1));
            }
        }
    }

    #[test]
    fn matches_brute_force_randomized() {
        for seed in 1..12u64 {
            let nodes = make_nodes(seed, 6, 60, 3);
            let got = two_sided_topk(&nodes, 8);
            let want = topk_by_magnitude(&nodes, 8);
            assert_topk_equivalent(&got.topk, &want);
        }
    }

    #[test]
    fn negative_heavy_items_found() {
        // An item that is strongly negative on every node must rank first —
        // the case that breaks classic TPUT.
        let mut nodes = make_nodes(99, 5, 40, 2);
        for n in &mut nodes {
            let mut pairs = n.coefficients().to_vec();
            pairs.push((777, -5000.0));
            *n = InMemoryNode::new(pairs);
        }
        let got = two_sided_topk(&nodes, 3);
        assert_eq!(got.topk[0].0, 777);
        assert!((got.topk[0].1 - -25000.0).abs() < 1e-9);
    }

    #[test]
    fn cancellation_excluded() {
        let nodes = vec![
            InMemoryNode::new([(1, 1000.0), (2, 5.0), (3, -2.0)]),
            InMemoryNode::new([(1, -1000.0), (2, 5.0), (4, 1.0)]),
        ];
        let got = two_sided_topk(&nodes, 2);
        let want = topk_by_magnitude(&nodes, 2);
        assert_topk_equivalent(&got.topk, &want);
        assert_eq!(got.topk[0].0, 2);
    }

    #[test]
    fn single_node() {
        let nodes = vec![InMemoryNode::new([(1, -3.0), (2, 7.0), (3, 1.0)])];
        let got = two_sided_topk(&nodes, 2);
        assert_eq!(got.topk, vec![(2, 7.0), (1, -3.0)]);
    }

    #[test]
    fn k_exceeds_distinct_items() {
        let nodes = vec![
            InMemoryNode::new([(1, 1.0)]),
            InMemoryNode::new([(2, -2.0)]),
        ];
        let got = two_sided_topk(&nodes, 10);
        assert_topk_equivalent(&got.topk, &topk_by_magnitude(&nodes, 10));
    }

    #[test]
    fn empty_input() {
        let nodes: Vec<InMemoryNode> = vec![];
        assert!(two_sided_topk(&nodes, 5).topk.is_empty());
        let nodes = vec![InMemoryNode::default()];
        assert!(two_sided_topk(&nodes, 5).topk.is_empty());
    }

    #[test]
    fn communication_beats_send_all_on_skewed_data() {
        // Mimics wavelet coefficients: few large, many near zero.
        let mut s = 7u64;
        let m = 16;
        let nodes: Vec<InMemoryNode> = (0..m)
            .map(|_| {
                let pairs: Vec<(u64, f64)> = (0..2000u64)
                    .map(|i| {
                        let r = lcg(&mut s);
                        let mag = if i < 10 { 1e5 } else { 2.0 };
                        (i, ((r % 1000) as f64 / 1000.0 - 0.5) * mag)
                    })
                    .collect();
                InMemoryNode::new(pairs)
            })
            .collect();
        let got = two_sided_topk(&nodes, 10);
        let send_all: u64 = nodes.iter().map(|n| n.len() as u64).sum();
        assert!(
            got.comm.total_pairs() < send_all / 5,
            "two-sided {} vs send-all {send_all}",
            got.comm.total_pairs()
        );
        assert_topk_equivalent(&got.topk, &topk_by_magnitude(&nodes, 10));
    }

    #[test]
    fn thresholds_are_monotone() {
        let nodes = make_nodes(5, 8, 100, 4);
        let got = two_sided_topk(&nodes, 10);
        let (t1, t2) = got.thresholds;
        assert!(t2 >= t1, "T2 {t2} should refine (≥) T1 {t1}");
    }

    /// Golden runs, recorded on the hash-map node that preceded the
    /// slot-sorted one and never re-recorded: the same nodes must give
    /// the same top-k and thresholds, bit for bit, at the same per-round
    /// traffic.
    #[test]
    fn golden_runs_are_bit_identical() {
        type Golden = (
            u64,
            (usize, u64, u64, usize),
            &'static [(u64, f64)],
            [u64; 3],
            u64,
            (f64, f64),
        );
        let golden: [Golden; 3] = [
            (
                1,
                (6, 60, 3, 8),
                &[
                    (10, 2526.0),
                    (46, 2468.0),
                    (36, 2345.0),
                    (7, -2175.0),
                    (32, 1763.0),
                    (28, 1570.0),
                    (30, 1494.0),
                    (13, -1453.0),
                ],
                [95, 16, 7],
                19,
                (603.0, 1192.5),
            ),
            (
                5,
                (8, 100, 4, 10),
                &[
                    (25, 2814.0),
                    (16, -2456.0),
                    (22, 2098.0),
                    (34, -1951.0),
                    (90, 1563.0),
                    (50, -1485.0),
                    (49, 1431.0),
                    (40, -1427.0),
                    (32, -1425.0),
                    (65, 1369.0),
                ],
                [154, 22, 2],
                21,
                (416.0, 1171.0),
            ),
            (
                7,
                (6, 60, 3, 8),
                &[
                    (17, -2557.0),
                    (52, 2334.0),
                    (41, -1991.0),
                    (11, 1568.0),
                    (14, -1499.0),
                    (1, 1372.0),
                    (57, -1371.0),
                    (15, -1222.0),
                ],
                [96, 17, 1],
                13,
                (262.0, 1104.6666666666667),
            ),
        ];
        let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(s, w)| (s, w.to_bits())).collect()
        };
        for (seed, (m, items, density, k), topk, pairs, broadcast, (t1, t2)) in golden {
            let got = two_sided_topk(&make_nodes(seed, m, items, density), k);
            assert_eq!(bits(&got.topk), bits(topk), "seed {seed}");
            assert_eq!(got.comm.pairs_per_round, pairs, "seed {seed}");
            assert_eq!(got.comm.broadcast_items, broadcast, "seed {seed}");
            assert_eq!(got.thresholds.0.to_bits(), t1.to_bits(), "seed {seed}");
            assert_eq!(got.thresholds.1.to_bits(), t2.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn sparse_nodes_fewer_than_k_items() {
        // Nodes holding fewer than k items send everything; unseen = absent.
        let nodes = vec![
            InMemoryNode::new([(1, 9.0)]),
            InMemoryNode::new([(2, -4.0), (3, 2.0)]),
            InMemoryNode::new([]),
        ];
        let got = two_sided_topk(&nodes, 2);
        assert_topk_equivalent(&got.topk, &topk_by_magnitude(&nodes, 2));
    }
}
