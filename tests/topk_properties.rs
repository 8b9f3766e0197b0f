//! Property-based tests of the distributed top-k protocols: the two-sided
//! TPUT must return the exact top-k by magnitude for *any* score
//! configuration — positive, negative, cancelling, sparse — and one
//! node's three rounds must hand over each of its coefficients at most
//! once, exactly. The node and coordinator are the ones H-WTopk's map
//! tasks and coordinator run.

use proptest::prelude::*;
use proptest::TestCaseError;
use wavelet_hist::topk::exact::topk_by_magnitude;
use wavelet_hist::topk::two_sided::two_sided_topk;
use wavelet_hist::topk::InMemoryNode;
use wavelet_hist::wavelet::select::{CoefEntry, TopBottomK};

/// Arbitrary node: up to 40 signed scores over a universe of 30 items
/// (small universe forces duplicates and cancellation).
fn node_strategy() -> impl Strategy<Value = InMemoryNode> {
    prop::collection::vec(((0u64..30), -100.0f64..100.0), 0..40).prop_map(InMemoryNode::new)
}

/// Arbitrary cluster: up to 8 nodes (overlapping items, cancelling sums).
fn nodes_strategy() -> impl Strategy<Value = Vec<InMemoryNode>> {
    prop::collection::vec(node_strategy(), 1..8)
}

/// `(item, score bits)`, ascending item: pairs compared exactly.
fn exact(pairs: &[(u64, f64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    v.sort_unstable();
    v
}

/// A round-1 mark, compared exactly: `(item, score bits)`.
type Mark = (u64, u64);

/// The node's semantics written plainly: the unsent scores as an
/// item-ascending `(item, score)` list, each round a filter over it.
struct ListNode(Vec<(u64, f64)>);

impl ListNode {
    /// Duplicate items accumulate in arrival order; zero sums drop.
    fn new(pairs: &[(u64, f64)]) -> Self {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|&(item, _)| item);
        let mut kept: Vec<(u64, f64)> = Vec::new();
        for (item, score) in sorted {
            match kept.last_mut() {
                Some(last) if last.0 == item => last.1 += score,
                _ => kept.push((item, score)),
            }
        }
        kept.retain(|&(_, s)| s != 0.0);
        Self(kept)
    }

    fn score(&self, item: u64) -> f64 {
        self.0.iter().find(|p| p.0 == item).map_or(0.0, |p| p.1)
    }

    /// Sends every held pair `pick` chooses, ascending item.
    fn take(&mut self, pick: impl Fn(u64, f64) -> bool) -> Vec<(u64, f64)> {
        let (sent, kept) = self.0.iter().partition(|&&(i, s)| pick(i, s));
        self.0 = kept;
        sent
    }

    /// Round 1: every held pair offered to one `TopBottomK`.
    fn round1(&mut self, k: usize) -> (Vec<(u64, f64)>, Option<Mark>, Option<Mark>) {
        let mut tb = TopBottomK::new(k);
        for &(i, s) in &self.0 {
            tb.offer(i, s);
        }
        let (top, bottom) = (tb.top(), tb.bottom());
        let full = self.0.len() >= k;
        let bits = |e: Option<&CoefEntry>| e.filter(|_| full).map(|e| (e.slot, e.value.to_bits()));
        let (high, low) = (bits(top.last()), bits(bottom.last()));
        let marked: Vec<u64> = top.iter().chain(&bottom).map(|e| e.slot).collect();
        (self.take(|i, _| marked.contains(&i)), high, low)
    }
}

/// `(item, score bits)` in the order given.
fn bits(pairs: &[(u64, f64)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Builds an [`InMemoryNode`] and a [`ListNode`] from `pairs` and
/// drives both through the three rounds, comparing every answer:
/// what each round sends, the marks, `len`, `coefficients` and the
/// `score` of every item below `universe`. The items of `early` are
/// taken first, through `round3`, so that round 1 meets a node that has
/// already sent some of its scores.
fn matches_list_node(
    pairs: &[(u64, f64)],
    universe: u64,
    early: &[u64],
    k: usize,
    tau: f64,
    candidates: &[u64],
) -> Result<(), TestCaseError> {
    let mut node = InMemoryNode::new(pairs.iter().copied());
    let mut list = ListNode::new(pairs);
    let same = |node: &InMemoryNode, list: &ListNode, when: &str| {
        prop_assert_eq!(node.len(), list.0.len(), "len {}", when);
        prop_assert_eq!(
            bits(&node.coefficients()),
            bits(&list.0),
            "coefficients {}",
            when
        );
        for item in 0..universe {
            let (got, want) = (node.score(item), list.score(item));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "score({}) {}", item, when);
        }
        Ok(())
    };
    same(&node, &list, "when built")?;

    let r0 = node.round3(early);
    let want = list.take(|i, _| early.binary_search(&i).is_ok());
    prop_assert_eq!(bits(&r0), bits(&want), "early sends");
    same(&node, &list, "after the early sends")?;

    let r1 = node.round1(k);
    let (sent, high, low) = list.round1(k);
    let mark = |e: Option<CoefEntry>| e.map(|e| (e.slot, e.value.to_bits()));
    prop_assert_eq!(bits(&r1.sent), bits(&sent), "round 1 sends");
    prop_assert_eq!(
        (mark(r1.kth_high), mark(r1.kth_low)),
        (high, low),
        "round 1 marks"
    );
    same(&node, &list, "after round 1")?;

    let r2 = node.round2(tau);
    prop_assert_eq!(bits(&r2), bits(&list.take(|_, s| s.abs() > tau)), "round 2");
    same(&node, &list, "after round 2")?;

    let r3 = node.round3(candidates);
    let want = list.take(|i, _| candidates.binary_search(&i).is_ok());
    prop_assert_eq!(bits(&r3), bits(&want), "round 3");
    same(&node, &list, "after round 3")
}

/// Scores with heavy ties: a few bases, each with either sign and
/// shifted by `2^j` (a Haar detail and its neighbours at the adjacent
/// levels), and an arbitrary value one draw in six.
fn tied_score() -> impl Strategy<Value = f64> {
    ((0usize..6), (0u32..2), (-3i32..4), (-100.0f64..100.0)).prop_map(|(base, sign, j, any)| {
        const BASES: [f64; 5] = [1.0, std::f64::consts::FRAC_1_SQRT_2, 3.0, 1.0 / 3.0, 0.1];
        let value = BASES.get(base).map_or(any, |&b| b * 2f64.powi(j));
        if sign == 0 {
            value
        } else {
            -value
        }
    })
}

/// A threshold that often ties a held magnitude exactly.
fn tied_tau() -> impl Strategy<Value = f64> {
    (tied_score(), (0u32..4)).prop_map(|(s, any)| if any == 0 { 0.0 } else { s.abs() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The coded node answers every round exactly as the plain list of
    /// its unsent scores does, bit for bit, on ties, `±x` pairs, `x·2^j`
    /// shifts, thresholds at a held magnitude and `k` past the node.
    #[test]
    fn coded_node_matches_the_list_node(
        pairs in prop::collection::vec(((0u64..120), tied_score()), 0..80),
        early in prop::collection::vec(0u64..120, 0..3),
        k in 0usize..60,
        tau in tied_tau(),
        candidates in prop::collection::vec(0u64..120, 0..60),
    ) {
        let ascending = |mut items: Vec<u64>| {
            items.sort_unstable();
            items.dedup();
            items
        };
        let (early, candidates) = (ascending(early), ascending(candidates));
        matches_list_node(&pairs, 120, &early, k, tau, &candidates)?;
    }

    #[test]
    fn two_sided_matches_brute_force(nodes in nodes_strategy(), k in 1usize..12) {
        let got = two_sided_topk(&nodes, k);
        let want = topk_by_magnitude(&nodes, k);
        prop_assert_eq!(got.topk.len(), want.len());
        // Magnitudes must agree position by position (ties may permute
        // within equal magnitude).
        for (g, w) in got.topk.iter().zip(&want) {
            prop_assert!(
                (g.1.abs() - w.1.abs()).abs() < 1e-9,
                "got {:?} want {:?}", g, w
            );
        }
        // Every returned item's exact aggregate must match its reported
        // value (the protocol may never report a stale partial sum).
        for &(item, value) in &got.topk {
            let exact: f64 = nodes.iter().map(|n| {
                n.score(item)
            }).sum();
            prop_assert!((exact - value).abs() < 1e-9, "item {item}");
        }
    }

    #[test]
    fn communication_never_exceeds_send_all(nodes in nodes_strategy(), k in 1usize..8) {
        let got = two_sided_topk(&nodes, k);
        let send_all: u64 = nodes.iter().map(|n| n.len() as u64).sum();
        // Across three rounds no score is ever re-sent, so uploads are
        // bounded by the total number of held scores.
        prop_assert!(got.comm.total_pairs() <= send_all,
            "pairs {} > send-all {}", got.comm.total_pairs(), send_all);
    }

    #[test]
    fn thresholds_well_formed(nodes in nodes_strategy(), k in 1usize..8) {
        let got = two_sided_topk(&nodes, k);
        let (t1, t2) = got.thresholds;
        prop_assert!(t1 >= 0.0);
        prop_assert!(t2 >= t1 - 1e-12, "T2 {t2} must refine T1 {t1}");
    }

    /// One node driven through its three rounds directly: each round
    /// sends what it should, no item twice, every value exact, and what
    /// the node keeps plus what it sent is always its coefficient set.
    #[test]
    fn node_rounds_hand_over_each_coefficient_once(
        node in node_strategy(),
        k in 1usize..12,
        tau in 0.0f64..150.0,
        candidates in prop::collection::vec(0u64..30, 0..30),
    ) {
        let coefs = node.coefficients().to_vec();
        let mut node = node;
        let mut sent: Vec<(u64, f64)> = Vec::new();
        let whole = |node: &InMemoryNode, sent: &[(u64, f64)]| {
            let mut all = node.coefficients().to_vec();
            all.extend(sent);
            exact(&all)
        };

        let r1 = node.round1(k);
        let mut tb = TopBottomK::new(k);
        for &(i, s) in &coefs {
            tb.offer(i, s);
        }
        let (top, bottom) = (tb.top(), tb.bottom());
        if coefs.len() < k {
            prop_assert_eq!((r1.kth_high, r1.kth_low), (None, None));
        } else {
            prop_assert_eq!(r1.kth_high, top.last().copied());
            prop_assert_eq!(r1.kth_low, bottom.last().copied());
        }
        let mut want: Vec<u64> = top.iter().chain(&bottom).map(|e| e.slot).collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<u64> = r1.sent.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(got, want, "round 1 sends top-k ∪ bottom-k once, ascending");
        sent.extend(&r1.sent);
        prop_assert_eq!(whole(&node, &sent), exact(&coefs), "after round 1");

        let kept = node.coefficients().to_vec();
        let r2 = node.round2(tau);
        let want: Vec<(u64, f64)> = kept.iter().copied().filter(|p| p.1.abs() > tau).collect();
        prop_assert_eq!(exact(&r2), exact(&want), "round 2 sends |score| > tau");
        sent.extend(&r2);
        prop_assert_eq!(whole(&node, &sent), exact(&coefs), "after round 2");

        let mut candidates = candidates;
        candidates.sort_unstable();
        candidates.dedup();
        let kept = node.coefficients().to_vec();
        let r3 = node.round3(&candidates);
        let want: Vec<(u64, f64)> = kept
            .iter()
            .copied()
            .filter(|p| candidates.binary_search(&p.0).is_ok())
            .collect();
        prop_assert_eq!(exact(&r3), exact(&want), "round 3 sends held candidates");
        sent.extend(&r3);
        prop_assert_eq!(whole(&node, &sent), exact(&coefs), "after round 3");

        // No item is sent twice, and every sent pair is one of the
        // node's coefficients with its exact value.
        let mut items: Vec<u64> = sent.iter().map(|&(i, _)| i).collect();
        items.sort_unstable();
        let before = items.len();
        items.dedup();
        prop_assert_eq!(items.len(), before, "an item was sent twice");
        let all = exact(&coefs);
        for pair in exact(&sent) {
            prop_assert!(all.binary_search(&pair).is_ok(), "sent {:?} is not held", pair);
        }
    }
}

/// A node with more distinct scores than its `u16` codes can name
/// (80,000, interleaved with 40,000 tied ones) answers all three rounds
/// as the list node does.
#[test]
fn node_past_the_dictionary_matches_the_list_node() {
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let pairs: Vec<(u64, f64)> = (0..120_000u64)
        .map(|item| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let score = if item % 3 == 2 {
                [1.5, -1.5, 0.75][(seed >> 62) as usize % 3]
            } else {
                ((seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e4
            };
            (item, score)
        })
        .collect();
    let candidates: Vec<u64> = (0..120_000).step_by(7).collect();
    matches_list_node(&pairs, 0, &[], 30, 4_990.0, &candidates).unwrap();
}
