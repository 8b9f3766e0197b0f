//! Property-based tests of the distributed top-k protocols: the two-sided
//! TPUT must return the exact top-k by magnitude for *any* score
//! configuration — positive, negative, cancelling, sparse — and one
//! node's three rounds must hand over each of its coefficients at most
//! once, exactly. The node and coordinator are the ones H-WTopk's map
//! tasks and coordinator run.

use proptest::prelude::*;
use wavelet_hist::topk::exact::topk_by_magnitude;
use wavelet_hist::topk::two_sided::two_sided_topk;
use wavelet_hist::topk::InMemoryNode;
use wavelet_hist::wavelet::select::TopBottomK;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
