//! Property-based tests of the distributed top-k protocols: the two-sided
//! TPUT must return the exact top-k by magnitude for *any* score
//! configuration — positive, negative, cancelling, sparse.

use proptest::prelude::*;
use wavelet_hist::topk::exact::topk_by_magnitude;
use wavelet_hist::topk::two_sided::two_sided_topk;
use wavelet_hist::topk::InMemoryNode;

/// Arbitrary cluster: up to 8 nodes, each holding up to 40 signed scores
/// over a universe of 30 items (small universe forces overlap and
/// cancellation).
fn nodes_strategy() -> impl Strategy<Value = Vec<InMemoryNode>> {
    prop::collection::vec(
        prop::collection::vec(((0u64..30), -100.0f64..100.0), 0..40).prop_map(InMemoryNode::new),
        1..8,
    )
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
                use wavelet_hist::topk::ScoreNode;
                n.score(item)
            }).sum();
            prop_assert!((exact - value).abs() < 1e-9, "item {item}");
        }
    }

    #[test]
    fn communication_never_exceeds_send_all(nodes in nodes_strategy(), k in 1usize..8) {
        use wavelet_hist::topk::ScoreNode;
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
}
