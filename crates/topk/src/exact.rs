//! Brute-force references for distributed top-k — the **oracles** the
//! protocol is tested against: [`topk_by_magnitude`] is what
//! `tests/topk_properties.rs` and `two_sided.rs`'s unit tests hold
//! `two_sided_topk` to. Nothing on the build path calls this module.

use crate::node::ScoreNode;
use wh_wavelet::hash::FxHashMap;
use wh_wavelet::select::{sort_by_magnitude, CoefEntry};

/// Aggregates all nodes' scores exactly.
pub fn aggregate_all<N: ScoreNode>(nodes: &[N]) -> FxHashMap<u64, f64> {
    let mut total = FxHashMap::default();
    for node in nodes {
        for (item, score) in node.items_above_magnitude(f64::NEG_INFINITY) {
            *total.entry(item).or_insert(0.0) += score;
        }
    }
    total.retain(|_, s| *s != 0.0);
    total
}

/// The exact k items of largest aggregated |score| (descending magnitude,
/// ties by ascending item id).
pub fn topk_by_magnitude<N: ScoreNode>(nodes: &[N], k: usize) -> Vec<(u64, f64)> {
    let total = aggregate_all(nodes);
    let mut entries: Vec<CoefEntry> = total
        .into_iter()
        .map(|(slot, value)| CoefEntry { slot, value })
        .collect();
    sort_by_magnitude(&mut entries);
    entries.truncate(k);
    entries.into_iter().map(|e| (e.slot, e.value)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::InMemoryNode;

    #[test]
    fn aggregation_sums_across_nodes() {
        let nodes = vec![
            InMemoryNode::new([(1, 2.0), (2, -1.0)]),
            InMemoryNode::new([(1, 3.0), (3, 4.0)]),
        ];
        let total = aggregate_all(&nodes);
        assert_eq!(total.get(&1), Some(&5.0));
        assert_eq!(total.get(&2), Some(&-1.0));
        assert_eq!(total.get(&3), Some(&4.0));
    }

    #[test]
    fn magnitude_orders_by_absolute_value() {
        let nodes = vec![InMemoryNode::new([(1, -10.0), (2, 5.0), (3, 1.0)])];
        assert_eq!(topk_by_magnitude(&nodes, 2), vec![(1, -10.0), (2, 5.0)]);
    }

    #[test]
    fn cancellation_across_nodes() {
        let nodes = vec![
            InMemoryNode::new([(1, 100.0), (2, 1.0)]),
            InMemoryNode::new([(1, -100.0)]),
        ];
        // Item 1 cancels to zero and must not appear.
        assert_eq!(topk_by_magnitude(&nodes, 2), vec![(2, 1.0)]);
    }
}
