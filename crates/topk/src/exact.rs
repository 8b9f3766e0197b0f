//! Brute-force references for distributed top-k — the **oracles** the
//! protocol is tested against: [`topk_by_magnitude`] is what
//! `tests/topk_properties.rs` and `two_sided.rs`'s unit tests hold
//! `two_sided_topk` to. Nothing on the build path calls this module.

use crate::node::InMemoryNode;
use wh_wavelet::select::top_k_magnitude;

/// Aggregates all nodes' scores exactly, as one node: per item, the sum
/// over nodes in node order, zero sums dropped.
pub fn aggregate_all(nodes: &[InMemoryNode]) -> InMemoryNode {
    InMemoryNode::new(nodes.iter().flat_map(InMemoryNode::coefficients))
}

/// The exact k items of largest aggregated |score| (descending magnitude,
/// ties by ascending item id).
pub fn topk_by_magnitude(nodes: &[InMemoryNode], k: usize) -> Vec<(u64, f64)> {
    let total = aggregate_all(nodes);
    top_k_magnitude(total.coefficients(), k)
        .into_iter()
        .map(|e| (e.slot, e.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_sums_across_nodes() {
        let nodes = vec![
            InMemoryNode::new([(1, 2.0), (2, -1.0)]),
            InMemoryNode::new([(1, 3.0), (3, 4.0)]),
        ];
        let total = aggregate_all(&nodes);
        assert_eq!(total.coefficients(), &[(1, 5.0), (2, -1.0), (3, 4.0)]);
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
