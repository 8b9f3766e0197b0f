//! H-WTopk: the paper's three-round exact algorithm (§3, Appendix A).
//!
//! The three rounds are one job whose map task per split runs once per
//! round and keeps its state in its own closure.
//!
//! Round 1 — each mapper scans its split, computes the local wavelet
//! coefficients with the sparse `O(|v_j| log u)` transform, and emits its
//! local top-k and bottom-k, marking the k-th highest and lowest the way
//! Appendix A does: their messages carry split id `j + m` and `j + 2m` in
//! place of `j` (`j + 3m` when one coefficient is both). All other local
//! coefficients stay in the mapper's state (the HDFS state
//! file of Appendix A — free of network cost), each as one LEB128 slot
//! gap (mostly 1 B) and a 2-byte code into the split's dictionary of
//! its distinct coefficient values. The reducer/coordinator forms
//! partial sums `ŵ_i`, seen-bitvectors `F_i`, and threshold `T₁`.
//!
//! Round 2 — `T₁/m` is pushed through the Job Configuration (the round's
//! 8-byte broadcast); mappers read their state (no input scan!) and emit
//! remaining coefficients with `|w_{i,j}| > T₁/m`. The coordinator
//! refines bounds, derives `T₂`, and prunes to a candidate set `R`.
//!
//! Round 3 — `R` rides the Distributed Cache (sorted ids, 4 bytes each,
//! 8 when the basis has slots past 2^32); mappers emit local scores of
//! candidates never sent before. The coordinator finalises exact sums and
//! picks the top-k by magnitude.
//!
//! Every message is keyed by its coefficient slot as a bare integer of
//! the same width as a round-3 id, a `u32` or, past 2^32 slots, a `u64`,
//! and carries `(split code, coefficient)` as a `(u32, f64)`: 16 B a
//! message (20 B with `u64` slots), held, encoded and accounted alike.
//!
//! Both sides of the protocol live in `wh-topk` and are shared with its
//! in-memory executor `two_sided_topk`: each map task holds a
//! `wh_topk::InMemoryNode`, which answers the three rounds and marks
//! what it sends in place, and the coordinator is `wh_topk::Coordinator`.
//! So the brute-force tests of `two_sided_topk` check the code this
//! builder runs; this file only moves the messages.

use super::{ops, scan_counts, slots_fit_u32, BuildResult, HistogramBuilder, SlotKey};
use crate::basis::{Basis, SplitSource};
use wh_mapreduce::{
    ClusterConfig, EngineConfig, EngineError, Fold, JobSpec, MapTask, ReduceContext, RunMetrics,
};
use wh_topk::node::Round1;
use wh_topk::{Coordinator, InMemoryNode};
use wh_wavelet::select::CoefEntry;

/// Round-1/2/3 message payload: `(split code, coefficient)`, a 4-byte
/// split id and an 8-byte double.
type Payload = (u32, f64);

/// The marks a split code carries: the k-th highest, the k-th lowest.
const FLAG_KTH_HIGH: u32 = 1;
const FLAG_KTH_LOW: u32 = 2;

/// The most splits a job can have: a split code `j + flags·m`, with
/// `j < m` and `flags ≤ 3`, stays below `4·m`, which must fit a `u32`.
const MAX_SPLITS: u32 = 1 << 30;

/// Appendix A's split code: split `j` of `m`, sent as `j + flags·m`.
fn split_code(j: u32, flags: u32, m: u32) -> u32 {
    j + flags * m
}

/// The `(split, flags)` a split code of `m` splits carries.
fn decode_split(code: u32, m: u32) -> (u32, u32) {
    (code % m, code / m)
}

/// The mark flags a round-1 message for `slot` carries.
fn marks(sent: &Round1, slot: u64) -> u32 {
    let flag = |mark: Option<CoefEntry>, flag| match mark {
        Some(e) if e.slot == slot => flag,
        _ => 0,
    };
    flag(sent.kth_high, FLAG_KTH_HIGH) | flag(sent.kth_low, FLAG_KTH_LOW)
}

/// One message as the coordinator receives it:
/// `(slot, split code, coefficient)`.
type Message = (u64, u32, f64);

/// The reducer of all three rounds: hands every message of a coefficient
/// on to the coordinator, in `(split, arrival)` order. A key keeps its
/// few messages (at most one per split) until it is finished, so the
/// coordinator receives them grouped by slot in slot order.
struct ForwardMessages;

impl<K: SlotKey> Fold<K, Payload, Message> for ForwardMessages {
    type Acc = Vec<Payload>;
    fn first(&self, message: Payload) -> Vec<Payload> {
        vec![message]
    }
    fn fold(&self, messages: &mut Vec<Payload>, message: Payload) {
        messages.push(message);
    }
    fn finish(&self, key: K, messages: Vec<Payload>, count: u64, ctx: &mut ReduceContext<Message>) {
        ctx.charge(count as f64 * ops::REDUCE_PAIR);
        for (code, w) in messages {
            ctx.emit((key.slot(), code, w));
        }
    }
}

/// Groups one round's messages per node (split id), keeping their order.
fn group_per_node(messages: &[Message], m: u32) -> Vec<Vec<(u64, f64)>> {
    let mut per_node = vec![Vec::new(); m as usize];
    for &(slot, code, w) in messages {
        per_node[decode_split(code, m).0 as usize].push((slot, w));
    }
    per_node
}

/// The H-WTopk exact builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct HWTopk {
    engine: EngineConfig,
}

impl HWTopk {
    /// Creates the builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the execution-engine knobs of the underlying job.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The three rounds, with messages keyed and round-3 ids written as
    /// `K`.
    fn build_keyed<S: SplitSource, K: SlotKey>(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        let domain = dataset.domain();
        let m = dataset.num_splits();
        assert!(m <= MAX_SPLITS, "H-WTopk's split code needs 4·m ≤ 2^32");
        let slot_bound = S::Histogram::slot_bound(domain);
        let id_width = std::mem::size_of::<K>();
        let mut metrics = RunMetrics::default();
        let mut coordinator = Coordinator::new(m as usize, k);

        // One task per split serves all three rounds. Its coefficients
        // stay in its own closure between rounds, each sent one marked in
        // place — the HDFS state file of Appendix A, free of network
        // cost: under the multi-process engine they never leave the
        // worker that computed them.
        let map_tasks: Vec<MapTask<K, Payload>> = (0..m)
            .map(|j| {
                let ds = dataset.clone();
                let mut node = InMemoryNode::default();
                MapTask::new(j, move |ctx| match ctx.round() {
                    // Round 1 scans, transforms, and sends the local top-k
                    // and bottom-k with the k-th highest and lowest marked.
                    0 => {
                        let local = scan_counts(&ds, j, ctx);
                        let coefs = S::Histogram::transform(
                            domain,
                            local.iter().map(|&(x, c)| (x, c as f64)),
                        );
                        let updates = S::Histogram::updates_per_key(domain);
                        ctx.charge(local.len() as f64 * updates * ops::COEF_UPDATE);
                        ctx.charge(coefs.len() as f64 * 2.0 * ops::HEAP_OFFER);
                        node = InMemoryNode::from_sorted(coefs);
                        let sent = node.round1(k);
                        for &(slot, w) in &sent.sent {
                            let code = split_code(j, marks(&sent, slot), m);
                            ctx.emit(K::from_slot(slot), (code, w));
                        }
                    }
                    // Round 2 reads its state (no input scan!) and sends
                    // what clears T₁/m.
                    1 => {
                        let tau = ctx.broadcast().try_into().map(f64::from_le_bytes);
                        let tau = tau.expect("round 2 broadcasts T1/m as one f64");
                        ctx.charge(node.len() as f64);
                        for (slot, w) in node.round2(tau) {
                            ctx.emit(K::from_slot(slot), (j, w));
                        }
                    }
                    // Round 3 sends its scores of the candidates in R and
                    // drops its state: the protocol is over.
                    _ => {
                        ctx.charge(node.len() as f64);
                        let candidates = decode_ids(ctx.broadcast(), id_width)
                            .expect("round 3 broadcasts R as whole slot ids");
                        for (slot, w) in std::mem::take(&mut node).round3(&candidates) {
                            ctx.emit(K::from_slot(slot), (j, w));
                        }
                    }
                })
            })
            .collect();
        // All three rounds key their messages by wavelet coefficient
        // slot, and rounds 2–3 only re-send slots already seen in round 1
        // — so the basis's slot bound is the tight exclusive bound for
        // every round (the dense-reduce tables size themselves to each
        // partition's actual, typically much narrower, key range).
        let spec = JobSpec::folding("h-wtopk", map_tasks, ForwardMessages)
            .with_radix_keys()
            .with_wire_codec()
            .with_engine(self.engine.with_key_domain(slot_bound));
        let mut job = spec.start(cluster)?;

        // ---------- Round 1 ----------
        let out = job.round(&[])?;
        metrics.absorb(&out.metrics);
        // Coordinator: group round-1 messages per node.
        let per_node = group_per_node(&out.outputs, m);
        let mut kth_high: Vec<Option<f64>> = vec![None; m as usize];
        let mut kth_low: Vec<Option<f64>> = vec![None; m as usize];
        for &(_slot, code, w) in &out.outputs {
            let (j, flags) = decode_split(code, m);
            let j = j as usize;
            if flags & FLAG_KTH_HIGH != 0 {
                kth_high[j] = Some(w);
            }
            if flags & FLAG_KTH_LOW != 0 {
                kth_low[j] = Some(w);
            }
        }
        for (j, pairs) in per_node.iter().enumerate() {
            coordinator.absorb_round1(j, pairs, kth_high[j], kth_low[j]);
        }
        let t1 = coordinator.finish_round1();

        // ---------- Round 2: T₁/m rides the Job Configuration ----------
        let out = job.round(&(t1 / f64::from(m)).to_le_bytes())?;
        metrics.absorb(&out.metrics);
        for (j, pairs) in group_per_node(&out.outputs, m).iter().enumerate() {
            coordinator.absorb_round2(j, pairs);
        }
        let (_t2, candidates) = coordinator.finish_round2();

        // ---------- Round 3: R rides the Distributed Cache (ascending) ----------
        let mut ids = Vec::with_capacity(candidates.len() * id_width);
        for c in &candidates {
            ids.extend_from_slice(&c.to_le_bytes()[..id_width]);
        }
        let out = job.round(&ids)?;
        metrics.absorb(&out.metrics);
        for (j, pairs) in group_per_node(&out.outputs, m).iter().enumerate() {
            coordinator.absorb_round3(j, pairs);
        }

        let histogram = S::Histogram::from_slots(domain, coordinator.finish());
        Ok(BuildResult { histogram, metrics })
    }
}

impl<S: SplitSource> HistogramBuilder<S> for HWTopk {
    fn name(&self) -> &'static str {
        "H-WTopk"
    }

    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError> {
        // Slot keys and round-3 ids take 4 bytes, or 8 when the basis has
        // slots past u32.
        if slots_fit_u32(S::Histogram::slot_bound(dataset.domain())) {
            self.build_keyed::<S, u32>(dataset, cluster, k)
        } else {
            self.build_keyed::<S, u64>(dataset, cluster, k)
        }
    }
}

/// The candidate ids of a round-3 broadcast, `width` little-endian bytes
/// each; `None` when the length is not a whole number of ids.
fn decode_ids(bytes: &[u8], width: usize) -> Option<Vec<u64>> {
    let ids = bytes.chunks_exact(width);
    ids.remainder().is_empty().then(|| {
        ids.map(|id| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(id);
            u64::from_le_bytes(le)
        })
        .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::Centralized;
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    fn build_both(log_u: u32, n: u64, m: u32, k: usize) -> (BuildResult, BuildResult) {
        let ds = DatasetBuilder::new()
            .domain(Domain::new(log_u).unwrap())
            .records(n)
            .splits(m)
            .seed(0xbeef)
            .build();
        let cluster = ClusterConfig::paper_cluster();
        (
            HWTopk::new().build(&ds, &cluster, k),
            Centralized::new().build(&ds, &cluster, k),
        )
    }

    #[test]
    fn exact_on_various_shapes() {
        for (log_u, n, m, k) in [
            (6u32, 3_000u64, 4u32, 5usize),
            (10, 8_000, 7, 12),
            (8, 2_000, 16, 3),
        ] {
            let (hw, oracle) = build_both(log_u, n, m, k);
            assert_eq!(
                hw.histogram.coefficients().len(),
                oracle.histogram.coefficients().len(),
                "({log_u},{n},{m},{k})"
            );
            for (a, b) in hw
                .histogram
                .coefficients()
                .iter()
                .zip(oracle.histogram.coefficients())
            {
                assert_eq!(a.0, b.0, "slot mismatch ({log_u},{n},{m},{k})");
                assert!((a.1 - b.1).abs() < 1e-6, "value mismatch at slot {}", a.0);
            }
        }
    }

    #[test]
    fn split_codes_round_trip_every_mark() {
        for m in [1, 64, MAX_SPLITS] {
            for j in [0, m / 2, m - 1] {
                for flags in 0..=3 {
                    let code = split_code(j, flags, m);
                    assert_eq!(decode_split(code, m), (j, flags), "j {j} of {m}");
                }
            }
        }
        assert_eq!(split_code(MAX_SPLITS - 1, 3, MAX_SPLITS), u32::MAX);
    }

    #[test]
    fn candidate_ids_parse_whole_or_not_at_all() {
        let ids = [7u64, 1 << 20];
        for width in [4, 8] {
            let bytes: Vec<u8> = ids
                .iter()
                .flat_map(|id| id.to_le_bytes()[..width].to_vec())
                .collect();
            assert_eq!(decode_ids(&bytes, width), Some(ids.to_vec()));
            assert_eq!(decode_ids(&bytes[..bytes.len() - 1], width), None);
        }
        assert_eq!(decode_ids(&[], 4), Some(Vec::new()));
    }

    #[test]
    fn three_rounds_with_broadcast() {
        let (hw, _) = build_both(8, 4_000, 6, 8);
        assert_eq!(hw.metrics.rounds, 3);
        // Round 2 broadcasts T1/m (8 bytes) and round 3 the candidate ids.
        assert!(hw.metrics.broadcast_bytes >= 8);
    }

    fn assert_same_histogram(
        a: &crate::histogram::WaveletHistogram,
        b: &crate::histogram::WaveletHistogram,
    ) {
        // Distributed sums differ from the centralized transform by float
        // associativity only.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.0, y.0, "slot mismatch");
            assert!(
                (x.1 - y.1).abs() < 1e-6 * (1.0 + y.1.abs()),
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn k_one() {
        let (hw, oracle) = build_both(7, 2_000, 3, 1);
        assert_same_histogram(&hw.histogram, &oracle.histogram);
    }

    #[test]
    fn more_splits_than_distinct_coefficients() {
        // Tiny domain spread over many splits exercises nodes with fewer
        // than k local coefficients.
        let (hw, oracle) = build_both(3, 1_000, 10, 6);
        assert_same_histogram(&hw.histogram, &oracle.histogram);
    }
}
