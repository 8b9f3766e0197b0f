//! The builders of the paper, plus the centralized oracle.
//!
//! Every builder consumes a split-partitioned dataset and a
//! [`ClusterConfig`] and returns a [`BuildResult`]: the k-term histogram
//! plus the exact [`RunMetrics`] of the MapReduce execution that produced
//! it. Exact builders ([`SendV`], [`SendCoef`], [`HWTopk`],
//! [`Centralized`]) all return the *same* histogram for the same dataset;
//! the approximations trade quality for communication and scan cost.
//!
//! The exact builders and the three samplers are written once over
//! [`SplitSource`] and its [`Basis`], so the same jobs, Close hooks, state
//! rounds, fault recovery and cost accounting build a 1-D
//! [`WaveletHistogram`] from a [`Dataset`] and a 2-D
//! [`crate::twod::WaveletHistogram2d`] from a `Dataset2d`. Send-Sketch
//! is 1-D only: the GCS dyadic groups are ranges of 1-D slots.
//! This module also holds what the builders share: the counted scan, the
//! two summing reducers, the two Close hooks, and the cost-model constants.
//! Every builder's reducer is a [`Fold`]: the paper's reducers are
//! aggregates (§3: `w_i = Σ_j w_{i,j}`, `v = Σ_j v_j`), so no key's values
//! are ever held as a list.

mod basic_s;
mod centralized;
mod h_wtopk;
mod improved_s;
mod sample_common;
mod send_coef;
mod send_sketch;
mod send_v;
mod two_level_s;

pub use crate::basis::{Basis, SplitSource};
pub use basic_s::BasicS;
pub use centralized::Centralized;
pub use h_wtopk::HWTopk;
pub use improved_s::ImprovedS;
pub use send_coef::SendCoef;
pub use send_sketch::SendSketch;
pub use send_v::SendV;
pub use two_level_s::TwoLevelS;

use crate::histogram::WaveletHistogram;
use wh_data::Dataset;
use wh_mapreduce::wire::WKey;
use wh_mapreduce::{
    try_run_job, ClusterConfig, EngineError, Fold, JobSpec, MapContext, RadixKey, ReduceContext,
    RunMetrics, WireCodec, WireSize,
};
use wh_wavelet::select::top_k_magnitude;
use wh_wavelet::Domain;

/// Output of one histogram construction.
#[derive(Debug, Clone)]
pub struct BuildResult<H = WaveletHistogram> {
    /// The constructed k-term histogram.
    pub histogram: H,
    /// Exact measurements of the construction.
    pub metrics: RunMetrics,
}

/// A wavelet-histogram construction algorithm over datasets of type `S`.
pub trait HistogramBuilder<S: SplitSource = Dataset> {
    /// Short name used in experiment tables (matches the paper:
    /// "Send-V", "H-WTopk", "TwoLevel-S", …).
    fn name(&self) -> &'static str;

    /// Builds the best-k-term histogram of `dataset` on `cluster`,
    /// surfacing engine failures (a worker lost beyond its retries, a
    /// missing wire codec) as typed errors.
    fn try_build(
        &self,
        dataset: &S,
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<BuildResult<S::Histogram>, EngineError>;

    /// [`HistogramBuilder::try_build`], panicking on engine failure (the
    /// in-process engines cannot fail).
    fn build(&self, dataset: &S, cluster: &ClusterConfig, k: usize) -> BuildResult<S::Histogram> {
        self.try_build(dataset, cluster, k)
            .unwrap_or_else(|e| panic!("{} build failed: {e}", self.name()))
    }
}

/// The first step of every scanning mapper: reads split `j` into its local
/// frequency vector `v_j` — one `(key, count)` per distinct key, strictly
/// ascending — charging the read and one scan + upsert per record to `ctx`.
/// The charge is the cost model's Hadoop mapper (a hash upsert per
/// record), not this process's radix pass: simulated times stay
/// comparable across changes to how the counting is done here.
fn scan_counts<S, K, V>(ds: &S, j: u32, ctx: &mut MapContext<K, V>) -> Vec<(u64, u64)>
where
    S: SplitSource,
    K: WireSize,
    V: WireSize,
{
    let meta = ds.split_meta(j);
    ctx.note_read(meta.records, meta.bytes);
    ctx.charge(meta.records as f64 * (ops::RECORD_SCAN + ops::HASH_UPSERT));
    ds.split_counts(j)
}

/// Ships `count` as §5's 4-byte mapper-side count: one `u32` part, or,
/// past `u32::MAX`, as many parts as it takes. The item-keyed reducers
/// sum a key's parts in `u64`, so a split's count comes back whole.
fn emit_count(mut count: u64, mut emit: impl FnMut(u32)) {
    while count > u64::from(u32::MAX) {
        emit(u32::MAX);
        count -= u64::from(u32::MAX);
    }
    emit(count as u32);
}

/// The reduce-side context of every single-job builder: reducers emit
/// `(key, folded value)` records into it, the Close hook takes them and
/// emits `(slot, coefficient)` records in their place.
type KeyedOutputs = ReduceContext<(u64, f64)>;

/// Runs a single-job builder's job and wraps the `(slot, coefficient)`
/// records its Close hook left as the histogram of `dataset`'s basis.
fn run_build<S, K, V>(
    dataset: &S,
    cluster: &ClusterConfig,
    spec: JobSpec<K, V, (u64, f64)>,
) -> Result<BuildResult<S::Histogram>, EngineError>
where
    S: SplitSource,
    K: Ord + std::hash::Hash + Send + WireSize + 'static,
    V: Send + WireSize + 'static,
{
    let out = try_run_job(cluster, spec)?;
    Ok(BuildResult {
        histogram: S::Histogram::from_slots(dataset.domain(), out.outputs),
        metrics: out.metrics,
    })
}

/// The bare integer a slot-keyed job ships a coefficient slot or sketch
/// counter index as, at its wire width: `u32` — the paper's 4-byte index
/// — or `u64`. Implemented for those two only, and private to the
/// builders. A build picks one from its slot bound
/// ([`slots_fit_u32`]) and runs one generic body with it, so a pair is
/// held and shipped at the width it is accounted at.
trait SlotKey: RadixKey + WireCodec + WireSize + Copy + std::hash::Hash + Send + 'static {
    /// The key carrying `slot`; panics if `slot` does not fit the key.
    fn from_slot(slot: u64) -> Self;
    /// The slot this key carries.
    fn slot(self) -> u64;
}

impl SlotKey for u32 {
    #[inline]
    fn from_slot(slot: u64) -> Self {
        u32::try_from(slot).expect("slot fits the build's 4-byte key")
    }
    #[inline]
    fn slot(self) -> u64 {
        u64::from(self)
    }
}

impl SlotKey for u64 {
    #[inline]
    fn from_slot(slot: u64) -> Self {
        slot
    }
    #[inline]
    fn slot(self) -> u64 {
        self
    }
}

/// Whether every slot below `slot_bound` fits a 4-byte [`SlotKey`]; past
/// 2^32 slots (1-D past `log u = 32`, 2-D above `[2^16]²`) keys take 8.
fn slots_fit_u32(slot_bound: u64) -> bool {
    slot_bound <= 1 << 32
}

/// Reducer of the builders that ship additive `f64` parts (local
/// coefficients, sketch counters): one `(slot, Σ parts)` record per key
/// into the partition's own output, parts folded in split order. The sum
/// starts from the first part, which is what `Iterator::sum`'s −0.0
/// start gives too, so it equals `parts.iter().sum()` bit for bit.
struct SumParts;

impl<K: SlotKey> Fold<K, f64, (u64, f64)> for SumParts {
    type Acc = f64;
    fn first(&self, part: f64) -> f64 {
        part
    }
    fn fold(&self, sum: &mut f64, part: f64) {
        *sum += part;
    }
    fn finish(&self, key: K, sum: f64, count: u64, ctx: &mut KeyedOutputs) {
        ctx.charge(count as f64 * ops::REDUCE_PAIR);
        ctx.emit((key.slot(), sum));
    }
}

/// Reducer of the builders that ship `u32` counts per item key (Send-V,
/// Basic-S, Improved-S): `v̂(x) = Σ parts / p`, the parts summed in
/// `u64` (a count past `u32::MAX` arrives as several, see
/// [`emit_count`]), one record per key. `p` is the first-level sampling
/// rate, 1 for Send-V's full scan (where the division is exact).
struct SumCounts {
    p: f64,
}

impl Fold<WKey, u32, (u64, f64)> for SumCounts {
    type Acc = u64;
    fn first(&self, part: u32) -> u64 {
        u64::from(part)
    }
    fn fold(&self, sum: &mut u64, part: u32) {
        *sum += u64::from(part);
    }
    fn finish(&self, key: WKey, sum: u64, count: u64, ctx: &mut KeyedOutputs) {
        ctx.charge(count as f64 * ops::REDUCE_PAIR);
        ctx.emit((key.id, sum as f64 / self.p));
    }
}

/// Replaces the context's outputs by the top-k of the `n` coefficients
/// `coefs`.
fn emit_top_k(
    ctx: &mut KeyedOutputs,
    coefs: impl IntoIterator<Item = (u64, f64)>,
    n: usize,
    k: usize,
) {
    ctx.charge(n as f64 * ops::HEAP_OFFER);
    for e in top_k_magnitude(coefs, k) {
        ctx.emit((e.slot, e.value));
    }
}

/// The Close hook of the builders whose reducers emit one summed
/// coefficient per slot (Send-Coef): reads the reducer outputs in place,
/// partition by partition, and emits their top-k in their place.
/// Selection is a total order on `(|w|, slot)`, so the partition order is
/// irrelevant.
fn close_with_top_k(ctx: &mut KeyedOutputs, k: usize) {
    let parts = ctx.take_partitions();
    let n = parts.iter().map(Vec::len).sum();
    emit_top_k(ctx, parts.into_iter().flatten(), n, k);
}

/// The Close hook of the builders whose reducers emit one
/// `(key, estimated frequency)` per key (Send-V and the three samplers):
/// takes the stitched reducer outputs, runs the basis's sparse transform
/// over them, and emits the top-k coefficients in their place.
fn close_with_transform<B: Basis>(ctx: &mut KeyedOutputs, domain: Domain, k: usize) {
    let v = ctx.take_outputs();
    ctx.charge(v.len() as f64 * B::updates_per_key(domain) * ops::COEF_UPDATE);
    let coefs = B::transform(domain, v);
    let n = coefs.len();
    emit_top_k(ctx, coefs, n, k);
}

/// Cost-model constants shared by the builders: abstract CPU ops charged
/// per unit of algorithmic work. Centralised here so ablations can reason
/// about them.
pub mod ops {
    /// Reading + parsing one record in a scan.
    pub const RECORD_SCAN: f64 = 1.0;
    /// One hash-map upsert while building a local frequency vector.
    pub const HASH_UPSERT: f64 = 2.0;
    /// One wavelet coefficient update in the sparse transform.
    pub const COEF_UPDATE: f64 = 2.0;
    /// One priority-queue offer.
    pub const HEAP_OFFER: f64 = 3.0;
    /// One sketch row-update (GCS inner loop).
    pub const SKETCH_ROW_UPDATE: f64 = 4.0;
    /// Reducer-side work per received pair.
    pub const REDUCE_PAIR: f64 = 2.0;
    /// Random-access sampling of one record (seek + read + hash).
    pub const SAMPLE_RECORD: f64 = 6.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_data::DatasetBuilder;
    use wh_wavelet::Domain;

    fn tiny_dataset() -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(8).unwrap())
            .records(20_000)
            .splits(8)
            .seed(7)
            .build()
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    #[test]
    fn exact_builders_agree_up_to_float_associativity() {
        let ds = tiny_dataset();
        let k = 12;
        let reference = Centralized::new().build(&ds, &cluster(), k);
        for b in [
            Box::new(SendV::new()) as Box<dyn HistogramBuilder>,
            Box::new(SendCoef::new()),
            Box::new(HWTopk::new()),
        ] {
            let got = b.build(&ds, &cluster(), k);
            assert_eq!(
                got.histogram.len(),
                reference.histogram.len(),
                "{}",
                b.name()
            );
            for (x, y) in got
                .histogram
                .coefficients()
                .iter()
                .zip(reference.histogram.coefficients())
            {
                assert_eq!(x.0, y.0, "{}: slot mismatch", b.name());
                assert!(
                    (x.1 - y.1).abs() < 1e-6 * (1.0 + y.1.abs()),
                    "{}: {x:?} vs {y:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn sum_parts_folds_to_iterator_sum_bit_for_bit() {
        // Every group of one to four signed zeros, and zeros beside
        // values that cancel: the fold, seeded with the first part, must
        // equal `Iterator::sum` (which starts at −0.0) in every bit —
        // through the Fold calls directly and through a job's two routes.
        let signed = [0.0f64, -0.0];
        let mut groups: Vec<Vec<f64>> = Vec::new();
        for len in 1..=4u32 {
            for bits in 0..1usize << len {
                groups.push((0..len).map(|i| signed[bits >> i & 1]).collect());
            }
        }
        groups.extend([
            vec![1.5, -1.5],
            vec![-0.0, 1.5, -1.5],
            vec![-1.5, 1.5, -0.0],
            vec![f64::MIN_POSITIVE, -0.0, -f64::MIN_POSITIVE],
        ]);
        type Sum = dyn Fold<u32, f64, (u64, f64), Acc = f64>;
        let fold: &Sum = &SumParts;
        for g in &groups {
            let mut acc = fold.first(g[0]);
            for &v in &g[1..] {
                fold.fold(&mut acc, v);
            }
            let want: f64 = g.iter().sum();
            assert_eq!(acc.to_bits(), want.to_bits(), "{g:?}");
        }
        for hint in [Some(groups.len() as u64), None] {
            let emitted = groups.clone();
            let task = wh_mapreduce::MapTask::new(0, move |ctx: &mut MapContext<u32, f64>| {
                for (key, g) in emitted.iter().enumerate() {
                    for &v in g {
                        ctx.emit(key as u32, v);
                    }
                }
            });
            let engine = wh_mapreduce::EngineConfig::default();
            let spec = JobSpec::folding("sum", vec![task], SumParts)
                .with_radix_keys()
                .with_engine(hint.map_or(engine, |u| engine.with_key_domain(u)));
            let out = wh_mapreduce::run_job(&cluster(), spec);
            for ((slot, sum), g) in out.outputs.iter().zip(&groups) {
                let want: f64 = g.iter().sum();
                assert_eq!(
                    sum.to_bits(),
                    want.to_bits(),
                    "slot {slot}, {hint:?}: {g:?}"
                );
            }
            assert_eq!(out.outputs.len(), groups.len());
        }
    }

    #[test]
    fn hwtopk_communicates_less_than_send_v() {
        let ds = tiny_dataset();
        let sv = SendV::new().build(&ds, &cluster(), 10);
        let hw = HWTopk::new().build(&ds, &cluster(), 10);
        assert!(
            hw.metrics.total_comm_bytes() < sv.metrics.total_comm_bytes(),
            "H-WTopk {} vs Send-V {}",
            hw.metrics.total_comm_bytes(),
            sv.metrics.total_comm_bytes()
        );
        assert_eq!(hw.metrics.rounds, 3);
        assert_eq!(sv.metrics.rounds, 1);
    }

    #[test]
    fn sampling_builders_scan_less_than_exact() {
        let ds = tiny_dataset();
        let eps = 0.02; // sample ≈ 2500 of 20000
        let sv = SendV::new().build(&ds, &cluster(), 10);
        for b in [
            Box::new(BasicS::new(eps, 1)) as Box<dyn HistogramBuilder>,
            Box::new(ImprovedS::new(eps, 1)),
            Box::new(TwoLevelS::new(eps, 1)),
        ] {
            let got = b.build(&ds, &cluster(), 10);
            assert!(
                got.metrics.records_scanned < sv.metrics.records_scanned / 2,
                "{} scanned {} records",
                b.name(),
                got.metrics.records_scanned
            );
            assert!(!got.histogram.is_empty());
        }
    }

    #[test]
    fn two_level_beats_basic_communication() {
        let ds = tiny_dataset();
        let eps = 0.02;
        let basic = BasicS::new(eps, 1).build(&ds, &cluster(), 10);
        let two = TwoLevelS::new(eps, 1).build(&ds, &cluster(), 10);
        assert!(
            two.metrics.shuffle_bytes <= basic.metrics.shuffle_bytes,
            "TwoLevel {} vs Basic {}",
            two.metrics.shuffle_bytes,
            basic.metrics.shuffle_bytes
        );
    }

    #[test]
    fn send_sketch_produces_reasonable_histogram() {
        let ds = tiny_dataset();
        let got = SendSketch::new(3).build(&ds, &cluster(), 8);
        assert!(!got.histogram.is_empty());
        assert_eq!(got.metrics.rounds, 1);
        // Sketch scans everything.
        assert_eq!(got.metrics.records_scanned, 20_000);
    }
}
