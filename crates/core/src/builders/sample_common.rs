//! Shared machinery of the three sampling builders: the first-level
//! sample (the RandomRecordReader of Appendix B) aggregated into local
//! counts. Basic-S and Improved-S reduce with the builders' shared
//! `SumCounts` fold.

use super::ops;
use crate::basis::SplitSource;
use wh_mapreduce::MapContext;
use wh_sampling::SamplingConfig;
use wh_wavelet::hash::FxHashMap;

/// Draws split `j`'s first-level sample and aggregates it into local
/// counts `s_j`, charging IO/CPU to `ctx`. Returns `(counts, t_j)`.
pub fn first_level_counts<S, K, V>(
    ds: &S,
    cfg: &SamplingConfig,
    j: u32,
    sample_seed: u64,
    ctx: &mut MapContext<K, V>,
) -> (FxHashMap<u64, u64>, u64)
where
    S: SplitSource,
    K: wh_mapreduce::WireSize,
    V: wh_mapreduce::WireSize,
{
    let meta = ds.split_meta(j);
    let t_j = cfg.split_sample_size_seeded(meta.records, sample_seed ^ (u64::from(j) << 40));
    let records = ds.sample_split(j, t_j, sample_seed);
    // Only the sampled records are read from storage.
    ctx.note_read(
        records.len() as u64,
        records.len() as u64 * u64::from(ds.record_bytes()),
    );
    ctx.charge(records.len() as f64 * (ops::SAMPLE_RECORD + ops::HASH_UPSERT));
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    for r in &records {
        *counts.entry(r.key).or_insert(0) += 1;
    }
    (counts, t_j)
}
