//! The serving tier: dataset-addressed, key-range-sharded histogram
//! snapshots behind the epoch swap, answered through per-thread handles.
//!
//! ```text
//!                       ServeTier (one per process)
//!        publish/remove ──▶ writer lock ──▶ EpochSwap<Snapshot>
//!                                               │ one Acquire load per batch
//!              ┌────────────────────────────────┼──────────────────┐
//!        ServeHandle (thread 0)          ServeHandle (thread 1)    …
//!        EpochReader + BatchScratch      EpochReader + BatchScratch
//!              │                                │
//!        route by dataset id ──▶ ShardedHistogram ──▶ one walk per
//!        (binary search)          (Arc, immutable)     key-range window
//! ```
//!
//! Every query runs through `wh-query`'s `try_*` methods, the only
//! probes it has: a malformed or out-of-domain query from traffic the
//! process does not control comes back as a [`ServeError`] value — a
//! serving thread never panics on query input. Answers are
//! bit-identical to querying the published [`CompiledHistogram`]
//! directly, whatever the shard count and however many generations have
//! swapped in under the reader.
//!
//! **Degradation (PR 8).** Publishing is where upstream failures arrive:
//! a rebuild pipeline (the MapReduce path) can fail or panic. The tier
//! absorbs both without dropping reads. [`ServeTier::try_publish`] runs
//! a fallible rebuild *outside* the writer lock and, on `Err`, leaves
//! the last good snapshot serving while counting the failure against the
//! dataset; [`QUARANTINE_AFTER`] consecutive failures mark it
//! [`DatasetHealth::Quarantined`] in [`ServeTier::dataset_health`] /
//! [`ServeTier::degraded_datasets`] so an operator (or a scheduler) can
//! see which datasets are stale — readers never consult the failure
//! state and keep answering from the snapshot. A rebuild that *panics*
//! mid-publish is also safe: `parking_lot` mutexes do not poison, the
//! epoch swap only ever stores whole snapshots, and the entry is built
//! before the writer lock is taken, so the previous generation keeps
//! serving and later publishes proceed normally.
//!
//! **Freshness (PR 9).** `try_publish` is also the landing point of the
//! incremental-maintenance loop: instead of a from-scratch rebuild, the
//! closure re-snapshots a delta-merged histogram
//! (`wh_core::incremental::MaintainedHistogram` → compile) in `O(d·log u)`
//! per arriving segment, and [`ServeTier::dataset_records`] exposes the
//! record count the dataset was last published with so the refresh can
//! republish at `records + delta`. The epoch-swap, health, and
//! degradation machinery is unchanged — a delta publish is just a
//! publish that got cheap.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use wh_query::{
    BatchScratch, BatchScratch2D, CompiledHistogram, CompiledHistogram2D, QueryError,
    ShardedHistogram,
};

use crate::epoch::{EpochReader, EpochSwap};

/// Identifies one published histogram inside the tier.
pub type DatasetId = u32;

/// Why the tier could not answer: the dataset is unknown to the current
/// snapshot, or the query itself is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// No histogram is published under this id in the current snapshot.
    UnknownDataset(DatasetId),
    /// The query was malformed; see [`QueryError`].
    Query(QueryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ServeError::UnknownDataset(id) => {
                write!(f, "dataset {id} is not published in the serving snapshot")
            }
            ServeError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::UnknownDataset(_) => None,
            ServeError::Query(e) => Some(e),
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

/// Consecutive [`ServeTier::try_publish`] failures after which a dataset
/// is reported [`DatasetHealth::Quarantined`] rather than merely
/// degraded. Quarantine is a *reporting* state: reads keep being served
/// from the last good snapshot, and one successful publish heals it.
pub const QUARANTINE_AFTER: u32 = 3;

/// Rebuild health of one published dataset, as seen by
/// [`ServeTier::dataset_health`]. Health tracks the *publish* path only;
/// a degraded or quarantined dataset still answers queries from its last
/// good snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetHealth {
    /// The last publish attempt (if any) succeeded.
    Healthy,
    /// This many consecutive rebuilds failed (fewer than
    /// [`QUARANTINE_AFTER`]); the dataset serves its last good snapshot.
    Degraded(u32),
    /// At least [`QUARANTINE_AFTER`] consecutive rebuilds failed; the
    /// snapshot being served is considered stale until a rebuild lands.
    Quarantined(u32),
}

impl DatasetHealth {
    fn from_failures(failures: u32) -> Self {
        match failures {
            0 => DatasetHealth::Healthy,
            n if n < QUARANTINE_AFTER => DatasetHealth::Degraded(n),
            n => DatasetHealth::Quarantined(n),
        }
    }
}

/// One published histogram — `H` is the sharded 1-D form or the 2-D
/// form — plus the record count its selectivities are relative to. 1-D
/// and 2-D datasets live in separate id namespaces and ride the same
/// epoch swap: publishing either kind bumps the one shared generation.
/// Entries are shared by `Arc` across snapshot generations, so
/// republishing dataset A never copies dataset B's segments.
#[derive(Debug)]
struct DatasetEntry<H> {
    id: DatasetId,
    records: u64,
    hist: H,
}

/// A snapshot's datasets of one kind, ascending by id.
type Entries<H> = Vec<Arc<DatasetEntry<H>>>;

/// Inserts `entry`, replacing the entry published under the same id.
fn upsert<H>(entries: &mut Entries<H>, entry: DatasetEntry<H>) {
    match entries.binary_search_by_key(&entry.id, |e| e.id) {
        Ok(i) => entries[i] = Arc::new(entry),
        Err(i) => entries.insert(i, Arc::new(entry)),
    }
}

/// Removes the entry published under `id`; `false` when there is none.
fn withdraw<H>(entries: &mut Entries<H>, id: DatasetId) -> bool {
    match entries.binary_search_by_key(&id, |e| e.id) {
        Ok(i) => {
            entries.remove(i);
            true
        }
        Err(_) => false,
    }
}

fn lookup<H>(entries: &Entries<H>, id: DatasetId) -> Result<&DatasetEntry<H>, ServeError> {
    entries
        .binary_search_by_key(&id, |e| e.id)
        .map(|i| &*entries[i])
        .map_err(|_| ServeError::UnknownDataset(id))
}

/// One complete generation of the tier: every published dataset,
/// ascending by id. Immutable once built — the epoch swap publishes
/// whole snapshots, so a reader holds either all of generation `g` or
/// all of `g + 1`, never a mix.
#[derive(Debug)]
pub struct Snapshot {
    generation: u64,
    entries: Entries<ShardedHistogram>,
    entries2d: Entries<CompiledHistogram2D>,
}

impl Snapshot {
    /// The generation counter this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of 1-D datasets published in this snapshot.
    pub fn num_datasets(&self) -> usize {
        self.entries.len()
    }

    /// Number of 2-D datasets published in this snapshot.
    pub fn num_datasets_2d(&self) -> usize {
        self.entries2d.len()
    }
}

/// The process-wide serving tier. Histograms are published by dataset
/// id, sliced into key-range shards, and served lock-free through
/// [`ServeHandle`]s; rebuilt histograms swap in atomically as whole
/// [`Snapshot`] generations.
#[derive(Debug)]
pub struct ServeTier {
    shards: usize,
    swap: EpochSwap<Snapshot>,
    /// Serializes publishers: each builds its snapshot from the previous
    /// one, so concurrent publishes must not interleave read-modify-write.
    writer: Mutex<()>,
    /// Consecutive `try_publish` failures per dataset. Never consulted on
    /// the read path — health is operator-facing reporting, not a gate.
    failures: Mutex<HashMap<DatasetId, u32>>,
}

impl ServeTier {
    /// An empty tier (generation 0) whose published histograms are
    /// sliced into `shards_per_histogram` key-range shards — typically
    /// the serving core count. Requests beyond a histogram's segment
    /// count clamp; `0` is treated as 1.
    pub fn new(shards_per_histogram: usize) -> Self {
        Self {
            shards: shards_per_histogram,
            swap: EpochSwap::new(Arc::new(Snapshot {
                generation: 0,
                entries: Vec::new(),
                entries2d: Vec::new(),
            })),
            writer: Mutex::new(()),
            failures: Mutex::new(HashMap::new()),
        }
    }

    /// The shard count histograms are sliced into at publish time.
    pub fn shards_per_histogram(&self) -> usize {
        self.shards
    }

    /// The one snapshot-swap routine: under the writer lock, copy the
    /// current generation's entry lists, let `edit` change them, and
    /// publish the result as the next generation. When `edit` reports no
    /// change nothing is published and the generation does not advance.
    fn swap_in(&self, edit: impl FnOnce(&mut Snapshot) -> bool) -> Option<u64> {
        let _writer = self.writer.lock();
        let (_, current) = self.swap.load();
        let mut next = Snapshot {
            generation: current.generation + 1,
            entries: current.entries.clone(),
            entries2d: current.entries2d.clone(),
        };
        edit(&mut next).then(|| {
            let generation = next.generation;
            self.swap.store(Arc::new(next));
            generation
        })
    }

    /// Publishes (or republishes) `compiled` under `id`, with
    /// selectivities relative to `records`. Returns the new generation.
    /// Readers mid-batch keep the previous generation until their next
    /// batch; they never block and never observe a half-published tier.
    pub fn publish(&self, id: DatasetId, compiled: &CompiledHistogram, records: u64) -> u64 {
        let hist = compiled.shard(self.shards);
        let entry = DatasetEntry { id, records, hist };
        let generation = self.swap_in(|next| {
            upsert(&mut next.entries, entry);
            true
        });
        // A landed publish heals the dataset whatever its failure streak.
        self.failures.lock().remove(&id);
        generation.expect("an upsert always edits the snapshot")
    }

    /// Publishes (or republishes) a compiled **2-D** histogram under
    /// `id` (its own namespace, separate from the 1-D ids), with
    /// selectivities relative to `records`. The snapshot swaps in
    /// atomically exactly as for [`ServeTier::publish`]: readers
    /// mid-batch keep the previous generation and never observe a
    /// half-published tier.
    pub fn publish2d(&self, id: DatasetId, compiled: &CompiledHistogram2D, records: u64) -> u64 {
        let hist = compiled.clone();
        let entry = DatasetEntry { id, records, hist };
        let generation = self.swap_in(|next| {
            upsert(&mut next.entries2d, entry);
            true
        });
        generation.expect("an upsert always edits the snapshot")
    }

    /// Withdraws 2-D dataset `id` from serving. Returns the new
    /// generation, or `None` (and publishes nothing) when absent.
    pub fn remove2d(&self, id: DatasetId) -> Option<u64> {
        self.swap_in(|next| withdraw(&mut next.entries2d, id))
    }

    /// Publishes the result of a **fallible** rebuild of `id`. The
    /// `rebuild` closure runs outside the writer lock (a slow or hung
    /// rebuild never blocks other publishers); on `Ok` the histogram is
    /// published exactly like [`ServeTier::publish`] and the dataset's
    /// failure streak resets. On `Err` **nothing changes for readers** —
    /// the last good snapshot keeps serving, the generation does not
    /// advance — and the dataset's consecutive-failure count rises,
    /// surfacing through [`ServeTier::dataset_health`] until a rebuild
    /// lands. The error is returned to the caller untouched.
    pub fn try_publish<E>(
        &self,
        id: DatasetId,
        records: u64,
        rebuild: impl FnOnce() -> Result<CompiledHistogram, E>,
    ) -> Result<u64, E> {
        match rebuild() {
            Ok(compiled) => Ok(self.publish(id, &compiled, records)),
            Err(e) => {
                *self.failures.lock().entry(id).or_insert(0) += 1;
                Err(e)
            }
        }
    }

    /// The rebuild health of `id`: healthy, degraded, or quarantined
    /// after [`QUARANTINE_AFTER`] consecutive failed rebuilds. Unknown
    /// and never-failed datasets are healthy. Reads are *not* gated on
    /// health — this is for operators and rebuild schedulers.
    pub fn dataset_health(&self, id: DatasetId) -> DatasetHealth {
        DatasetHealth::from_failures(self.failures.lock().get(&id).copied().unwrap_or(0))
    }

    /// Every dataset with a non-zero failure streak, ascending by id —
    /// the tier's degraded-mode report. Empty means every publish path
    /// is healthy.
    pub fn degraded_datasets(&self) -> Vec<(DatasetId, DatasetHealth)> {
        let mut out: Vec<(DatasetId, DatasetHealth)> = self
            .failures
            .lock()
            .iter()
            .map(|(&id, &n)| (id, DatasetHealth::from_failures(n)))
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Withdraws `id` from serving. Returns the new generation, or
    /// `None` (and publishes nothing) when `id` was not present.
    /// Removing a dataset also forgets its failure streak — including
    /// the streak of an id whose first build never landed.
    pub fn remove(&self, id: DatasetId) -> Option<u64> {
        let generation = self.swap_in(|next| withdraw(&mut next.entries, id));
        self.failures.lock().remove(&id);
        generation
    }

    /// The current generation counter.
    pub fn generation(&self) -> u64 {
        self.swap.load().1.generation
    }

    /// The record count `id` was last published with, or `None` when the
    /// dataset is absent from the current snapshot. The incremental-
    /// maintenance loop reads this before a delta publish so the
    /// refreshed snapshot lands with `records + newly absorbed records`,
    /// keeping served selectivities relative to *all* data.
    pub fn dataset_records(&self, id: DatasetId) -> Option<u64> {
        lookup(&self.swap.load().1.entries, id)
            .ok()
            .map(|e| e.records)
    }

    /// A serving handle for one reader thread: its own snapshot cache
    /// and batch scratch. Handles borrow the tier, so a thread-per-core
    /// server hands one to each worker inside `std::thread::scope`.
    pub fn handle(&self) -> ServeHandle<'_> {
        ServeHandle {
            tier: self,
            reader: self.swap.reader(),
            scratch: BatchScratch::new(),
            scratch2d: BatchScratch2D::new(),
        }
    }
}

/// One reader thread's view of a [`ServeTier`]: an [`EpochReader`]
/// caching the current [`Snapshot`] and a recycled [`BatchScratch`].
/// Every method is fallible; a bad query returns a [`ServeError`] and
/// leaves the output buffer untouched, so one malformed request in a
/// stream cannot take the serving thread down or corrupt its neighbors'
/// answers.
#[derive(Debug)]
pub struct ServeHandle<'t> {
    tier: &'t ServeTier,
    reader: EpochReader<Snapshot>,
    scratch: BatchScratch,
    scratch2d: BatchScratch2D,
}

impl ServeHandle<'_> {
    /// The snapshot this handle currently serves from, refreshed first
    /// if the tier republished (one atomic load; lock-free when nothing
    /// changed).
    pub fn snapshot(&mut self) -> &Snapshot {
        self.reader.get(&self.tier.swap)
    }

    /// Answers a batch of range sums from `id` into `out`,
    /// bit-identical to the unsharded compiled histogram.
    pub fn try_range_sum_batch_into(
        &mut self,
        id: DatasetId,
        queries: &[(u64, u64)],
        out: &mut [f64],
    ) -> Result<(), ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries, id)?;
        entry
            .hist
            .try_range_sum_batch_into(queries, &mut self.scratch, out)?;
        Ok(())
    }

    /// Answers a batch of selectivities from `id` into `out`, relative
    /// to the record count published with the dataset.
    pub fn try_selectivity_batch_into(
        &mut self,
        id: DatasetId,
        queries: &[(u64, u64)],
        out: &mut [f64],
    ) -> Result<(), ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries, id)?;
        entry
            .hist
            .try_selectivity_batch_into(queries, entry.records, &mut self.scratch, out)?;
        Ok(())
    }

    /// Answers a batch of point estimates from `id` into `out`.
    pub fn try_point_estimate_batch_into(
        &mut self,
        id: DatasetId,
        keys: &[u64],
        out: &mut [f64],
    ) -> Result<(), ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries, id)?;
        entry
            .hist
            .try_point_estimate_batch_into(keys, &mut self.scratch, out)?;
        Ok(())
    }

    /// One range sum from `id`.
    pub fn try_range_sum(&mut self, id: DatasetId, lo: u64, hi: u64) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        Ok(lookup(&snap.entries, id)?.hist.try_range_sum(lo, hi)?)
    }

    /// One selectivity from `id`, relative to its published record count.
    pub fn try_selectivity(&mut self, id: DatasetId, lo: u64, hi: u64) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries, id)?;
        Ok(entry.hist.try_selectivity(lo, hi, entry.records)?)
    }

    /// One point estimate from `id`.
    pub fn try_point_estimate(&mut self, id: DatasetId, x: u64) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        Ok(lookup(&snap.entries, id)?.hist.try_point_estimate(x)?)
    }

    /// Answers a batch of 2-D rectangle sums from `id` into `out`,
    /// bit-identical to the published [`CompiledHistogram2D`]. Each
    /// query is `(xlo, xhi, ylo, yhi)`, inclusive on both axes.
    pub fn try_rectangle_sum_batch_into(
        &mut self,
        id: DatasetId,
        queries: &[(u64, u64, u64, u64)],
        out: &mut [f64],
    ) -> Result<(), ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries2d, id)?;
        entry
            .hist
            .try_rectangle_sum_batch_into(queries, &mut self.scratch2d, out)?;
        Ok(())
    }

    /// Answers a batch of 2-D rectangle selectivities from `id` into
    /// `out`, relative to the record count published with the dataset.
    pub fn try_rectangle_selectivity_batch_into(
        &mut self,
        id: DatasetId,
        queries: &[(u64, u64, u64, u64)],
        out: &mut [f64],
    ) -> Result<(), ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries2d, id)?;
        entry
            .hist
            .try_selectivity_batch_into(queries, entry.records, &mut self.scratch2d, out)?;
        Ok(())
    }

    /// One 2-D rectangle sum from `id`.
    pub fn try_rectangle_sum(
        &mut self,
        id: DatasetId,
        query: (u64, u64, u64, u64),
    ) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        Ok(lookup(&snap.entries2d, id)?.hist.try_rectangle_sum(query)?)
    }

    /// One 2-D rectangle selectivity from `id`, relative to its
    /// published record count.
    pub fn try_rectangle_selectivity(
        &mut self,
        id: DatasetId,
        query: (u64, u64, u64, u64),
    ) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        let entry = lookup(&snap.entries2d, id)?;
        Ok(entry.hist.try_selectivity(query, entry.records)?)
    }

    /// One 2-D cell estimate from `id`.
    pub fn try_point_estimate2d(
        &mut self,
        id: DatasetId,
        x: u64,
        y: u64,
    ) -> Result<f64, ServeError> {
        let snap = self.reader.get(&self.tier.swap);
        Ok(lookup(&snap.entries2d, id)?.hist.try_point_estimate(x, y)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_core::WaveletHistogram;
    use wh_wavelet::haar::forward;
    use wh_wavelet::select::top_k_magnitude;
    use wh_wavelet::Domain;

    fn compiled_from_signal(v: &[f64], k: usize) -> CompiledHistogram {
        let domain = Domain::covering(v.len() as u64).unwrap();
        let w = forward(v);
        let top = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
        CompiledHistogram::compile(&WaveletHistogram::new(
            domain,
            top.iter().map(|e| (e.slot, e.value)),
        ))
    }

    #[test]
    fn publish_remove_and_generations() {
        let tier = ServeTier::new(4);
        assert_eq!(tier.generation(), 0);
        let a = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        let b = compiled_from_signal(&[9.0, 9.0], 2);
        assert_eq!(tier.publish(7, &a, 10), 1);
        assert_eq!(tier.publish(3, &b, 18), 2);
        assert_eq!(tier.publish(7, &a, 10), 3); // republish same id
        let mut h = tier.handle();
        assert_eq!(h.snapshot().num_datasets(), 2);
        assert_eq!(h.snapshot().generation(), 3);
        assert_eq!(tier.remove(7), Some(4));
        assert_eq!(tier.remove(7), None);
        assert_eq!(tier.generation(), 4);
        assert_eq!(h.snapshot().num_datasets(), 1);
    }

    #[test]
    fn handle_answers_bit_identical_to_the_compiled_form() {
        let v: Vec<f64> = (0..128).map(|i| ((i * 13) % 29) as f64).collect();
        let compiled = compiled_from_signal(&v, 15);
        let n = 5_000u64;
        let tier = ServeTier::new(3);
        tier.publish(42, &compiled, n);
        let mut h = tier.handle();

        let queries: Vec<(u64, u64)> = (0..100u64).map(|i| (i, i + 27)).collect();
        let mut got = vec![0.0; queries.len()];
        h.try_selectivity_batch_into(42, &queries, &mut got)
            .unwrap();
        let mut want = vec![0.0; queries.len()];
        compiled
            .try_selectivity_batch_into(&queries, n, &mut BatchScratch::new(), &mut want)
            .unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            h.try_range_sum(42, 5, 99).unwrap().to_bits(),
            compiled.try_range_sum(5, 99).unwrap().to_bits()
        );
        assert_eq!(
            h.try_point_estimate(42, 77).unwrap().to_bits(),
            compiled.try_point_estimate(77).unwrap().to_bits()
        );
    }

    #[test]
    fn bad_queries_are_errors_not_panics() {
        let tier = ServeTier::new(2);
        let compiled = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        tier.publish(1, &compiled, 0); // zero records: selectivity must error
        let mut h = tier.handle();
        let sentinel = [-1.0; 2];
        let mut out = sentinel;

        assert_eq!(h.try_range_sum(9, 0, 1), Err(ServeError::UnknownDataset(9)));
        assert_eq!(
            h.try_range_sum(1, 3, 2),
            Err(ServeError::Query(QueryError::EmptyRange { lo: 3, hi: 2 }))
        );
        assert_eq!(
            h.try_selectivity(1, 0, 1),
            Err(ServeError::Query(QueryError::ZeroRecords))
        );
        let err = h
            .try_range_sum_batch_into(1, &[(0, 1), (0, 77)], &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(QueryError::OutOfDomain { key: 77, .. })
        ));
        assert_eq!(out, sentinel, "failed batch must not touch the output");
        // The handle keeps serving after every error.
        assert!(h.try_range_sum(1, 0, 3).is_ok());
    }

    #[test]
    fn republish_swaps_answers_atomically_for_existing_handles() {
        let tier = ServeTier::new(2);
        let old = compiled_from_signal(&[4.0, 0.0, 0.0, 0.0], 4);
        let new = compiled_from_signal(&[0.0, 0.0, 0.0, 4.0], 4);
        tier.publish(5, &old, 4);
        let mut h = tier.handle();
        assert_eq!(
            h.try_range_sum(5, 0, 0).unwrap().to_bits(),
            old.try_range_sum(0, 0).unwrap().to_bits()
        );
        tier.publish(5, &new, 4);
        assert_eq!(
            h.try_range_sum(5, 0, 0).unwrap().to_bits(),
            new.try_range_sum(0, 0).unwrap().to_bits()
        );
    }

    #[test]
    fn twod_publish_swap_and_remove_share_the_generation() {
        use wh_core::twod::WaveletHistogram2d;
        use wh_query::CompiledHistogram2D;
        let domain = Domain::new(3).unwrap();
        // Average-only histograms (packed slot 0 is the 2-D average).
        let old = CompiledHistogram2D::compile(&WaveletHistogram2d::new(domain, [(0, 64.0 / 8.0)]));
        let new = CompiledHistogram2D::compile(&WaveletHistogram2d::new(domain, [(0, 32.0 / 8.0)]));
        let tier = ServeTier::new(2);
        let oned = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        assert_eq!(tier.publish(5, &oned, 10), 1);
        assert_eq!(tier.publish2d(5, &old, 64), 2); // same id, own namespace
        let mut h = tier.handle();
        assert_eq!(h.snapshot().num_datasets(), 1);
        assert_eq!(h.snapshot().num_datasets_2d(), 1);

        // Bit-identical to direct serving, single and batched.
        let queries = [(0, 7, 0, 7), (1, 3, 2, 5), (0, 0, 0, 0)];
        let mut got = [0.0; 3];
        h.try_rectangle_sum_batch_into(5, &queries, &mut got)
            .unwrap();
        for (&q, &g) in queries.iter().zip(&got) {
            assert_eq!(g.to_bits(), old.try_rectangle_sum(q).unwrap().to_bits());
        }
        assert_eq!(
            h.try_rectangle_selectivity(5, (0, 7, 0, 7))
                .unwrap()
                .to_bits(),
            old.try_selectivity((0, 7, 0, 7), 64).unwrap().to_bits()
        );
        assert_eq!(
            h.try_point_estimate2d(5, 3, 3).unwrap().to_bits(),
            old.try_point_estimate(3, 3).unwrap().to_bits()
        );

        // Republish swaps answers atomically for the existing handle,
        // and leaves the 1-D entry serving untouched.
        tier.publish2d(5, &new, 64);
        assert_eq!(
            h.try_rectangle_sum(5, (0, 7, 0, 7)).unwrap().to_bits(),
            new.try_rectangle_sum((0, 7, 0, 7)).unwrap().to_bits()
        );
        assert_eq!(
            h.try_range_sum(5, 0, 3).unwrap().to_bits(),
            oned.try_range_sum(0, 3).unwrap().to_bits()
        );

        // Unknown ids and malformed queries are errors, not panics.
        assert_eq!(
            h.try_rectangle_sum(6, (0, 1, 0, 1)),
            Err(ServeError::UnknownDataset(6))
        );
        assert_eq!(
            h.try_rectangle_sum(5, (3, 2, 0, 1)),
            Err(ServeError::Query(QueryError::EmptyRange { lo: 3, hi: 2 }))
        );

        assert_eq!(tier.remove2d(5), Some(4));
        assert_eq!(tier.remove2d(5), None);
        assert_eq!(h.snapshot().num_datasets_2d(), 0);
        assert_eq!(h.snapshot().num_datasets(), 1);
    }

    #[test]
    fn error_messages_name_the_failure() {
        assert_eq!(
            ServeError::UnknownDataset(12).to_string(),
            "dataset 12 is not published in the serving snapshot"
        );
        assert_eq!(
            ServeError::Query(QueryError::ZeroRecords).to_string(),
            "selectivity needs a positive record count"
        );
    }

    #[test]
    fn tier_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<ServeTier>();
        assert_sync_send::<Snapshot>();
    }

    #[test]
    fn failed_rebuilds_degrade_then_quarantine_then_heal() {
        let tier = ServeTier::new(2);
        let good = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        tier.publish(5, &good, 4);
        assert_eq!(tier.dataset_health(5), DatasetHealth::Healthy);
        assert!(tier.degraded_datasets().is_empty());

        for n in 1..=QUARANTINE_AFTER + 1 {
            let err = tier
                .try_publish(5, 4, || Err::<CompiledHistogram, _>("pipeline down"))
                .unwrap_err();
            assert_eq!(err, "pipeline down");
            let want = if n < QUARANTINE_AFTER {
                DatasetHealth::Degraded(n)
            } else {
                DatasetHealth::Quarantined(n)
            };
            assert_eq!(tier.dataset_health(5), want);
            // The snapshot never moved: readers still get generation 1.
            assert_eq!(tier.generation(), 1);
        }
        assert_eq!(tier.degraded_datasets().len(), 1);

        // A landed rebuild heals the streak and advances the generation.
        let gen = tier
            .try_publish(5, 4, || Ok::<_, &str>(compiled_from_signal(&[5.0; 4], 4)))
            .unwrap();
        assert_eq!(gen, 2);
        assert_eq!(tier.dataset_health(5), DatasetHealth::Healthy);
        assert!(tier.degraded_datasets().is_empty());
    }

    #[test]
    fn degraded_dataset_keeps_serving_the_last_good_snapshot() {
        let tier = ServeTier::new(2);
        let good = compiled_from_signal(&[4.0, 0.0, 0.0, 0.0], 4);
        tier.publish(9, &good, 4);
        let mut h = tier.handle();
        let before = h.try_range_sum(9, 0, 3).unwrap();
        let _ = tier.try_publish(9, 4, || Err::<CompiledHistogram, _>(()));
        assert_eq!(tier.dataset_health(9), DatasetHealth::Degraded(1));
        assert_eq!(
            h.try_range_sum(9, 0, 3).unwrap().to_bits(),
            before.to_bits(),
            "reads are not gated on health"
        );
    }

    #[test]
    fn dataset_records_tracks_the_published_count() {
        let tier = ServeTier::new(2);
        assert_eq!(tier.dataset_records(4), None);
        let compiled = compiled_from_signal(&[1.0, 2.0, 3.0, 4.0], 4);
        tier.publish(4, &compiled, 10);
        assert_eq!(tier.dataset_records(4), Some(10));
        // A delta publish lands with the grown count; a failed rebuild
        // leaves the last published count serving.
        tier.try_publish(4, 10 + 7, || Ok::<_, ()>(compiled.clone()))
            .unwrap();
        assert_eq!(tier.dataset_records(4), Some(17));
        let _ = tier.try_publish(4, 99, || Err::<CompiledHistogram, _>(()));
        assert_eq!(tier.dataset_records(4), Some(17));
        tier.remove(4);
        assert_eq!(tier.dataset_records(4), None);
    }

    #[test]
    fn removing_a_dataset_forgets_its_failure_streak() {
        let tier = ServeTier::new(1);
        let good = compiled_from_signal(&[1.0, 1.0], 2);
        tier.publish(3, &good, 2);
        let _ = tier.try_publish(3, 2, || Err::<CompiledHistogram, _>(()));
        assert_eq!(tier.dataset_health(3), DatasetHealth::Degraded(1));
        tier.remove(3);
        assert_eq!(tier.dataset_health(3), DatasetHealth::Healthy);
        assert!(tier.degraded_datasets().is_empty());

        // An id whose first build never landed has nothing to withdraw,
        // but its streak is forgotten all the same.
        for _ in 0..QUARANTINE_AFTER {
            let _ = tier.try_publish(8, 2, || Err::<CompiledHistogram, _>(()));
        }
        assert_eq!(
            tier.degraded_datasets(),
            [(8, DatasetHealth::Quarantined(QUARANTINE_AFTER))]
        );
        let before = tier.generation();
        assert_eq!(tier.remove(8), None);
        assert_eq!(tier.generation(), before);
        assert_eq!(tier.dataset_health(8), DatasetHealth::Healthy);
        assert!(tier.degraded_datasets().is_empty());
    }
}
