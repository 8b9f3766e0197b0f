//! The epoch-swap primitive: `Arc`-published snapshots with lock-free
//! steady-state reads.
//!
//! The serving tier needs exactly one concurrency pattern: many reader
//! threads answering queries from an immutable snapshot while a writer
//! occasionally publishes a rebuilt one, with readers that **never
//! block** in the steady state and **never observe a torn snapshot**.
//! The stock tools each miss: `RwLock` makes every batch take a shared
//! lock (and a publisher stalls behind readers); a bare
//! `AtomicPtr<Arc<T>>` has the classic refcount race (a reader loads the
//! pointer, the writer drops the last reference before the reader
//! increments it). The `arc-swap` crate solves this with hazard-pointer
//! style tracking; this vendored-free primitive gets the same serving
//! behavior from a simpler invariant:
//!
//! * [`EpochSwap`] holds the current `Arc<T>` behind a tiny mutex plus a
//!   monotonically increasing **epoch counter**. Publishing locks the
//!   mutex (writers are rare), swaps the `Arc`, bumps the epoch, and
//!   drops the displaced snapshot *outside* the lock.
//! * Each reader thread owns an [`EpochReader`] caching a full `Arc<T>`
//!   clone plus the epoch it was read at. Refreshing is **one `Acquire`
//!   atomic load per batch**: only when the epoch moved does the reader
//!   touch the mutex to re-clone — and its cached `Arc` keeps the old
//!   snapshot alive meanwhile, so there is no refcount race by
//!   construction.
//!
//! Torn reads are impossible because the unit of publication is one
//! `Arc` swap: a reader holds either the whole old snapshot or the whole
//! new one, never parts of each. The swap-under-load tests in
//! `tests/serve_tier.rs` hammer exactly this claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A writer-side cell publishing `Arc<T>` snapshots to [`EpochReader`]s.
#[derive(Debug)]
pub struct EpochSwap<T> {
    /// Bumped (with `Release`) after each publication; readers poll this
    /// and only touch `slot` when it moved.
    epoch: AtomicU64,
    /// The current snapshot. Locked briefly by publishers and by readers
    /// refreshing their cache — never on the steady-state read path.
    slot: Mutex<Arc<T>>,
}

impl<T> EpochSwap<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(initial),
        }
    }

    /// The current epoch. Monotone; moves exactly once per [`store`].
    ///
    /// [`store`]: Self::store
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes `next` as the current snapshot and returns the new
    /// epoch. The displaced snapshot is dropped outside the lock, so a
    /// slow `Drop` of the last generation never blocks readers
    /// refreshing their cache.
    pub fn store(&self, next: Arc<T>) -> u64 {
        let (old, epoch) = {
            let mut slot = self.slot.lock();
            let old = std::mem::replace(&mut *slot, next);
            // Bump inside the lock so concurrent publishers order their
            // epoch increments with their slot writes; `Release` pairs
            // with the readers' `Acquire` poll. The value returned is
            // this store's own increment, not a later re-read that a
            // concurrent store could have moved.
            (old, self.epoch.fetch_add(1, Ordering::Release) + 1)
        };
        drop(old);
        epoch
    }

    /// Clones the current snapshot together with an epoch observed *at
    /// or before* the clone. The pairing is conservative on purpose: if
    /// a publication lands between the epoch read and the clone, the
    /// caller holds a snapshot *newer* than the recorded epoch and will
    /// simply refresh once more on its next poll — it can never hold a
    /// snapshot older than the epoch it recorded, which is the invariant
    /// [`EpochReader`] relies on to never serve stale generations
    /// forever.
    pub fn load(&self) -> (u64, Arc<T>) {
        let epoch = self.epoch.load(Ordering::Acquire);
        let arc = Arc::clone(&self.slot.lock());
        (epoch, arc)
    }

    /// A reader cache primed with the current snapshot.
    pub fn reader(&self) -> EpochReader<T> {
        let (epoch, cached) = self.load();
        EpochReader { epoch, cached }
    }
}

/// A reader thread's cache of one [`EpochSwap`] snapshot: the `Arc` it
/// last cloned and the epoch it observed doing so. One per thread;
/// [`get`](Self::get) is the per-batch entry point.
#[derive(Debug)]
pub struct EpochReader<T> {
    epoch: u64,
    cached: Arc<T>,
}

impl<T> EpochReader<T> {
    /// The cached snapshot, refreshed first if `swap`'s epoch moved
    /// since the last call. Steady state (no publication) is one
    /// `Acquire` load and no locking; after a publication, one brief
    /// mutex lock re-clones the new snapshot.
    pub fn get(&mut self, swap: &EpochSwap<T>) -> &Arc<T> {
        let now = swap.epoch();
        if now != self.epoch {
            let (epoch, cached) = swap.load();
            self.epoch = epoch;
            self.cached = cached;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_bumps_the_epoch_and_readers_refresh() {
        let swap = EpochSwap::new(Arc::new(1u64));
        let mut reader = swap.reader();
        assert_eq!(**reader.get(&swap), 1);
        assert_eq!(swap.epoch(), 0);

        assert_eq!(swap.store(Arc::new(2)), 1);
        assert_eq!(**reader.get(&swap), 2);
        assert_eq!(reader.epoch, 1);

        assert_eq!(swap.store(Arc::new(3)), 2);
        assert_eq!(swap.store(Arc::new(4)), 3);
        assert_eq!(**reader.get(&swap), 4);
    }

    #[test]
    fn reader_cache_keeps_old_snapshot_alive_until_refresh() {
        let first = Arc::new(vec![1u8, 2, 3]);
        let swap = EpochSwap::new(Arc::clone(&first));
        let mut reader = swap.reader();
        reader.get(&swap);
        swap.store(Arc::new(vec![4, 5, 6]));
        // The cell dropped its reference, but the reader's cache still
        // holds one — the old snapshot is alive until the reader polls.
        assert_eq!(Arc::strong_count(&first), 2);
        assert_eq!(**reader.get(&swap), vec![4, 5, 6]);
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn concurrent_readers_see_complete_snapshots_only() {
        // Snapshots are (n, n) pairs; a torn read would pair different
        // generations. Readers poll while a writer republishes.
        let swap = Arc::new(EpochSwap::new(Arc::new((0u64, 0u64))));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let swap = Arc::clone(&swap);
                s.spawn(move || {
                    let mut reader = swap.reader();
                    for _ in 0..20_000 {
                        let snap = reader.get(&swap);
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                    }
                });
            }
            let swap = Arc::clone(&swap);
            s.spawn(move || {
                for g in 1..=1_000u64 {
                    swap.store(Arc::new((g, g)));
                }
            });
        });
        assert_eq!(swap.epoch(), 1_000);
    }

    #[test]
    fn concurrent_stores_each_return_their_own_epoch() {
        // The displaced snapshot is dropped after the slot lock is
        // released; yielding there hands the other writers their turn
        // before `store` returns — the window in which a re-read epoch
        // would already be someone else's.
        struct YieldOnDrop;
        impl Drop for YieldOnDrop {
            fn drop(&mut self) {
                std::thread::yield_now();
            }
        }
        let swap = EpochSwap::new(Arc::new(YieldOnDrop));
        let start = std::sync::Barrier::new(4);
        let mut returned: Vec<u64> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..500)
                            .map(|_| swap.store(Arc::new(YieldOnDrop)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        returned.sort_unstable();
        assert_eq!(returned, (1..=2000).collect::<Vec<u64>>());
    }
}
