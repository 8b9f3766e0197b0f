//! Per-split persistent state across MapReduce rounds.
//!
//! H-WTopk's mappers must remember, between rounds, the local wavelet
//! coefficients they have not yet sent (Appendix A). In Hadoop this is done
//! by writing a state file to HDFS keyed by the split id at mapper close
//! and re-reading it when the split is processed in the next round; because
//! HDFS writes locally when possible, it costs no network traffic. A
//! [`StateStore`] models exactly that: a per-split blob store that is
//! *not* charged as communication.
//!
//! State is stored as its [`WireCodec`] byte encoding in every engine
//! mode, so a save performed inside a forked map worker can be journalled
//! (`StateOp`) and replayed type-free in the coordinator — the next
//! round's workers then see it through fork copy-on-write, just as Hadoop
//! mappers re-read their local HDFS state file.

use parking_lot::Mutex;
use std::collections::HashMap;

use crate::wire::{WireCodec, WireSize};

/// One journalled state mutation, replayable without knowing the state's
/// Rust type (the bytes are already wire-encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StateOp {
    /// `save_wire(split, bytes)`.
    Save(u32, Vec<u8>),
    /// `take_wire(split)` (removal matters even when the value is unused:
    /// the next round must not see consumed state).
    Take(u32),
}

/// Thread-safe per-split state, keyed by split id.
#[derive(Default)]
pub struct StateStore {
    slots: Mutex<HashMap<u32, Vec<u8>>>,
    /// `Some` while a forked worker is recording its wire-path mutations
    /// for replay in the coordinator; `None` everywhere else.
    journal: Mutex<Option<Vec<StateOp>>>,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves `state` for `split` in its wire encoding, replacing any
    /// previous value. Storing the *bytes* (in every engine mode, so the
    /// modes stay interchangeable) is what lets the multi-process
    /// coordinator replay a worker's saves without the state's type.
    /// The buffer is allocated once, at the state's accounted wire size
    /// (exact for the coefficient lists H-WTopk saves), so state held
    /// across rounds carries no spare capacity.
    pub fn save_wire<T: WireCodec + WireSize>(&self, split: u32, state: &T) {
        // Sizing up front also keeps the buffer in the saving thread's
        // malloc arena: glibc grows a buffer in the arena its first chunk
        // came from, and an 8-byte first chunk out of the thread cache is
        // often the main thread's — split-sized state piling up there
        // costs peak RSS.
        let mut bytes = Vec::with_capacity(state.wire_bytes() as usize);
        state.encode_wire(&mut bytes);
        if let Some(ops) = self.journal.lock().as_mut() {
            ops.push(StateOp::Save(split, bytes.clone()));
        }
        self.slots.lock().insert(split, bytes);
    }

    /// Removes and decodes the wire-encoded state of `split`, if present.
    ///
    /// # Panics
    ///
    /// Panics if the stored bytes do not decode as `T` — that is a
    /// programming error in the round driver, not a data condition.
    pub fn take_wire<T: WireCodec>(&self, split: u32) -> Option<T> {
        if let Some(ops) = self.journal.lock().as_mut() {
            ops.push(StateOp::Take(split));
        }
        let bytes = self.slots.lock().remove(&split)?;
        let mut input = bytes.as_slice();
        let value = T::decode_wire(&mut input)
            .unwrap_or_else(|e| panic!("state for split {split} does not decode: {e}"));
        assert!(
            input.is_empty(),
            "state for split {split} has {} trailing bytes",
            input.len()
        );
        Some(value)
    }

    /// Starts recording wire-path mutations (used by forked workers).
    pub(crate) fn begin_journal(&self) {
        *self.journal.lock() = Some(Vec::new());
    }

    /// Stops recording and returns the journal.
    pub(crate) fn drain_journal(&self) -> Vec<StateOp> {
        self.journal.lock().take().unwrap_or_default()
    }

    /// Replays one journalled mutation (used by the coordinator).
    pub(crate) fn apply(&self, op: StateOp) {
        match op {
            StateOp::Save(split, bytes) => {
                self.slots.lock().insert(split, bytes);
            }
            StateOp::Take(split) => {
                self.slots.lock().remove(&split);
            }
        }
    }

    /// Number of splits with saved state.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether no state is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }
}

impl std::fmt::Debug for StateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StateStore({} splits)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_save_take_roundtrip() {
        let store = StateStore::new();
        let state: Vec<(u64, f64)> = vec![(3, 1.5), (9, -2.25)];
        store.save_wire(4, &state);
        assert_eq!(store.len(), 1);
        let back: Vec<(u64, f64)> = store.take_wire(4).unwrap();
        assert_eq!(back, state);
        assert!(store.is_empty());
        assert_eq!(store.take_wire::<Vec<(u64, f64)>>(4), None);
    }

    #[test]
    fn journal_records_and_replays() {
        let recording = StateStore::new();
        recording.begin_journal();
        recording.save_wire(1, &vec![7u64, 8]);
        recording.save_wire(2, &vec![9u64]);
        let _ = recording.take_wire::<Vec<u64>>(1);
        let ops = recording.drain_journal();
        assert_eq!(ops.len(), 3);

        // Replaying the journal on a fresh store reproduces the final
        // slot contents — this is exactly what the coordinator does with
        // ops shipped from a forked worker.
        let replayed = StateStore::new();
        for op in ops {
            replayed.apply(op);
        }
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed.take_wire::<Vec<u64>>(2), Some(vec![9u64]));
        assert_eq!(replayed.take_wire::<Vec<u64>>(1), None);
    }

    #[test]
    fn journal_off_by_default() {
        let store = StateStore::new();
        store.save_wire(1, &1u64);
        assert!(store.drain_journal().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not decode")]
    fn wire_take_with_wrong_type_panics() {
        let store = StateStore::new();
        store.save_wire(1, &1u8);
        let _: Option<u64> = store.take_wire(1);
    }

    #[test]
    fn concurrent_saves() {
        let store = StateStore::new();
        std::thread::scope(|s| {
            for j in 0..8u32 {
                let store = &store;
                s.spawn(move || store.save_wire(j, &(j as u64 * 10)));
            }
        });
        assert_eq!(store.len(), 8);
        for j in 0..8u32 {
            assert_eq!(store.take_wire::<u64>(j), Some(j as u64 * 10));
        }
    }
}
