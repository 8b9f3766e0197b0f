//! Map- and reduce-side execution contexts.

use std::sync::Arc;

use crate::wire::WireSize;

/// Context handed to a map task: emit intermediate pairs and account for
/// the work done. Every emitted pair is shuffled: a mapper that wants the
/// paper's Combine saving aggregates before it emits.
pub struct MapContext<K, V> {
    pub(crate) split_id: u32,
    round: u32,
    broadcast: Arc<[u8]>,
    pub(crate) pairs: Vec<(K, V)>,
    pub(crate) records_read: u64,
    pub(crate) bytes_read: u64,
    pub(crate) cpu_ops: f64,
}

impl<K, V> std::fmt::Debug for MapContext<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapContext")
            .field("split_id", &self.split_id)
            .field("round", &self.round)
            .field("broadcast", &self.broadcast.len())
            .field("pairs", &self.pairs.len())
            .field("records_read", &self.records_read)
            .field("bytes_read", &self.bytes_read)
            .field("cpu_ops", &self.cpu_ops)
            .finish()
    }
}

impl<K, V> MapContext<K, V>
where
    K: WireSize,
    V: WireSize,
{
    /// A context for `split_id`'s task in round `round`, whose emit
    /// buffer reuses `buffer`'s allocation — how map workers recycle the
    /// pair buffer across the tasks they execute instead of reallocating
    /// it per task.
    pub(crate) fn new(
        split_id: u32,
        round: u32,
        broadcast: &Arc<[u8]>,
        mut buffer: Vec<(K, V)>,
    ) -> Self {
        buffer.clear();
        Self {
            split_id,
            round,
            broadcast: Arc::clone(broadcast),
            pairs: buffer,
            records_read: 0,
            bytes_read: 0,
            cpu_ops: 0.0,
        }
    }

    /// The split this task processes.
    pub fn split_id(&self) -> u32 {
        self.split_id
    }

    /// The round this run of the task belongs to, from 0. A task runs
    /// once per round of its job, so a multi-round mapper dispatches on
    /// this and keeps whatever it needs next round in its own closure.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// This round's broadcast: the bytes the coordinator handed
    /// [`crate::Job::round`] (the paper's Job Configuration / Distributed
    /// Cache), bit-exact in every engine mode. Empty when nothing was
    /// broadcast.
    pub fn broadcast(&self) -> &[u8] {
        &self.broadcast
    }

    /// Emits one intermediate `(k₂, v₂)` pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Records that `records` records totalling `bytes` bytes were read
    /// from the split. Full scans call this once with the split totals;
    /// samplers call it with the touched subset only.
    #[inline]
    pub fn note_read(&mut self, records: u64, bytes: u64) {
        self.records_read += records;
        self.bytes_read += bytes;
    }

    /// Charges `ops` abstract CPU operations to this task (hash-map
    /// updates, wavelet coefficient updates, sketch row updates…). The
    /// cost model converts ops into seconds per machine.
    #[inline]
    pub fn charge(&mut self, ops: f64) {
        self.cpu_ops += ops;
    }

    /// Whether this task is executing inside a forked map-worker process
    /// ([`crate::EngineMode::MultiProcess`]) rather than an in-process
    /// thread. Map closures behave identically in both cases — this
    /// exists for tests that must misbehave only in the child (e.g. the
    /// killed-worker regression) and for diagnostics.
    pub fn in_worker_process(&self) -> bool {
        crate::worker::in_map_worker()
    }
}

/// Context handed to the reducer, and to the Close hook.
#[derive(Debug)]
pub struct ReduceContext<R> {
    pub(crate) outputs: Vec<R>,
    /// The Close hook's input: the round's reducer emissions, one `Vec`
    /// per partition in partition order, ahead of `outputs`. Empty in a
    /// reducer's own context.
    pub(crate) partitions: Vec<Vec<R>>,
    pub(crate) cpu_ops: f64,
}

impl<R> ReduceContext<R> {
    pub(crate) fn new() -> Self {
        Self::holding(Vec::new())
    }

    /// A Close hook's context, holding the round's reducer emissions
    /// `partitions`.
    pub(crate) fn holding(partitions: Vec<Vec<R>>) -> Self {
        Self {
            outputs: Vec::new(),
            partitions,
            cpu_ops: 0.0,
        }
    }

    /// Emits one final output record.
    #[inline]
    pub fn emit(&mut self, out: R) {
        self.outputs.push(out);
    }

    /// Takes everything emitted so far as one `Vec`, leaving the context
    /// empty: in a Close hook, every reducer emission of the round
    /// stitched partition-major (partition index ascending, key order
    /// within a partition), then what the hook itself emitted. A hook
    /// that aggregates takes them, folds them, and emits the job's real
    /// output in their place. A hook that never takes only appends.
    pub fn take_outputs(&mut self) -> Vec<R> {
        let mut parts = std::mem::take(&mut self.partitions);
        let own = std::mem::take(&mut self.outputs);
        if parts.len() == 1 && own.is_empty() {
            return parts.pop().expect("one partition");
        }
        let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum::<usize>() + own.len());
        for part in parts {
            all.extend(part);
        }
        all.extend(own);
        all
    }

    /// Takes the round's reducer emissions as they were reduced, one
    /// `Vec` per partition in partition index order, each in key order —
    /// [`ReduceContext::take_outputs`] without stitching them into one
    /// `Vec`. What the hook itself emitted stays. Empty outside a Close
    /// hook.
    pub fn take_partitions(&mut self) -> Vec<Vec<R>> {
        std::mem::take(&mut self.partitions)
    }

    /// Charges CPU work to the reducer.
    #[inline]
    pub fn charge(&mut self, ops: f64) {
        self.cpu_ops += ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_context_accumulates() {
        let mut ctx: MapContext<u32, f64> = MapContext::new(3, 1, &Arc::from(&[7u8][..]), vec![]);
        assert_eq!(ctx.split_id(), 3);
        assert_eq!(ctx.round(), 1);
        assert_eq!(ctx.broadcast(), [7]);
        ctx.emit(1, 2.0);
        ctx.emit(2, 4.0);
        ctx.note_read(10, 40);
        ctx.note_read(5, 20);
        ctx.charge(100.0);
        assert_eq!(ctx.pairs.len(), 2);
        assert_eq!(ctx.records_read, 15);
        assert_eq!(ctx.bytes_read, 60);
        assert_eq!(ctx.cpu_ops, 100.0);
    }

    #[test]
    fn reduce_context_collects() {
        let mut ctx: ReduceContext<String> = ReduceContext::new();
        ctx.emit("a".into());
        ctx.charge(5.0);
        assert_eq!(ctx.outputs, vec!["a".to_string()]);
        assert_eq!(ctx.cpu_ops, 5.0);
        assert_eq!(ctx.take_outputs(), vec!["a".to_string()]);
        assert!(ctx.outputs.is_empty());
        assert_eq!(ctx.cpu_ops, 5.0);
    }

    #[test]
    fn close_context_hands_over_partitions_stitched_or_in_place() {
        let parts = || vec![vec![1, 4], vec![], vec![2]];
        let mut ctx = ReduceContext::holding(parts());
        ctx.emit(9);
        assert_eq!(ctx.take_outputs(), vec![1, 4, 2, 9]);
        assert!(ctx.take_outputs().is_empty());

        let mut ctx = ReduceContext::holding(parts());
        ctx.emit(9);
        assert_eq!(ctx.take_partitions(), parts());
        assert!(ctx.take_partitions().is_empty());
        assert_eq!(ctx.take_outputs(), vec![9], "own emissions stay");
    }
}
