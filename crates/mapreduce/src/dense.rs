//! Dense-domain grouping for bounded keys on the reduce side of the
//! shuffle: the route a partition takes when its job declares a radix
//! codec ([`crate::JobSpec::with_radix_keys`]) and a bounded key domain
//! ([`crate::EngineConfig::key_domain_hint`]). It never sorts pairs.
//!
//! The partitioner sends a radix to partition `radix mod R`
//! ([`crate::engine::default_partition`]), so partition `p` of `R` holds
//! only radixes `≡ p (mod R)`. Both tables here are therefore indexed by
//! the quotient offset `radix / R − lo`, `lo` the partition's smallest
//! quotient: `(max − min)/R + 1` slots, never the full domain, and `R`
//! partitions together walk one domain's worth of slots. One pass over
//! the runs ([`quotients`]) finds that range, checks the hint and the
//! residue class, and stashes every pair's offset.
//!
//! * [`FoldTable`] serves a [`crate::Fold`] reducer. Runs are folded in
//!   `(split id, arrival order)` order into one accumulator per key that
//!   occurs, found through a `u32` slot index over the range, and the
//!   keys are finished in ascending order: by walking the range, or, for
//!   a partition with fewer than one pair per 16 slots, by sorting the
//!   slots it touched. No key's value list is ever held.
//! * [`DenseReducer`] serves a slice reducer ([`crate::job::ReduceFn`]):
//!   it materialises each key's value list in an arena and hands it over
//!   whole. It stays for jobs written in that form.
//!
//! Each reduce worker thread owns one table and recycles it across every
//! partition it reduces: tables are empty again after each partition, and
//! their buffers keep their allocations.

use std::num::NonZeroU32;

use crate::context::ReduceContext;
use crate::job::Fold;
use crate::radix::RadixKey;
use crate::reduce::ReduceDyn;

/// Tag on a [`DenseReducer`] slot entry meaning "no pair placed yet":
/// until a slot's first pair lands, its entry holds
/// `FIRST_ARRIVAL | group index`, and the pair that clears it parks its
/// key for that group. Counts and positions stay below the tag bit: the
/// engine sends a partition of `FIRST_ARRIVAL` pairs or more down the
/// sort route instead.
pub(crate) const FIRST_ARRIVAL: u32 = 1 << 31;

/// The pre-pass both tables share, as the plan holds it: [`quotients`]
/// for the job's key type, installed by
/// [`crate::JobSpec::with_radix_keys`], so the radix image inlines into
/// the loop.
pub(crate) type OffsetsFn<K, V> =
    fn(&[Vec<(K, V)>], u64, (u32, u32), &mut Vec<u32>) -> (usize, usize);

/// The pre-pass both tables share: stashes each pair's quotient offset
/// `radix / nparts − lo` into `stash` (in run order) and returns
/// `(pairs, width)`, `width` the number of quotients between the
/// partition's smallest and largest.
///
/// # Panics
///
/// Panics when a key's radix reaches `domain_hint`, or is not
/// `≡ part (mod nparts)` — a broken [`crate::EngineConfig::key_domain_hint`]
/// or partitioner must fail loudly rather than mis-group (two radixes of
/// one residue class never share a quotient).
pub(crate) fn quotients<K: RadixKey, V>(
    runs: &[Vec<(K, V)>],
    domain_hint: u64,
    (part, nparts): (u32, u32),
    stash: &mut Vec<u32>,
) -> (usize, usize) {
    assert!(
        domain_hint <= 1 << 32,
        "dense reduce requires a u32-sized key domain"
    );
    let total: usize = runs.iter().map(Vec::len).sum();
    stash.clear();
    if total == 0 {
        return (0, 0);
    }
    stash.reserve(total);
    let (lo, hi, stray) = if nparts == 1 {
        stash_quotients(runs, (part, nparts), stash, |r| r)
    } else {
        // Lemire's division by an invariant: with M = ⌈2⁶⁴/d⌉, ⌊r/d⌋ is
        // ⌊r·M / 2⁶⁴⌋ for every 32-bit r and d ≥ 2 — one multiply
        // instead of a divide per pair.
        let m = u128::from(u64::MAX / u64::from(nparts) + 1);
        stash_quotients(runs, (part, nparts), stash, |r| {
            ((m * u128::from(r)) >> 64) as u32
        })
    };
    assert!(
        hi < domain_hint,
        "key radix {hi} outside the declared key_domain_hint {domain_hint}"
    );
    assert!(
        !stray,
        "a key radix of partition {part} is not ≡ {part} (mod {nparts})"
    );
    let (lo, hi) = ((lo / u64::from(nparts)) as u32, hi / u64::from(nparts));
    for q in stash.iter_mut() {
        *q -= lo;
    }
    (total, (hi - u64::from(lo) + 1) as usize)
}

/// [`quotients`]' loop, with the division by `nparts` given as `div`:
/// pushes each pair's quotient and returns the smallest and largest
/// radix and whether any radix left the residue class `part`.
#[inline(always)]
fn stash_quotients<K: RadixKey, V>(
    runs: &[Vec<(K, V)>],
    (part, nparts): (u32, u32),
    stash: &mut Vec<u32>,
    div: impl Fn(u32) -> u32,
) -> (u64, u64, bool) {
    let (mut lo, mut hi, mut stray) = (u64::MAX, 0u64, false);
    for run in runs {
        stash.extend(run.iter().map(|(k, _)| {
            let r = k.to_radix();
            lo = lo.min(r);
            hi = hi.max(r);
            // Truncation is safe: `hi` tracks the untruncated image, and
            // the caller rejects anything over the domain cap before the
            // stash is ever used.
            let r = r as u32;
            let q = div(r);
            stray |= q.wrapping_mul(nparts).wrapping_add(part) != r;
            q
        }));
    }
    (lo, hi, stray)
}

/// One key's running fold: its key, how many values it has absorbed, and
/// its accumulator.
struct Group<K, A> {
    key: K,
    /// Never 0, so an `Option<Group>` needs no tag of its own.
    count: NonZeroU32,
    acc: A,
}

impl<K, A> Group<K, A> {
    /// A group started by its first value.
    fn new<V, R, F: Fold<K, V, R, Acc = A>>(fold: &F, key: K, value: V) -> Self {
        Self {
            key,
            count: NonZeroU32::MIN,
            acc: fold.first(value),
        }
    }

    /// Folds one more value in.
    fn absorb<V, R, F: Fold<K, V, R, Acc = A>>(&mut self, fold: &F, value: V) {
        self.count = self
            .count
            .checked_add(1)
            .expect("one key folds at most u32::MAX values per partition");
        fold.fold(&mut self.acc, value);
    }

    /// Hands the finished key to the reducer.
    fn finish<V, R, F: Fold<K, V, R, Acc = A>>(self, fold: &F, rctx: &mut ReduceContext<R>) {
        fold.finish(self.key, self.acc, u64::from(self.count.get()), rctx);
    }
}

/// The fold route's table: one accumulator per key of a partition behind
/// a `u32` slot index, recycled across the partitions a reduce worker
/// thread reduces. The index spans the partition's quotient range at 4 B
/// a slot; accumulators exist only for the keys that occur, so a wide,
/// sparsely touched range never holds an accumulator per slot.
pub(crate) struct FoldTable<K, A> {
    /// Slot → 1 + the key's position in `groups`, 0 for an untouched
    /// slot. All 0 between partitions.
    index: Vec<u32>,
    /// Each key's group, in first-arrival order; emission `take`s them.
    /// Empty between partitions.
    groups: Vec<Option<Group<K, A>>>,
    /// Each key's slot, in first-arrival order: the emission order once
    /// sorted, for a partition too sparse to walk its whole range.
    touched: Vec<u32>,
    /// Every pair's quotient offset, from the [`quotients`] pre-pass.
    offsets: Vec<u32>,
}

impl<K, A> FoldTable<K, A> {
    /// An empty table; storage grows to the largest partition it folds.
    pub(crate) fn new() -> Self {
        Self {
            index: Vec::new(),
            groups: Vec::new(),
            touched: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Folds partition `part` of `nparts` and finishes every key in
    /// ascending key order, each key's values folded in `(split id,
    /// arrival order)` order — `runs` must arrive in split-id order with
    /// arrival order inside each run, the shape the shuffle ships.
    /// Returns the number of keys finished.
    ///
    /// # Panics
    ///
    /// As [`quotients`]: on a radix outside the hint or the residue class.
    pub(crate) fn fold_runs<V, R, F: Fold<K, V, R, Acc = A>>(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        offsets_of: OffsetsFn<K, V>,
        domain_hint: u64,
        part: (u32, u32),
        fold: &F,
        rctx: &mut ReduceContext<R>,
    ) -> u64 {
        let mut offsets = std::mem::take(&mut self.offsets);
        let (total, width) = offsets_of(&runs, domain_hint, part, &mut offsets);
        if self.index.len() < width {
            self.index.resize(width, 0);
        }
        let index = &mut self.index[..width];
        let pairs = runs.into_iter().flatten().zip(&offsets);
        for ((k, v), &s) in pairs {
            match index[s as usize] {
                0 => {
                    self.groups.push(Some(Group::new(fold, k, v)));
                    self.touched.push(s);
                    index[s as usize] = self.groups.len() as u32;
                }
                g => match &mut self.groups[g as usize - 1] {
                    Some(group) => group.absorb(fold, v),
                    None => unreachable!("a group is taken only at emission"),
                },
            }
        }
        // Emission in ascending slot order, clearing the index on the
        // way: a partition with at least one pair per 16 slots walks its
        // whole range; a sparser one sorts the slots it touched.
        let keys = self.groups.len();
        rctx.outputs.reserve(keys);
        let mut emit = |s: usize| {
            let g = std::mem::take(&mut index[s]) as usize;
            if g != 0 {
                let group = self.groups[g - 1].take().expect("each key finished once");
                group.finish(fold, rctx);
            }
        };
        if total * 16 >= width {
            (0..width).for_each(&mut emit);
        } else {
            self.touched.sort_unstable();
            self.touched.iter().for_each(|&s| emit(s as usize));
        }
        self.groups.clear();
        self.touched.clear();
        self.offsets = offsets;
        keys as u64
    }
}

/// Flat-array reduce-side grouper for a slice reducer: the dense
/// counterpart of the sort route for jobs that take each key's values as
/// one `&[V]`. One per reduce worker thread, recycled across every
/// partition that worker reduces.
///
/// The shape is a counting sort that never moves keys: the [`quotients`]
/// pre-pass, a counting pass, a prefix pass laying the groups out in
/// ascending-key arena order, and a placement pass that moves **values
/// only** into the arena — each group's first arrival parks its key.
/// Emission then walks the arena once, sequentially, handing every group
/// to the reduce function. One `u32` array serves as histogram and
/// write-cursor table both (the classic in-place counting-sort trick).
///
/// It never clones a key and carries no `Ord` bound: keys are moved in,
/// borrowed by the reduce function, and dropped; ordering comes entirely
/// from the radix image (the sealed [`crate::RadixKey`] contract makes
/// radix order *be* key order).
pub(crate) struct DenseReducer<K, V> {
    /// The one per-key table, indexed by quotient offset and sized to the
    /// widest partition quotient range seen so far. During the counting
    /// pass an entry is the slot's pair count; the prefix pass rewrites
    /// entries to `FIRST_ARRIVAL | group index`; the placement pass turns
    /// them into plain next-arena-position cursors. All-zero again after
    /// every partition (a vectorized fill in dense-scan mode, a touched
    /// walk in sparse mode).
    slots: Vec<u32>,
    /// Each group's key, parked by its first-arriving pair and `take`n at
    /// emission — sized to the group count, not the key range.
    keys: Vec<Option<K>>,
    /// Sparse mode only: buffer of slots touched by the counting pass,
    /// written branchlessly (the cursor advances only on first touches).
    touched: Vec<u32>,
    /// Buffer of each group's arena start, ascending-key order; only the
    /// first `groups` entries of a partition are meaningful.
    group_starts: Vec<u32>,
    /// Buffer of the slot behind each group — the emission/reset lookup.
    group_slots: Vec<u32>,
    /// Values in final grouped order: group-major (ascending key),
    /// `(split id, arrival order)` within a group.
    arena: Vec<Option<V>>,
    /// The contiguous value list handed to each reduce call.
    values: Vec<V>,
    /// Per-pair slot offsets from the [`quotients`] pre-pass, so no later
    /// pass invokes the codec or divides again.
    radixes: Vec<u32>,
}

impl<K, V> DenseReducer<K, V> {
    /// An empty reducer table; storage grows lazily to the key range and
    /// pair count of the largest partition it reduces.
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            keys: Vec::new(),
            touched: Vec::new(),
            group_starts: Vec::new(),
            group_slots: Vec::new(),
            arena: Vec::new(),
            values: Vec::new(),
            radixes: Vec::new(),
        }
    }

    /// Reduces partition `part` of `nparts`: groups the (unsorted) `runs`
    /// by key and invokes `reduce` once per key, key groups in ascending
    /// key order and each group's values in `(split id, arrival order)`
    /// order — `runs` must arrive in split-id order with arrival order
    /// inside each run, exactly the shape the shuffle ships. Returns the
    /// number of keys reduced.
    ///
    /// # Panics
    ///
    /// As [`quotients`], and on a partition of `FIRST_ARRIVAL` pairs or
    /// more (the engine routes those to the sort route).
    pub(crate) fn reduce_runs<R>(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        offsets_of: OffsetsFn<K, V>,
        domain_hint: u64,
        part: (u32, u32),
        reduce: &ReduceDyn<K, V, R>,
        rctx: &mut ReduceContext<R>,
    ) -> u64 {
        let (total, width) = offsets_of(&runs, domain_hint, part, &mut self.radixes);
        if total == 0 {
            return 0;
        }
        assert!(
            total < FIRST_ARRIVAL as usize,
            "partition exceeds tagged-u32 indexing"
        );
        if self.slots.len() < width {
            // Fresh entries are zero; previously used ones were zeroed by
            // the per-partition reset, so no clear is needed here.
            self.slots.resize(width, 0);
        }
        // Mode selection, fixed before counting: partitions whose pair
        // count justifies walking the whole slot range take the
        // branch-free dense-scan pipeline (no touched bookkeeping, no
        // comparison sort, vectorized reset); very sparse partitions
        // track touched slots instead and sort just those, O(d log d)
        // with d ≪ width.
        let dense_scan = total * 16 >= width;

        // Counting pass.
        let mut groups = 0usize;
        if dense_scan {
            for &r in &self.radixes {
                self.slots[r as usize] += 1;
            }
        } else {
            // Branch-free touched tracking: the write is unconditional,
            // the cursor advances only on first touches.
            if self.touched.len() < total {
                self.touched.resize(total, 0);
            }
            let mut d = 0usize;
            for &r in &self.radixes {
                let slot = r as usize;
                let count = self.slots[slot];
                self.touched[d] = r;
                d += usize::from(count == 0);
                self.slots[slot] = count + 1;
            }
            groups = d;
        }

        // Prefix pass: lay the groups out in ascending-key arena order,
        // rewriting each slot from its count to a tagged group index. The
        // dense scan is branch-free — every iteration writes the current
        // group candidate and only the cursors advance conditionally.
        // (It never records group slots: its reset is a range fill and
        // its emission indexes by group.)
        let needed = if dense_scan {
            // The cursor trick writes at index `g ≤ groups`, and groups
            // is bounded by both the range width and the pair count.
            width.min(total) + 1
        } else {
            groups
        };
        if self.group_starts.len() < needed {
            self.group_starts.resize(needed, 0);
        }
        if !dense_scan && self.group_slots.len() < needed {
            self.group_slots.resize(needed, 0);
        }
        let mut running = 0u32;
        if dense_scan {
            let mut g = 0usize;
            for slot in 0..width {
                let count = self.slots[slot];
                self.group_starts[g] = running;
                self.slots[slot] = FIRST_ARRIVAL | g as u32;
                g += usize::from(count != 0);
                running += count;
            }
            groups = g;
        } else {
            self.touched[..groups].sort_unstable();
            for g in 0..groups {
                let slot = self.touched[g] as usize;
                let count = self.slots[slot];
                self.group_starts[g] = running;
                self.group_slots[g] = slot as u32;
                self.slots[slot] = FIRST_ARRIVAL | g as u32;
                running += count;
            }
        }
        self.keys.clear();
        self.keys.resize_with(groups, || None);
        self.arena.clear();
        self.arena.resize_with(total, || None);

        // Placement pass: move values (only values) into their final
        // grouped positions; a group's first arrival parks the key and
        // swaps the slot's tagged group index for a plain write cursor.
        let mut idx = 0usize;
        for run in runs {
            for (k, v) in run {
                let slot = self.radixes[idx] as usize;
                idx += 1;
                let entry = self.slots[slot];
                let pos = if entry & FIRST_ARRIVAL != 0 {
                    let g = (entry & !FIRST_ARRIVAL) as usize;
                    self.keys[g] = Some(k);
                    self.group_starts[g]
                } else {
                    entry
                };
                self.slots[slot] = pos + 1;
                self.arena[pos as usize] = Some(v);
            }
        }

        // Emission: one sequential walk of the arena, group by group. The
        // drain moves values out without writing tombstones back, and the
        // end boundary comes from the live group count, never from a
        // stale buffer entry.
        let mut drained = self.arena.drain(..);
        for g in 0..groups {
            let start = self.group_starts[g] as usize;
            let end = if g + 1 < groups {
                self.group_starts[g + 1] as usize
            } else {
                total
            };
            self.values.clear();
            self.values.extend(
                drained
                    .by_ref()
                    .take(end - start)
                    .map(|v| v.expect("every arena slot filled")),
            );
            let key = self.keys[g].take().expect("each group reduced once");
            reduce(&key, &self.values, rctx);
        }
        drop(drained);
        self.values.clear();

        // Reset so the table is all-zero for the next partition this
        // worker reduces (`keys` entries were `take`n back to `None`
        // above). The dense scan wrote every slot in the range, so it
        // resets with one vectorized fill; the sparse path only touched
        // the group slots.
        if dense_scan {
            self.slots[..width].fill(0);
        } else {
            for &slot in &self.group_slots[..groups] {
                self.slots[slot as usize] = 0;
            }
        }
        groups as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fold that keeps every value it is handed, in order.
    struct Collect;

    impl Fold<u32, u64, (u32, Vec<u64>)> for Collect {
        type Acc = Vec<u64>;
        fn first(&self, value: u64) -> Vec<u64> {
            vec![value]
        }
        fn fold(&self, acc: &mut Vec<u64>, value: u64) {
            acc.push(value);
        }
        fn finish(
            &self,
            key: u32,
            acc: Vec<u64>,
            count: u64,
            ctx: &mut ReduceContext<(u32, Vec<u64>)>,
        ) {
            assert_eq!(count, acc.len() as u64);
            ctx.emit((key, acc));
        }
    }

    type Groups = Vec<(u32, Vec<u64>)>;

    /// Reduces `runs` as partition `part.0` of `part.1` through both
    /// tables, asserts they agree, and returns the groups.
    fn reduce_partition_groups(
        fold: &mut FoldTable<u32, Vec<u64>>,
        slice: &mut DenseReducer<u32, u64>,
        runs: Vec<Vec<(u32, u64)>>,
        hint: u64,
        part: (u32, u32),
    ) -> Groups {
        let radix: OffsetsFn<u32, u64> = quotients;
        let mut fctx = ReduceContext::new();
        let fkeys = fold.fold_runs(runs.clone(), radix, hint, part, &Collect, &mut fctx);
        let reduce = |k: &u32, vs: &[u64], ctx: &mut ReduceContext<(u32, Vec<u64>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        let mut sctx = ReduceContext::new();
        let skeys = slice.reduce_runs(runs, radix, hint, part, &reduce, &mut sctx);
        assert_eq!(fctx.outputs, sctx.outputs, "fold and slice tables agree");
        assert_eq!(fkeys, skeys);
        assert_eq!(fkeys, fctx.outputs.len() as u64);
        fctx.outputs
    }

    /// Reduces `runs` as the only partition of a one-reducer job.
    fn dense_reduce_groups(
        fold: &mut FoldTable<u32, Vec<u64>>,
        slice: &mut DenseReducer<u32, u64>,
        runs: Vec<Vec<(u32, u64)>>,
        hint: u64,
    ) -> Groups {
        reduce_partition_groups(fold, slice, runs, hint, (0, 1))
    }

    #[test]
    fn reducer_groups_unsorted_runs_in_key_then_arrival_order() {
        // Runs are unsorted (arrival order inside a split); split order is
        // vector order — the shape sort-at-reduce partitions ship in.
        let runs = vec![
            vec![(5u32, 10u64), (1, 11), (5, 12)],
            vec![(2, 20), (1, 21)],
            vec![(9, 30), (5, 31), (2, 32)],
        ];
        assert_eq!(
            dense_reduce_groups(&mut FoldTable::new(), &mut DenseReducer::new(), runs, 16),
            vec![
                (1, vec![11, 21]),
                (2, vec![20, 32]),
                (5, vec![10, 12, 31]),
                (9, vec![30]),
            ]
        );
    }

    #[test]
    fn reducer_slot_array_sized_to_the_partition_key_range() {
        // Keys live in [1000, 1010): ten slots, not the declared 4096.
        let runs = vec![vec![(1009u32, 1u64), (1000, 2), (1004, 3)]];
        let (mut fold, mut slice) = (FoldTable::new(), DenseReducer::new());
        let got = dense_reduce_groups(&mut fold, &mut slice, runs, 4096);
        assert_eq!(got, vec![(1000, vec![2]), (1004, vec![3]), (1009, vec![1])]);
        assert_eq!(
            (fold.index.len(), slice.slots.len()),
            (10, 10),
            "the tables must cover max − min + 1 radixes, not the domain"
        );
    }

    #[test]
    fn reducer_slot_array_indexed_by_the_residue_quotient() {
        // Partition 3 of 15 holds radixes ≡ 3 (mod 15); keys in
        // [1008, 1158] span quotients 67..=77: eleven slots, not 151.
        let runs = vec![vec![(1158u32, 1u64), (1008, 2)], vec![(1083, 3), (1008, 4)]];
        let (mut fold, mut slice) = (FoldTable::new(), DenseReducer::new());
        let got = reduce_partition_groups(&mut fold, &mut slice, runs, 4096, (3, 15));
        assert_eq!(
            got,
            vec![(1008, vec![2, 4]), (1083, vec![3]), (1158, vec![1])]
        );
        let width = (1158 - 1008) / 15 + 1;
        assert_eq!(
            (fold.index.len(), slice.slots.len()),
            (width, width),
            "the tables must cover (max − min)/R + 1 quotients"
        );
    }

    #[test]
    fn fold_table_holds_one_accumulator_per_key_that_occurs() {
        // Three pairs over a range of 2^20 slots, fewer than one pair per
        // 16 slots: the u32 index spans the range, but only the two keys
        // that occur get an accumulator, and emission sorts their slots
        // instead of walking the range.
        let runs = vec![vec![(1u32 << 20, 1u64), (0, 2)], vec![(1 << 20, 3)]];
        let (mut fold, mut slice) = (FoldTable::new(), DenseReducer::new());
        let got = dense_reduce_groups(&mut fold, &mut slice, runs, 1 << 21);
        assert_eq!(got, vec![(0, vec![2]), (1 << 20, vec![1, 3])]);
        assert_eq!(fold.index.len(), (1 << 20) + 1);
        assert!(fold.groups.capacity() < 16, "no accumulator per slot");
        assert!(fold.index.iter().all(|&i| i == 0), "index reset");
        assert!(fold.groups.is_empty() && fold.touched.is_empty(), "drained");
    }

    #[test]
    fn reducer_recycles_cleanly_across_partitions() {
        let (mut fold, mut slice) = (FoldTable::new(), DenseReducer::new());
        for round in 0..6u64 {
            // Different key range each round, including a widening one;
            // the odd rounds spread the keys past one pair per 16 slots.
            let base = (round * 37) as u32;
            let spread = if round % 2 == 1 { 1000 } else { 1 };
            let runs: Vec<Vec<(u32, u64)>> = (0..3)
                .map(|s| {
                    (0..50u64)
                        .map(|i| {
                            let k = (i * 7 + s) % (20 + round * 9);
                            (base + (k * spread) as u32, i)
                        })
                        .collect()
                })
                .collect();
            // Reference: stable sort of the split-ordered concatenation.
            let mut flat: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
            flat.sort_by_key(|&(k, _)| k);
            let mut want: Groups = Vec::new();
            for (k, v) in flat {
                match want.last_mut() {
                    Some((key, vs)) if *key == k => vs.push(v),
                    _ => want.push((k, vec![v])),
                }
            }
            assert_eq!(
                dense_reduce_groups(&mut fold, &mut slice, runs, 1 << 20),
                want,
                "round {round}"
            );
            // Reset discipline: every touched entry is cleared again, so
            // the next partition can trust the tables without a clear.
            assert!(fold.index.iter().all(|&i| i == 0), "round {round}");
            assert!(fold.groups.is_empty(), "round {round}");
            assert!(
                slice.slots.iter().all(|&c| c == 0),
                "round {round}: slots reset"
            );
            assert!(
                slice.keys.iter().all(Option::is_none),
                "round {round}: keys drained"
            );
        }
        // The buffers kept their allocations across partitions.
        assert!(slice.arena.capacity() > 0);
        assert!(fold.offsets.capacity() > 0);
    }

    #[test]
    fn reducer_handles_empty_partitions() {
        let (mut fold, mut slice) = (FoldTable::new(), DenseReducer::new());
        assert!(dense_reduce_groups(&mut fold, &mut slice, vec![], 8).is_empty());
        assert!(dense_reduce_groups(&mut fold, &mut slice, vec![vec![], vec![]], 8).is_empty());
    }

    #[test]
    fn quotients_divide_exactly_without_a_divide() {
        // Lemire's multiply-shift against `/` at the edges of the u32
        // range, for partition counts that are and are not powers of two.
        for nparts in [2u32, 3, 7, 15, 16, 1000, (1 << 31) - 1, u32::MAX] {
            let edges = [0u32, 1, nparts - 1, nparts, nparts.wrapping_add(1)];
            for r in edges
                .into_iter()
                .chain([u32::MAX - 1, u32::MAX])
                .chain((0..64).map(|i| 0x9E37_79B9u32.wrapping_mul(i)))
            {
                let part = r % nparts;
                let mut stash = Vec::new();
                let runs = [vec![(r, ())]];
                quotients(&runs, 1 << 32, (part, nparts), &mut stash);
                assert_eq!(stash, [0], "one pair is its own lo");
                let (lo, _, stray) = stash_quotients(&runs, (part, nparts), &mut stash, |r| {
                    let m = u128::from(u64::MAX / u64::from(nparts) + 1);
                    ((m * u128::from(r)) >> 64) as u32
                });
                assert_eq!((lo, stray), (u64::from(r), false));
                assert_eq!(stash[1], r / nparts, "{r} / {nparts}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX values")]
    fn a_key_past_u32_max_values_fails_loudly() {
        let mut group = Group {
            key: 7u32,
            count: NonZeroU32::MAX,
            acc: Vec::new(),
        };
        group.absorb(&Collect, 1);
    }

    #[test]
    #[should_panic(expected = "outside the declared key_domain_hint")]
    fn reducer_rejects_keys_outside_the_hint() {
        let mut fold = FoldTable::new();
        let runs = vec![vec![(8u32, 1u64), (1, 2)]];
        fold.fold_runs(
            runs,
            quotients,
            8,
            (0, 1),
            &Collect,
            &mut ReduceContext::new(),
        );
    }

    #[test]
    #[should_panic(expected = "is not ≡ 2 (mod 4)")]
    fn reducer_rejects_keys_outside_its_residue_class() {
        // 6 ≡ 2 (mod 4) belongs here; 10 does too, but 7 does not — and
        // 7 / 4 = 6 / 4, so reducing it would silently merge two keys.
        let mut fold = FoldTable::new();
        let runs = vec![vec![(6u32, 1u64), (10, 2), (7, 3)]];
        fold.fold_runs(
            runs,
            quotients,
            16,
            (2, 4),
            &Collect,
            &mut ReduceContext::new(),
        );
    }

    #[test]
    #[should_panic(expected = "outside the declared key_domain_hint")]
    fn slice_reducer_rejects_keys_outside_the_hint() {
        let reduce = |_: &u32, _: &[u64], _: &mut ReduceContext<()>| {};
        DenseReducer::new().reduce_runs(
            vec![vec![(8u32, 1u64)]],
            quotients,
            8,
            (0, 1),
            &reduce,
            &mut ReduceContext::new(),
        );
    }
}
