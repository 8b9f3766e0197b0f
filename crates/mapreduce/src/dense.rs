//! Dense-domain flat-array grouping for bounded keys on the reduce side
//! of the shuffle.
//!
//! When a job declares both a radix codec ([`crate::JobSpec::with_radix_keys`])
//! and a bounded key domain ([`crate::EngineConfig::key_domain_hint`]),
//! reduce partitions stop sorting: a partition's unsorted runs aggregate
//! straight into a slot array sized to that partition's *actual* key
//! range (`max − min + 1` radixes, never the full domain), and key groups
//! are delivered to the reduce function in ascending key order with
//! values in `(split id, arrival order)` order — the exact sequence of
//! the sort-at-reduce route, with no sort at all.
//!
//! The [`DenseReducer`] is owned by a reduce worker and **reused across
//! every partition that worker reduces**: the slot array is reset via a
//! range fill or the touched list (never O(domain)), and the arena and
//! value buffers keep their allocations, so steady-state grouping
//! allocates nothing.

use crate::context::ReduceContext;
use crate::engine::ReduceDyn;

/// Tag on a slot entry meaning "no pair placed yet": until a slot's
/// first pair lands, its entry holds `FIRST_ARRIVAL | group index`, and
/// the pair that clears it parks its key for that group. Counts and
/// positions stay far below the tag bit (partition sizes are asserted
/// against it).
pub(crate) const FIRST_ARRIVAL: u32 = 1 << 31;

/// Flat-array reduce-side grouper for a bounded key domain: the dense
/// counterpart of the sort-at-reduce route. One per reduce
/// worker thread, recycled across every partition that worker reduces.
///
/// The shape is a counting sort that never moves keys: a counting pass
/// over the runs (stashing each radix), a prefix pass laying the groups
/// out in ascending-key arena order, and a placement pass that moves
/// **values only** into the arena — each group's first arrival parks its
/// key. Emission then walks the arena once, sequentially, handing every
/// group to the reduce function. No comparison sort, no per-group
/// allocations, no key equality checks, and ~half the bytes moved of a
/// pair-permuting sort. One `u32` array serves as histogram and
/// write-cursor table both (the classic in-place counting-sort trick),
/// so the per-pair cache footprint matches a counting sort's histogram
/// and both hot passes reuse the same lines.
///
/// It never clones a key and carries no `Ord` bound: keys are moved in,
/// borrowed by the reduce function, and dropped; ordering comes entirely
/// from the radix image (the sealed [`crate::RadixKey`] contract makes
/// radix order *be* key order).
pub(crate) struct DenseReducer<K, V> {
    /// The one per-radix table, indexed by `radix − lo` and sized to the
    /// widest partition key range seen so far. During the counting pass
    /// an entry is the slot's pair count; the prefix pass rewrites
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
    /// Per-pair slot offsets (`radix − lo`) stashed by the counting pass
    /// so no later pass invokes the codec again. `u32` on purpose: slot
    /// offsets are bounded by the domain cap, and halving the stash
    /// halves the traffic of the two hottest passes.
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

    /// Reduces one partition: groups the (unsorted) `runs` by key and
    /// invokes `reduce` once per key, key groups in ascending key order
    /// and each group's values in `(split id, arrival order)` order —
    /// `runs` must arrive in split-id order with arrival order inside
    /// each run, exactly the shape the shuffle ships.
    ///
    /// # Panics
    ///
    /// Panics when a key's radix reaches `domain_hint` — a broken
    /// [`crate::EngineConfig::key_domain_hint`] must fail loudly rather
    /// than mis-group.
    pub(crate) fn reduce_runs<R>(
        &mut self,
        runs: Vec<Vec<(K, V)>>,
        radix_of: impl Fn(&K) -> u64,
        domain_hint: u64,
        reduce: &ReduceDyn<K, V, R>,
        rctx: &mut ReduceContext<R>,
    ) {
        let total: usize = runs.iter().map(Vec::len).sum();
        if total == 0 {
            return;
        }
        assert!(
            total < FIRST_ARRIVAL as usize,
            "partition exceeds tagged-u32 indexing"
        );
        assert!(
            domain_hint <= 1 << 32,
            "dense reduce requires a u32-sized key domain"
        );

        // Counting pass: extract every radix once, tracking the
        // partition's actual key range so the slot arrays cover
        // `max − min + 1` entries instead of the full declared domain.
        self.radixes.clear();
        self.radixes.reserve(total);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for run in &runs {
            for (k, _) in run {
                let r = radix_of(k);
                lo = lo.min(r);
                hi = hi.max(r);
                // Truncation is safe: `hi` tracks the untruncated image,
                // and the assert below rejects anything over the domain
                // cap before the stash is ever used.
                self.radixes.push(r as u32);
            }
        }
        assert!(
            hi < domain_hint,
            "key radix {hi} outside the declared key_domain_hint {domain_hint}"
        );
        let width = (hi - lo + 1) as usize;
        if self.slots.len() < width {
            // Fresh entries are zero; previously used ones were zeroed by
            // the per-partition reset, so no clear is needed here.
            self.slots.resize(width, 0);
        }
        // Mode selection, fixed before counting: partitions whose pair
        // count justifies walking the whole slot range take the
        // branch-free dense-scan pipeline (no touched bookkeeping, no
        // comparison sort, vectorized reset); very sparse partitions —
        // the sampling builders' regime — track touched slots instead
        // and sort just those, O(d log d) with d ≪ width.
        let dense_scan = total * 16 >= width;

        // Counting pass, rebasing the stash to slot offsets on the way
        // through so the placement pass indexes with the subtraction
        // already done.
        let lo32 = lo as u32;
        let mut groups = 0usize;
        if dense_scan {
            for r in &mut self.radixes {
                *r -= lo32;
                self.slots[*r as usize] += 1;
            }
        } else {
            // Branch-free touched tracking: the write is unconditional,
            // the cursor advances only on first touches.
            if self.touched.len() < total {
                self.touched.resize(total, 0);
            }
            let mut d = 0usize;
            for r in &mut self.radixes {
                *r -= lo32;
                let slot = *r as usize;
                let count = self.slots[slot];
                self.touched[d] = *r;
                d += usize::from(count == 0);
                self.slots[slot] = count + 1;
            }
            groups = d;
        }

        // Prefix pass: lay the groups out in ascending-key arena order,
        // rewriting each slot from its count to a tagged group index. The
        // dense scan is branch-free — every iteration writes the current
        // group candidate and only the cursors advance conditionally —
        // which is what makes a full-range walk cheaper than sorting.
        // (It never records group slots: its reset is a range fill and
        // its emission indexes by group, so the buffer would be dead
        // weight.)
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_reduce_groups(
        table: &mut DenseReducer<u32, u64>,
        runs: Vec<Vec<(u32, u64)>>,
        hint: u64,
    ) -> Vec<(u32, Vec<u64>)> {
        let mut rctx = ReduceContext::new();
        let reduce = |k: &u32, vs: &[u64], ctx: &mut ReduceContext<(u32, Vec<u64>)>| {
            ctx.emit((*k, vs.to_vec()));
        };
        table.reduce_runs(runs, |k| u64::from(*k), hint, &reduce, &mut rctx);
        rctx.outputs
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
        let mut table = DenseReducer::new();
        assert_eq!(
            dense_reduce_groups(&mut table, runs, 16),
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
        let mut table = DenseReducer::new();
        let got = dense_reduce_groups(&mut table, runs, 4096);
        assert_eq!(got, vec![(1000, vec![2]), (1004, vec![3]), (1009, vec![1])]);
        assert_eq!(
            table.slots.len(),
            10,
            "the slot table must cover max − min + 1 radixes, not the domain"
        );
    }

    #[test]
    fn reducer_recycles_cleanly_across_partitions() {
        let mut table = DenseReducer::new();
        for round in 0..4u64 {
            // Different key range each round, including a widening one.
            let base = (round * 37) as u32;
            let runs: Vec<Vec<(u32, u64)>> = (0..3)
                .map(|s| {
                    (0..50u64)
                        .map(|i| (base + ((i * 7 + s) % (20 + round * 9)) as u32, i))
                        .collect()
                })
                .collect();
            // Reference: stable sort of the split-ordered concatenation.
            let mut flat: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
            flat.sort_by_key(|&(k, _)| k);
            let mut want: Vec<(u32, Vec<u64>)> = Vec::new();
            for (k, v) in flat {
                match want.last_mut() {
                    Some((key, vs)) if *key == k => vs.push(v),
                    _ => want.push((k, vec![v])),
                }
            }
            assert_eq!(
                dense_reduce_groups(&mut table, runs, 1 << 10),
                want,
                "round {round}"
            );
            // Reset discipline: every touched slot is zeroed again, so
            // the next partition can trust the table without a clear.
            assert!(
                table.slots.iter().all(|&c| c == 0),
                "round {round}: slots reset"
            );
            assert!(
                table.keys.iter().all(Option::is_none),
                "round {round}: keys drained"
            );
        }
        // The arena kept its allocation across partitions.
        assert!(table.arena.capacity() > 0);
    }

    #[test]
    fn reducer_handles_empty_partitions() {
        let mut table: DenseReducer<u32, u64> = DenseReducer::new();
        assert!(dense_reduce_groups(&mut table, vec![], 8).is_empty());
        assert!(dense_reduce_groups(&mut table, vec![vec![], vec![]], 8).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the declared key_domain_hint")]
    fn reducer_rejects_keys_outside_the_hint() {
        let mut table: DenseReducer<u32, u64> = DenseReducer::new();
        dense_reduce_groups(&mut table, vec![vec![(8u32, 1u64), (1, 2)]], 8);
    }
}
