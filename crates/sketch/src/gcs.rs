//! The Group-Count Sketch (Cormode, Garofalakis, Sacharidis — EDBT'06, the
//! paper's reference \[13\]).
//!
//! GCS organises the coefficient domain into a `b`-ary hierarchy: level 0
//! is the individual coefficients, level `l` groups `b^l` consecutive
//! coefficient slots. One sub-bucketed CountSketch per level estimates the
//! **energy** (squared L2 mass) of any group at that level, so the heavy
//! coefficients can be found by best-first descent from the root instead of
//! probing all `u` slots, bought with `log_b u`-times more work per update
//! (the paper's "GCS-8" balances the two with `b = 8`).
//!
//! Per level, each row hashes the *group* to a bucket and the *item* to a
//! sub-bucket inside it, with a 4-wise sign on the item:
//!
//! ```text
//! table[row][bucket(group)][sub(item)] += sign(item) · delta
//! ```
//!
//! The energy of a group is estimated as the median over rows of the sum
//! of squared sub-counters in the group's bucket; value estimates at level
//! 0 use the plain CountSketch estimator.

use crate::hash::PolyHash;
use wh_wavelet::select::{sort_by_magnitude, CoefEntry};
use wh_wavelet::Domain;

/// Sizing of a [`GroupCountSketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcsParams {
    /// Branching factor `b` of the group hierarchy (power of two).
    pub branching: usize,
    /// Independent rows (median repetitions).
    pub rows: usize,
    /// Buckets per row.
    pub buckets: usize,
    /// Sub-buckets per bucket.
    pub subbuckets: usize,
    /// Hash seed; equal seeds ⇒ mergeable sketches.
    pub seed: u64,
}

impl GcsParams {
    /// The paper's recommended configuration: GCS-8 with a space budget of
    /// roughly `20 KB · log₂ u` across all levels.
    pub fn paper_default(domain: Domain, seed: u64) -> Self {
        Self::with_budget(domain, 8, 20 * 1024 * domain.log_u().max(1) as usize, seed)
    }

    /// Builds parameters targeting `total_bytes` of counter space split
    /// evenly over the hierarchy levels, with `rows` = 3 and a 4:1
    /// bucket:sub-bucket split.
    pub fn with_budget(domain: Domain, branching: usize, total_bytes: usize, seed: u64) -> Self {
        assert!(
            branching >= 2 && branching.is_power_of_two(),
            "branching must be a power of two ≥ 2"
        );
        let levels = num_levels(domain, branching);
        let rows = 3;
        // counters = levels × rows × buckets × subbuckets × 8 bytes.
        let per_level = (total_bytes / 8 / levels / rows).max(16);
        let subbuckets = (per_level as f64).sqrt().max(2.0) as usize / 2 * 2;
        let subbuckets = subbuckets.clamp(2, 64);
        let buckets = (per_level / subbuckets).max(2);
        Self {
            branching,
            rows,
            buckets,
            subbuckets,
            seed,
        }
    }
}

/// Number of levels for `domain` under branching `b` (level 0 included).
fn num_levels(domain: Domain, branching: usize) -> usize {
    let lb = branching.trailing_zeros();
    (domain.log_u() as usize).div_ceil(lb as usize) + 1
}

/// In-place median (lower median for even lengths).
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = (values.len() - 1) / 2;
    values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("no NaN"));
    values[mid]
}

/// One level's sketch.
#[derive(Debug, Clone, PartialEq)]
struct LevelSketch {
    buckets: usize,
    subbuckets: usize,
    rows: usize,
    table: Vec<f64>, // rows × buckets × subbuckets
    group_hash: Vec<PolyHash>,
    item_hash: Vec<PolyHash>,
    sign_hash: Vec<PolyHash>,
}

impl LevelSketch {
    fn new(params: &GcsParams, level: usize) -> Self {
        let rows = params.rows;
        let mk = |kind: u64| {
            (0..rows)
                .map(|r| {
                    PolyHash::from_seed(params.seed, (level as u64) << 32 | kind << 16 | r as u64)
                })
                .collect::<Vec<_>>()
        };
        Self {
            buckets: params.buckets,
            subbuckets: params.subbuckets,
            rows,
            table: vec![0.0; rows * params.buckets * params.subbuckets],
            group_hash: mk(0),
            item_hash: mk(1),
            sign_hash: mk(2),
        }
    }

    #[inline]
    fn slot_index(&self, row: usize, group: u64, item: u64) -> usize {
        let b = self.group_hash[row].bucket(group, self.buckets as u64) as usize;
        let s = self.item_hash[row].bucket(item, self.subbuckets as u64) as usize;
        (row * self.buckets + b) * self.subbuckets + s
    }

    #[inline]
    fn update(&mut self, group: u64, item: u64, delta: f64) {
        for r in 0..self.rows {
            let idx = self.slot_index(r, group, item);
            self.table[idx] += self.sign_hash[r].sign(item) * delta;
        }
    }

    fn group_energy(&self, group: u64) -> f64 {
        let mut per_row: Vec<f64> = (0..self.rows)
            .map(|r| {
                let b = self.group_hash[r].bucket(group, self.buckets as u64) as usize;
                let base = (r * self.buckets + b) * self.subbuckets;
                self.table[base..base + self.subbuckets]
                    .iter()
                    .map(|x| x * x)
                    .sum()
            })
            .collect();
        median(&mut per_row)
    }

    fn item_estimate(&self, group: u64, item: u64) -> f64 {
        let mut per_row: Vec<f64> = (0..self.rows)
            .map(|r| {
                let idx = self.slot_index(r, group, item);
                self.sign_hash[r].sign(item) * self.table[idx]
            })
            .collect();
        median(&mut per_row)
    }
}

/// The full hierarchical sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCountSketch {
    domain: Domain,
    params: GcsParams,
    /// `levels[0]` is the leaf level (groups of size 1).
    levels: Vec<LevelSketch>,
    log_b: u32,
}

impl GroupCountSketch {
    /// An empty sketch over `domain`.
    pub fn new(domain: Domain, params: GcsParams) -> Self {
        let n = num_levels(domain, params.branching);
        let levels = (0..n).map(|l| LevelSketch::new(&params, l)).collect();
        Self {
            domain,
            params,
            levels,
            log_b: params.branching.trailing_zeros(),
        }
    }

    /// Adds `delta` to coefficient `slot`; returns row-updates performed
    /// (for CPU accounting).
    pub fn update_coefficient(&mut self, slot: u64, delta: f64) -> u64 {
        debug_assert!(slot < self.domain.u());
        for (l, level) in self.levels.iter_mut().enumerate() {
            let group = slot >> (self.log_b as usize * l).min(63);
            level.update(group, slot, delta);
        }
        (self.levels.len() * self.params.rows) as u64
    }

    /// Adds `count` occurrences of key `x` (expands to the `log u + 1`
    /// wavelet coefficient updates); returns row-updates performed.
    pub fn update_key(&mut self, x: u64, count: f64) -> u64 {
        let mut ops = 0;
        wh_wavelet::sparse::coefficient_updates(self.domain, x, count, |slot, delta| {
            ops += self.update_coefficient(slot, delta);
        });
        ops
    }

    /// Merges another sketch built with identical parameters.
    pub fn merge(&mut self, other: &GroupCountSketch) {
        assert_eq!(
            self.params, other.params,
            "merging incompatible GCS sketches"
        );
        assert_eq!(
            self.domain, other.domain,
            "merging GCS over different domains"
        );
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            for (x, y) in a.table.iter_mut().zip(&b.table) {
                *x += y;
            }
        }
    }

    /// Estimated value of coefficient `slot` (leaf-level CountSketch).
    pub fn estimate(&self, slot: u64) -> f64 {
        self.levels[0].item_estimate(slot, slot)
    }

    /// Estimated energy of the level-`l` group `g`.
    fn group_energy(&self, level: usize, group: u64) -> f64 {
        self.levels[level].group_energy(group)
    }

    /// Best-first search for the `k` highest-energy coefficients.
    ///
    /// Expands at most `expansion_budget` groups (defaulting callers should
    /// pass ~`4·k·log_b u`); descent always expands the frontier group of
    /// highest estimated energy, so with an adequate budget the true heavy
    /// coefficients are visited with high probability.
    pub fn topk(&self, k: usize, expansion_budget: usize) -> Vec<CoefEntry> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Frontier {
            energy: f64,
            level: usize,
            group: u64,
        }
        impl Eq for Frontier {}
        impl Ord for Frontier {
            fn cmp(&self, other: &Self) -> Ordering {
                self.energy
                    .partial_cmp(&other.energy)
                    .expect("no NaN energies")
                    .then_with(|| other.group.cmp(&self.group))
            }
        }
        impl PartialOrd for Frontier {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        if k == 0 {
            return Vec::new();
        }
        let top_level = self.levels.len() - 1;
        let top_groups = self.groups_at_level(top_level);
        let mut heap = BinaryHeap::new();
        for g in 0..top_groups {
            let e = self.group_energy(top_level, g);
            if e > 0.0 {
                heap.push(Frontier {
                    energy: e,
                    level: top_level,
                    group: g,
                });
            }
        }
        let mut leaves: Vec<CoefEntry> = Vec::new();
        let mut expansions = 0usize;
        while let Some(f) = heap.pop() {
            if f.level == 0 {
                let value = self.estimate(f.group);
                if value != 0.0 {
                    leaves.push(CoefEntry {
                        slot: f.group,
                        value,
                    });
                }
                if leaves.len() >= 4 * k {
                    break; // enough candidates to pick k from
                }
                continue;
            }
            expansions += 1;
            if expansions > expansion_budget {
                break;
            }
            let child_level = f.level - 1;
            let first_child = f.group << self.log_b;
            for c in 0..self.params.branching as u64 {
                let child = first_child + c;
                if child >= self.groups_at_level(child_level) {
                    break;
                }
                let e = self.group_energy(child_level, child);
                if e > 0.0 {
                    heap.push(Frontier {
                        energy: e,
                        level: child_level,
                        group: child,
                    });
                }
            }
        }
        let mut out = leaves;
        sort_by_magnitude(&mut out);
        out.truncate(k);
        out
    }

    /// Number of groups existing at `level`.
    fn groups_at_level(&self, level: usize) -> u64 {
        let shift = (self.log_b as usize * level).min(63);
        (self.domain.u() + (1 << shift) - 1) >> shift
    }

    /// Iterates over non-zero counters as `(global_index, value)` pairs —
    /// the representation a mapper ships to the reducer. Global indices
    /// enumerate level 0's table first, then level 1's, and so on.
    pub fn counter_entries(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let mut offset = 0u64;
        self.levels.iter().flat_map(move |l| {
            let base = offset;
            offset += l.table.len() as u64;
            l.table
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(move |(i, &v)| (base + i as u64, v))
        })
    }

    /// Adds `value` to the counter at `global_index` (merging shipped
    /// counters into a fresh sketch with identical parameters).
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    pub fn add_counter(&mut self, global_index: u64, value: f64) {
        let mut idx = global_index;
        for l in &mut self.levels {
            if (idx as usize) < l.table.len() {
                l.table[idx as usize] += value;
                return;
            }
            idx -= l.table.len() as u64;
        }
        panic!("counter index {global_index} out of range");
    }

    /// Total counters across all levels.
    pub fn total_counters(&self) -> usize {
        self.levels.iter().map(|l| l.table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_params(seed: u64) -> GcsParams {
        GcsParams {
            branching: 8,
            rows: 5,
            buckets: 64,
            subbuckets: 16,
            seed,
        }
    }

    #[test]
    fn levels_cover_domain() {
        let domain = Domain::new(12).unwrap();
        let g = GroupCountSketch::new(domain, test_params(1));
        assert_eq!(g.levels.len(), 5); // ceil(12/3) + 1
        assert_eq!(g.groups_at_level(0), 1 << 12);
        assert_eq!(g.groups_at_level(4), 1);
    }

    #[test]
    fn finds_planted_heavy_coefficients() {
        let domain = Domain::new(14).unwrap();
        let mut g = GroupCountSketch::new(domain, test_params(7));
        // Plant 5 heavy coefficients among light noise.
        let heavy = [3u64, 1000, 5000, 9000, 16000];
        for (i, &slot) in heavy.iter().enumerate() {
            g.update_coefficient(slot, 500.0 + i as f64 * 100.0);
        }
        for slot in (0..(1 << 14)).step_by(37) {
            g.update_coefficient(slot, 1.0);
        }
        let top = g.topk(5, 2000);
        let got: std::collections::BTreeSet<u64> = top.iter().map(|e| e.slot).collect();
        for &h in &heavy {
            assert!(got.contains(&h), "missing heavy slot {h}: got {got:?}");
        }
    }

    #[test]
    fn value_estimates_close_for_heavies() {
        let domain = Domain::new(12).unwrap();
        let mut g = GroupCountSketch::new(domain, test_params(9));
        g.update_coefficient(77, -800.0);
        for slot in (0..(1 << 12)).step_by(29) {
            g.update_coefficient(slot, 1.0);
        }
        let est = g.estimate(77);
        assert!((est - -800.0).abs() < 40.0, "estimate {est}");
    }

    #[test]
    fn merge_matches_single_stream() {
        let domain = Domain::new(8).unwrap();
        let p = test_params(5);
        let mut a = GroupCountSketch::new(domain, p);
        let mut b = GroupCountSketch::new(domain, p);
        let mut whole = GroupCountSketch::new(domain, p);
        for x in 0..100u64 {
            a.update_key(x % 256, 1.0);
            whole.update_key(x % 256, 1.0);
        }
        for x in 0..60u64 {
            b.update_key((x * 3) % 256, 2.0);
            whole.update_key((x * 3) % 256, 2.0);
        }
        a.merge(&b);
        // Compare counters with a float tolerance: merged vs single-stream
        // summation order differs.
        for (la, lw) in a.levels.iter().zip(&whole.levels) {
            for (x, y) in la.table.iter().zip(&lw.table) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn update_cost_scales_with_levels_and_rows() {
        let domain = Domain::new(9).unwrap();
        let mut g = GroupCountSketch::new(domain, test_params(2));
        let ops = g.update_coefficient(1, 1.0);
        assert_eq!(ops, (g.levels.len() * 5) as u64);
        let key_ops = g.update_key(3, 1.0);
        assert_eq!(key_ops, ops * 10); // (log u + 1) coefficient updates
    }

    #[test]
    fn paper_default_within_budget() {
        let domain = Domain::new(20).unwrap();
        let p = GcsParams::paper_default(domain, 3);
        let g = GroupCountSketch::new(domain, p);
        let bytes = g.total_counters() * 8;
        let budget = 20 * 1024 * 20;
        assert!(bytes <= budget * 2, "sketch {bytes} B vs budget {budget} B");
        assert!(bytes >= budget / 8, "sketch suspiciously small: {bytes} B");
    }

    #[test]
    fn median_lower_of_even() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        let mut v = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
    }

    #[test]
    fn empty_sketch_topk_empty() {
        let domain = Domain::new(8).unwrap();
        let g = GroupCountSketch::new(domain, test_params(4));
        assert!(g.topk(5, 100).is_empty());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_different_params_panics() {
        let domain = Domain::new(8).unwrap();
        let mut a = GroupCountSketch::new(domain, test_params(1));
        let b = GroupCountSketch::new(domain, test_params(2));
        a.merge(&b);
    }
}

#[cfg(test)]
mod flat_counter_tests {
    use super::*;

    #[test]
    fn counter_entries_roundtrip_through_add() {
        let domain = Domain::new(10).unwrap();
        let p = GcsParams {
            branching: 4,
            rows: 3,
            buckets: 32,
            subbuckets: 8,
            seed: 6,
        };
        let mut src = GroupCountSketch::new(domain, p);
        for x in 0..200u64 {
            src.update_key(x % 1024, (x % 5) as f64 + 1.0);
        }
        let mut dst = GroupCountSketch::new(domain, p);
        for (idx, v) in src.counter_entries() {
            dst.add_counter(idx, v);
        }
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_counter_bounds_checked() {
        let domain = Domain::new(4).unwrap();
        let p = GcsParams {
            branching: 4,
            rows: 2,
            buckets: 4,
            subbuckets: 2,
            seed: 1,
        };
        let mut g = GroupCountSketch::new(domain, p);
        let total = g.total_counters() as u64;
        g.add_counter(total, 1.0);
    }
}
