//! Two-dimensional datasets for the multi-dimensional extensions (§3/§4
//! "Multi-dimensional wavelets").
//!
//! Keys are cells `(x, y) ∈ [u]²`. The generators mirror the 1-D ones, plus
//! a *correlated* model (`y` near `x`) that exercises the sparse-data
//! regime the paper warns about: with mass spread along a diagonal band,
//! most cells are empty and sampling error is relatively larger.
//!
//! [`Distribution2d::WorldCup`] is the 2-D face of the synthetic
//! WorldCup'98 log in [`crate::worldcup`]: the access trace viewed as
//! (time bucket × object id), the shape a cardinality estimator probes
//! with time × object rectangle predicates. Object popularity is
//! Zipf(1.05) as in the 1-D model; each object's requests cluster around
//! a per-object burst phase in time, with Zipf(1.2) burst offsets, so
//! the joint distribution is genuinely correlated rather than a product
//! of its marginals.

use crate::dataset::SplitMeta;
use crate::draw::sample_positions;
use crate::rng::{record_seed, SplitMix64};
use crate::worldcup::WORLDCUP_RECORD_BYTES;
use crate::zipf::Zipf;
use wh_wavelet::Domain;

/// One 2-D record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record2d {
    /// Row key (0-based).
    pub x: u64,
    /// Column key (0-based).
    pub y: u64,
    /// Stored size in bytes.
    pub bytes: u32,
}

/// 2-D key distribution.
#[derive(Debug, Clone, Copy)]
pub enum Distribution2d {
    /// Independent Zipf marginals.
    IndependentZipf { alpha_x: f64, alpha_y: f64 },
    /// `x` Zipf, `y = (x + Laplace-ish offset) mod u`: a diagonal band.
    Correlated { alpha: f64, spread: u64 },
    /// Uniform cells.
    Uniform,
    /// WorldCup-style (time × object): `y` an object id from Zipf(1.05),
    /// `x` a time bucket near that object's burst phase, offset by
    /// Zipf(1.2). Mirrors [`crate::worldcup::WorldCupModel`] in 2-D.
    WorldCup,
}

/// A lazy 2-D dataset over `[u]²`, split like its 1-D counterpart.
#[derive(Debug, Clone)]
pub struct Dataset2d {
    domain: Domain,
    distribution: Distribution2d,
    num_records: u64,
    num_splits: u32,
    record_bytes: u32,
    seed: u64,
    zx: Option<Zipf>,
    zy: Option<Zipf>,
}

impl Dataset2d {
    /// Creates a 2-D dataset; `domain` applies per dimension.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero records/splits, more
    /// splits than records) and when a cell no longer fits one key of a
    /// [`Domain`] (`2·log u >` [`Domain::MAX_LOG_U`]) — builders count
    /// cells as keys of the squared domain.
    pub fn new(
        domain: Domain,
        distribution: Distribution2d,
        num_records: u64,
        num_splits: u32,
        seed: u64,
    ) -> Self {
        assert!(num_records > 0 && num_splits > 0);
        assert!(u64::from(num_splits) <= num_records);
        assert!(
            2 * domain.log_u() <= Domain::MAX_LOG_U,
            "a cell of {domain}² does not fit one key"
        );
        let (zx, zy) = match distribution {
            Distribution2d::IndependentZipf { alpha_x, alpha_y } => (
                Some(Zipf::new(domain.u(), alpha_x)),
                Some(Zipf::new(domain.u(), alpha_y)),
            ),
            Distribution2d::Correlated { alpha, .. } => (Some(Zipf::new(domain.u(), alpha)), None),
            Distribution2d::Uniform => (None, None),
            // Burst offsets in time (zx) and object popularity (zy),
            // with the same exponents as the 1-D WorldCup model.
            Distribution2d::WorldCup => (
                Some(Zipf::new(domain.u(), 1.2)),
                Some(Zipf::new(domain.u(), 1.05)),
            ),
        };
        let record_bytes = match distribution {
            Distribution2d::WorldCup => WORLDCUP_RECORD_BYTES,
            _ => 8,
        };
        Self {
            domain,
            distribution,
            num_records,
            num_splits,
            record_bytes,
            seed,
            zx,
            zy,
        }
    }

    /// Per-dimension domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Total records.
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Number of splits.
    pub fn num_splits(&self) -> u32 {
        self.num_splits
    }

    /// Stored bytes per record (40 for the WorldCup log, 8 otherwise).
    pub fn record_bytes(&self) -> u32 {
        self.record_bytes
    }

    /// Metadata for split `j`: the same even deal as [`crate::Dataset`]'s.
    pub fn split_meta(&self, j: u32) -> SplitMeta {
        SplitMeta::of(j, self.num_records, self.num_splits, self.record_bytes)
    }

    /// `O(1)` access to record `(j, i)`.
    pub fn record_at(&self, j: u32, i: u64) -> Record2d {
        let mut rng = SplitMix64::new(record_seed(self.seed ^ 0x2d2d, j, i));
        let (x, y) = match self.distribution {
            Distribution2d::IndependentZipf { .. } => (
                self.zx.as_ref().expect("zx set").sample(&mut rng),
                self.zy.as_ref().expect("zy set").sample(&mut rng),
            ),
            Distribution2d::Correlated { spread, .. } => {
                let x = self.zx.as_ref().expect("zx set").sample(&mut rng);
                // Two-sided geometric-ish offset within ±spread.
                let off = rng.next_below(2 * spread + 1) as i64 - spread as i64;
                let y = (x as i64 + off).rem_euclid(self.domain.u() as i64) as u64;
                (x, y)
            }
            Distribution2d::Uniform => (
                rng.next_below(self.domain.u()),
                rng.next_below(self.domain.u()),
            ),
            Distribution2d::WorldCup => {
                let u = self.domain.u();
                let object = self.zy.as_ref().expect("zy set").sample(&mut rng);
                // Each object bursts at a fixed phase in time, derived
                // deterministically from (dataset seed, object id) so the
                // dataset stays O(1)-addressable; requests land at the
                // phase plus a heavy-tailed offset.
                let phase = SplitMix64::new(
                    (self.seed ^ 0x77c2_2d2d)
                        .wrapping_add(object.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                )
                .next_below(u);
                let off = self.zx.as_ref().expect("zx set").sample(&mut rng);
                let time = (phase + off) & (u - 1);
                (time, object)
            }
        };
        Record2d {
            x,
            y,
            bytes: self.record_bytes,
        }
    }

    /// Sequential scan of split `j`.
    pub fn scan_split(&self, j: u32) -> impl Iterator<Item = Record2d> + '_ {
        (0..self.split_meta(j).records).map(move |i| self.record_at(j, i))
    }

    /// Draws `count` record positions of split `j` **without replacement**,
    /// reading only those records, in ascending position order — the
    /// same [`crate::draw::floyd`] draw as [`crate::Dataset::sample_split`],
    /// ascending by construction, with a bitset of `⌈n_j/64⌉` words
    /// whatever `count` is.
    pub fn sample_split(&self, j: u32, count: u64, sample_seed: u64) -> Vec<Record2d> {
        let nj = self.split_meta(j).records;
        sample_positions(self.seed ^ sample_seed, j, nj, count)
            .into_iter()
            .map(|i| self.record_at(j, i))
            .collect()
    }

    /// Exact frequency array (row-major `u×u`), for ground truth on small
    /// domains.
    pub fn exact_frequency_array(&self) -> Vec<u64> {
        let u = usize::try_from(self.domain.u()).expect("u fits");
        let mut v = vec![0u64; u * u];
        for j in 0..self.num_splits {
            for r in self.scan_split(j) {
                v[r.x as usize * u + r.y as usize] += 1;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_in_domain() {
        let d = Dataset2d::new(
            Domain::new(6).unwrap(),
            Distribution2d::IndependentZipf {
                alpha_x: 1.1,
                alpha_y: 0.9,
            },
            5_000,
            4,
            1,
        );
        for j in 0..4 {
            for r in d.scan_split(j) {
                assert!(r.x < 64 && r.y < 64);
            }
        }
    }

    #[test]
    fn correlated_mass_near_diagonal() {
        let d = Dataset2d::new(
            Domain::new(8).unwrap(),
            Distribution2d::Correlated {
                alpha: 1.0,
                spread: 3,
            },
            20_000,
            4,
            2,
        );
        let mut near = 0u64;
        let mut total = 0u64;
        for j in 0..4 {
            for r in d.scan_split(j) {
                total += 1;
                let dist = (r.x as i64 - r.y as i64).rem_euclid(256);
                if dist <= 3 || dist >= 253 {
                    near += 1;
                }
            }
        }
        assert_eq!(near, total, "all mass within the band: {near}/{total}");
    }

    #[test]
    fn worldcup_time_object_is_correlated_and_skewed() {
        let d = Dataset2d::new(
            Domain::new(6).unwrap(),
            Distribution2d::WorldCup,
            40_000,
            4,
            5,
        );
        let u = 64usize;
        let mut cells = vec![0u64; u * u];
        for j in 0..4 {
            for r in d.scan_split(j) {
                assert!(r.x < 64 && r.y < 64);
                assert_eq!(r.bytes, WORLDCUP_RECORD_BYTES);
                cells[r.x as usize * u + r.y as usize] += 1;
            }
        }
        // Object marginal is heavy-tailed: the hottest object dominates.
        let mut objects = vec![0u64; u];
        for x in 0..u {
            for y in 0..u {
                objects[y] += cells[x * u + y];
            }
        }
        let hot = objects.iter().copied().max().unwrap();
        assert!(hot as f64 > 0.05 * 40_000.0, "hottest object: {hot}");
        // Time × object correlation: each object's requests cluster at its
        // burst phase, so per-object the hottest time bucket carries far
        // more than the uniform 1/u share.
        let y_hot = objects.iter().position(|&c| c == hot).unwrap();
        let peak = (0..u).map(|x| cells[x * u + y_hot]).max().unwrap();
        assert!(
            peak as f64 > 0.3 * hot as f64,
            "no burst phase: peak {peak} of {hot}"
        );
    }

    #[test]
    fn splits_partition_records() {
        let d = Dataset2d::new(Domain::new(4).unwrap(), Distribution2d::Uniform, 1003, 7, 3);
        let total: u64 = (0..7).map(|j| d.split_meta(j).records).sum();
        assert_eq!(total, 1003);
    }

    #[test]
    fn sampling_a_whole_split_is_its_scan() {
        let d = Dataset2d::new(Domain::new(4).unwrap(), Distribution2d::Uniform, 1003, 7, 3);
        let scan: Vec<Record2d> = d.scan_split(2).collect();
        assert_eq!(d.sample_split(2, u64::MAX, 1), scan);
        let some = d.sample_split(2, 40, 1);
        assert_eq!(some.len(), 40);
        assert_ne!(some, d.sample_split(2, 40, 2));
    }

    #[test]
    fn frequency_array_sums_to_n() {
        let d = Dataset2d::new(
            Domain::new(4).unwrap(),
            Distribution2d::Uniform,
            2_000,
            2,
            4,
        );
        let v = d.exact_frequency_array();
        assert_eq!(v.iter().sum::<u64>(), 2_000);
        assert_eq!(v.len(), 256);
    }

    #[test]
    fn cell_streams_match_the_pinned_folds() {
        // `mix64`-chained fold of the first 2^16 cells of splits 0 and 3
        // (u = 2^10 per axis, n = 2^19 in 4 splits, seed 7), computed at
        // the commit before the Zipf sampler was rewritten (PR 19).
        for (dist, split_0, split_3) in [
            (
                Distribution2d::IndependentZipf {
                    alpha_x: 1.1,
                    alpha_y: 0.9,
                },
                0xbad0_7a77_7910_0015,
                0xd478_b029_b574_8963,
            ),
            (
                Distribution2d::Correlated {
                    alpha: 1.0,
                    spread: 3,
                },
                0x2372_7311_f0cb_9dd7,
                0x5c12_1e9d_1cc5_6364,
            ),
            (
                Distribution2d::Uniform,
                0x41ed_07d0_f6ae_4c7a,
                0xb753_8fbe_915e_8e65,
            ),
            (
                Distribution2d::WorldCup,
                0x0d86_6236_59c3_c07e,
                0xd256_c827_8339_ed5b,
            ),
        ] {
            let d = Dataset2d::new(Domain::new(10).unwrap(), dist, 1 << 19, 4, 7);
            let fold = |j| {
                d.scan_split(j).take(1 << 16).fold(0, |acc, r| {
                    crate::rng::mix64(crate::rng::mix64(acc ^ r.x) ^ r.y)
                })
            };
            assert_eq!(fold(0), split_0, "{dist:?} split 0");
            assert_eq!(fold(3), split_3, "{dist:?} split 3");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit one key")]
    fn cells_wider_than_a_key_are_rejected() {
        let log_u = Domain::MAX_LOG_U / 2 + 1;
        Dataset2d::new(
            Domain::new(log_u).unwrap(),
            Distribution2d::Uniform,
            10,
            1,
            0,
        );
    }

    #[test]
    fn deterministic() {
        let d = Dataset2d::new(Domain::new(5).unwrap(), Distribution2d::Uniform, 100, 2, 9);
        let a: Vec<Record2d> = d.scan_split(1).collect();
        let b: Vec<Record2d> = d.scan_split(1).collect();
        assert_eq!(a, b);
    }
}
