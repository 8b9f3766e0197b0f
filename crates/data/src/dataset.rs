//! Lazy, split-partitioned datasets.
//!
//! A [`Dataset`] models the paper's setting: `n` records with keys from
//! `[u]`, stored as `m` HDFS splits of (roughly) equal record count. The
//! record at `(split j, position i)` is produced by a pure function of the
//! dataset seed, so scans are repeatable and random access is `O(1)` — see
//! the crate docs for why.

use crate::draw::sample_positions;
use crate::rng::{position_seed, split_seed, SplitMix64};
use crate::worldcup::WorldCupModel;
use crate::zipf::Zipf;
use wh_wavelet::Domain;

/// One logical record: a key plus its on-disk footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// 0-based key in the dataset's domain.
    pub key: u64,
    /// Total stored size of the record, key included (bytes).
    pub bytes: u32,
}

/// Static facts about one split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMeta {
    /// Split index `j ∈ 0..m`.
    pub id: u32,
    /// Number of records in the split (`n_j`).
    pub records: u64,
    /// Stored size of the split in bytes.
    pub bytes: u64,
}

impl SplitMeta {
    /// Split `j` of `num_records` records of `record_bytes` each, dealt
    /// as evenly as possible over `num_splits` splits.
    pub(crate) fn of(j: u32, num_records: u64, num_splits: u32, record_bytes: u32) -> Self {
        assert!(j < num_splits, "split {j} out of {num_splits}");
        let m = u64::from(num_splits);
        let records = num_records / m + u64::from(u64::from(j) < num_records % m);
        SplitMeta {
            id: j,
            records,
            bytes: records * u64::from(record_bytes),
        }
    }
}

/// Key distribution of a dataset.
#[derive(Debug, Clone, Copy)]
pub enum Distribution {
    /// Zipf with exponent `alpha`; rank r ↔ key r (rank 0 most frequent).
    Zipf { alpha: f64 },
    /// Zipf with ranks scattered over the domain by a fixed bijection, so
    /// heavy keys are not clustered at the left edge of the signal.
    ScrambledZipf { alpha: f64 },
    /// Uniform over the domain.
    Uniform,
    /// WorldCup-like access log (see [`crate::worldcup`]).
    WorldCup,
}

/// A reproducible, lazily generated dataset split into `m` pieces.
#[derive(Debug, Clone)]
pub struct Dataset {
    domain: Domain,
    num_records: u64,
    num_splits: u32,
    record_bytes: u32,
    key_bytes: u32,
    seed: u64,
    sampler: Sampler,
}

#[derive(Debug, Clone)]
enum Sampler {
    Zipf(Zipf),
    ScrambledZipf(Zipf),
    Uniform,
    WorldCup(WorldCupModel),
}

/// Builder for [`Dataset`]; the defaults are the paper's §5 defaults scaled
/// down (α = 1.1, u = 2²⁰, n = 2²⁴, 4-byte records, 64 splits).
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    domain: Domain,
    distribution: Distribution,
    num_records: u64,
    num_splits: u32,
    record_bytes: u32,
    key_bytes: u32,
    seed: u64,
}

impl Default for DatasetBuilder {
    fn default() -> Self {
        Self {
            domain: Domain::new(20).expect("valid default domain"),
            distribution: Distribution::Zipf { alpha: 1.1 },
            num_records: 1 << 24,
            num_splits: 64,
            record_bytes: 4,
            key_bytes: 4,
            seed: 0x77_68_64_61_74_61, // "whdata"
        }
    }
}

impl DatasetBuilder {
    /// Starts from the workspace defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the key domain.
    pub fn domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Sets the key distribution.
    pub fn distribution(mut self, d: Distribution) -> Self {
        self.distribution = d;
        self
    }

    /// Sets the total record count `n`.
    pub fn records(mut self, n: u64) -> Self {
        self.num_records = n;
        self
    }

    /// Sets the number of splits `m`.
    pub fn splits(mut self, m: u32) -> Self {
        self.num_splits = m;
        self
    }

    /// Sets the stored record size in bytes (≥ key size).
    pub fn record_bytes(mut self, b: u32) -> Self {
        self.record_bytes = b;
        self
    }

    /// Sets the wire size of a key (4 or 8 bytes typically).
    pub fn key_bytes(mut self, b: u32) -> Self {
        self.key_bytes = b;
        self
    }

    /// Sets the dataset seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builds the dataset.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero records/splits, record
    /// smaller than its key, more splits than records).
    pub fn build(self) -> Dataset {
        assert!(self.num_records > 0, "dataset must have records");
        assert!(self.num_splits > 0, "dataset must have splits");
        assert!(
            u64::from(self.num_splits) <= self.num_records,
            "more splits ({}) than records ({})",
            self.num_splits,
            self.num_records
        );
        assert!(
            self.record_bytes >= self.key_bytes,
            "record ({} B) smaller than key ({} B)",
            self.record_bytes,
            self.key_bytes
        );
        let sampler = match self.distribution {
            Distribution::Zipf { alpha } => Sampler::Zipf(Zipf::new(self.domain.u(), alpha)),
            Distribution::ScrambledZipf { alpha } => {
                Sampler::ScrambledZipf(Zipf::new(self.domain.u(), alpha))
            }
            Distribution::Uniform => Sampler::Uniform,
            Distribution::WorldCup => Sampler::WorldCup(WorldCupModel::new(self.domain)),
        };
        Dataset {
            domain: self.domain,
            num_records: self.num_records,
            num_splits: self.num_splits,
            record_bytes: self.record_bytes,
            key_bytes: self.key_bytes,
            seed: self.seed,
            sampler,
        }
    }
}

impl Dataset {
    /// Shorthand for the default Zipf dataset with overridable basics.
    pub fn zipf(log_u: u32, alpha: f64, n: u64, m: u32) -> Self {
        DatasetBuilder::new()
            .domain(Domain::new(log_u).expect("log_u within range"))
            .distribution(Distribution::Zipf { alpha })
            .records(n)
            .splits(m)
            .build()
    }

    /// The key domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Total records `n`.
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Number of splits `m`.
    pub fn num_splits(&self) -> u32 {
        self.num_splits
    }

    /// Stored record size (bytes).
    pub fn record_bytes(&self) -> u32 {
        self.record_bytes
    }

    /// Key wire size (bytes).
    pub fn key_bytes(&self) -> u32 {
        self.key_bytes
    }

    /// Total stored size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.num_records * u64::from(self.record_bytes)
    }

    /// Metadata for split `j`.
    ///
    /// Records are distributed as evenly as possible: the first
    /// `n mod m` splits get one extra record.
    pub fn split_meta(&self, j: u32) -> SplitMeta {
        SplitMeta::of(j, self.num_records, self.num_splits, self.record_bytes)
    }

    /// The record at position `i` of the split whose [`split_seed`] is
    /// `split_seed`: the one per-record function behind random access,
    /// scans and samples.
    #[inline]
    fn record(&self, split_seed: u64, i: u64) -> Record {
        let mut rng = SplitMix64::new(position_seed(split_seed, i));
        let key = match &self.sampler {
            Sampler::Zipf(z) => z.sample(&mut rng),
            Sampler::ScrambledZipf(z) => scramble(z.sample(&mut rng), self.domain),
            Sampler::Uniform => rng.next_below(self.domain.u()),
            Sampler::WorldCup(w) => w.sample(&mut rng),
        };
        Record {
            key,
            bytes: self.record_bytes,
        }
    }

    /// The record at `(split j, position i)` — `O(1)`.
    #[inline]
    pub fn record_at(&self, j: u32, i: u64) -> Record {
        debug_assert!(i < self.split_meta(j).records);
        self.record(split_seed(self.seed, j), i)
    }

    /// Sequentially scans split `j`.
    #[inline]
    pub fn scan_split(&self, j: u32) -> impl Iterator<Item = Record> + '_ {
        let records = self.split_meta(j).records;
        let split_seed = split_seed(self.seed, j);
        (0..records).map(move |i| self.record(split_seed, i))
    }

    /// Draws `count` record positions of split `j` **without replacement**,
    /// reading only those records, in ascending position order — the
    /// RandomRecordReader of Appendix B. The positions come from
    /// [`crate::draw::floyd`], ascending by construction; its bitset takes
    /// `⌈n_j/64⌉` words whatever `count` is.
    pub fn sample_split(&self, j: u32, count: u64, sample_seed: u64) -> Vec<Record> {
        let nj = self.split_meta(j).records;
        let split_seed = split_seed(self.seed, j);
        sample_positions(self.seed ^ sample_seed, j, nj, count)
            .into_iter()
            .map(|i| self.record(split_seed, i))
            .collect()
    }

    /// The exact global frequency vector, computed by a full scan.
    /// Materialises `u` counters; intended for evaluation (ground truth).
    pub fn exact_frequency_vector(&self) -> Vec<u64> {
        let mut v = vec![0u64; usize::try_from(self.domain.u()).expect("u fits in memory")];
        for j in 0..self.num_splits {
            for r in self.scan_split(j) {
                v[usize::try_from(r.key).expect("key fits usize")] += 1;
            }
        }
        v
    }
}

/// A fixed measure-preserving bijection on the domain (odd-multiplier
/// affine map modulo a power of two, then bit-avalanche masked back).
#[inline]
fn scramble(rank: u64, domain: Domain) -> u64 {
    let mask = domain.u() - 1;
    // Odd multiplier => bijection modulo 2^log_u.
    rank.wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        small_of(Distribution::Zipf { alpha: 1.1 })
    }

    #[test]
    fn split_sizes_partition_n() {
        let ds = small();
        let sizes = || (0..ds.num_splits()).map(|j| ds.split_meta(j).records);
        assert_eq!(sizes().sum::<u64>(), 10_000);
        let min = sizes().min().unwrap();
        let max = sizes().max().unwrap();
        assert!(max - min <= 1);
    }

    const ALL_DISTRIBUTIONS: [Distribution; 4] = [
        Distribution::Zipf { alpha: 1.1 },
        Distribution::ScrambledZipf { alpha: 1.1 },
        Distribution::Uniform,
        Distribution::WorldCup,
    ];

    fn small_of(distribution: Distribution) -> Dataset {
        DatasetBuilder::new()
            .domain(Domain::new(10).unwrap())
            .distribution(distribution)
            .records(10_000)
            .splits(7)
            .seed(42)
            .build()
    }

    #[test]
    fn scan_is_deterministic_and_matches_random_access() {
        for dist in ALL_DISTRIBUTIONS {
            let ds = small_of(dist);
            let scanned: Vec<Record> = ds.scan_split(3).collect();
            for (i, r) in scanned.iter().enumerate() {
                assert_eq!(*r, ds.record_at(3, i as u64), "{dist:?} position {i}");
            }
            let again: Vec<Record> = ds.scan_split(3).collect();
            assert_eq!(scanned, again, "{dist:?}");
        }
    }

    /// `mix64`-chained fold of the first 2^16 keys of a scan.
    fn key_fold(ds: &Dataset, j: u32) -> u64 {
        ds.scan_split(j)
            .take(1 << 16)
            .fold(0, |acc, r| crate::rng::mix64(acc ^ r.key))
    }

    #[test]
    fn key_streams_match_the_pinned_folds() {
        // Splits 0 and 3 of n = 2^20 records in 8 splits, seed 7, folded
        // at the commit before the sampler and the scan were rewritten
        // (PR 19): the generator must keep producing these exact keys.
        for (dist, log_u, split_0, split_3) in [
            (
                Distribution::Zipf { alpha: 1.1 },
                18,
                0x1f93_d42e_7230_3e03,
                0xffd9_2a8b_e812_3bb7,
            ),
            (
                Distribution::Zipf { alpha: 0.8 },
                20,
                0x2e61_2444_a70f_c178,
                0x4f4d_5ba3_7956_e93d,
            ),
            (
                Distribution::ScrambledZipf { alpha: 1.1 },
                20,
                0x6e15_fbe1_7d91_1681,
                0xa0d5_1424_4e21_7e7f,
            ),
            (
                Distribution::Uniform,
                20,
                0x2b0a_06ba_e881_2e60,
                0x6ce0_aa3c_db2a_e085,
            ),
            (
                Distribution::WorldCup,
                20,
                0xecf4_69f9_7797_0465,
                0xdd40_240e_647e_1530,
            ),
        ] {
            let ds = DatasetBuilder::new()
                .domain(Domain::new(log_u).unwrap())
                .distribution(dist)
                .records(1 << 20)
                .splits(8)
                .seed(7)
                .build();
            assert_eq!(key_fold(&ds, 0), split_0, "{dist:?} u=2^{log_u} split 0");
            assert_eq!(key_fold(&ds, 3), split_3, "{dist:?} u=2^{log_u} split 3");
        }
    }

    #[test]
    fn keys_stay_in_domain() {
        for dist in ALL_DISTRIBUTIONS {
            let ds = DatasetBuilder::new()
                .domain(Domain::new(8).unwrap())
                .distribution(dist)
                .records(5_000)
                .splits(4)
                .build();
            for j in 0..4 {
                for r in ds.scan_split(j) {
                    assert!(r.key < 256, "{dist:?} produced key {}", r.key);
                }
            }
        }
    }

    #[test]
    fn sample_without_replacement_positions_unique() {
        for dist in ALL_DISTRIBUTIONS {
            let ds = small_of(dist);
            let nj = ds.split_meta(0).records;
            let sample = ds.sample_split(0, nj, 1);
            assert_eq!(sample.len() as u64, nj);
            // Sampling everything equals scanning (as a multiset; positions
            // are sorted so it is exactly the scan).
            let scan: Vec<Record> = ds.scan_split(0).collect();
            assert_eq!(sample, scan, "{dist:?}");
        }
    }

    #[test]
    fn sample_smaller_than_split() {
        let ds = small();
        let sample = ds.sample_split(2, 100, 7);
        assert_eq!(sample.len(), 100);
        for r in &sample {
            assert!(r.key < 1024);
        }
        // Different sample seeds give different samples.
        let other = ds.sample_split(2, 100, 8);
        assert_ne!(sample, other);
    }

    #[test]
    fn frequency_vector_sums_to_n() {
        let ds = small();
        let v = ds.exact_frequency_vector();
        assert_eq!(v.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn zipf_dataset_is_skewed() {
        let ds = Dataset::zipf(10, 1.4, 50_000, 5);
        let v = ds.exact_frequency_vector();
        // Head keys dominate under α=1.4.
        let head: u64 = v[..8].iter().sum();
        assert!(head > 25_000, "head mass {head}");
    }

    #[test]
    fn scramble_is_bijective() {
        let domain = Domain::new(10).unwrap();
        let mut seen = vec![false; 1024];
        for r in 0..1024u64 {
            let s = scramble(r, domain) as usize;
            assert!(!seen[s]);
            seen[s] = true;
        }
    }

    #[test]
    fn virtual_payload_sizes() {
        let ds = DatasetBuilder::new()
            .records(100)
            .splits(2)
            .record_bytes(100_000)
            .build();
        assert_eq!(ds.total_bytes(), 10_000_000);
        assert_eq!(ds.record_at(0, 0).bytes, 100_000);
    }

    #[test]
    #[should_panic(expected = "more splits")]
    fn too_many_splits_panics() {
        DatasetBuilder::new().records(3).splits(10).build();
    }
}
