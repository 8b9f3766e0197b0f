//! Small, fast, seedable RNG primitives for position-addressable data.
//!
//! [`SplitMix64`] is used as the per-record generator: deriving one from a
//! `(seed, split, position)` triple costs a couple of multiplies, so random
//! access into a dataset is as cheap as sequential scanning. It passes
//! standard statistical batteries for this workload (key sampling), and —
//! unlike `StdRng` (ChaCha12) — costs nothing to initialise per record.

use rand::{Error, RngCore, SeedableRng};

/// Stafford's Mix13 finaliser — the avalanche function behind SplitMix64.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a dataset seed with a split id into the seed all records of
/// that split derive theirs from — constant over a scan, so scans compute
/// it once.
#[inline]
pub fn split_seed(dataset_seed: u64, split: u32) -> u64 {
    let a = mix64(dataset_seed ^ 0x9e37_79b9_7f4a_7c15);
    mix64(a ^ (split as u64).wrapping_mul(0xd604_5c14_7c91_7c3d))
}

/// The per-record seed of `position` within the split of `split_seed`.
#[inline]
pub fn position_seed(split_seed: u64, position: u64) -> u64 {
    mix64(split_seed ^ position.wrapping_mul(0xa24b_aed4_963e_e407))
}

/// Combines a dataset seed with a split id and record position into a
/// per-record seed. Each component is avalanched so that neighbouring
/// positions yield unrelated streams.
#[inline]
pub fn record_seed(dataset_seed: u64, split: u32, position: u64) -> u64 {
    position_seed(split_seed(dataset_seed, split), position)
}

/// SplitMix64: a 64-bit state RNG with a single add+mix step per output.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw 64-bit seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    #[allow(clippy::should_implement_trait)] // not an Iterator; RngCore-style
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift rejection).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-high rejection sampling; unbiased.
        loop {
            let x = self.next();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_reasonable() {
        let mut r = SplitMix64::new(9);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.next_below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn record_seed_decorrelates_positions() {
        // Adjacent positions must give unrelated seeds (no shared prefix).
        let s0 = record_seed(1, 0, 0);
        let s1 = record_seed(1, 0, 1);
        let diff = (s0 ^ s1).count_ones();
        assert!(
            diff > 10,
            "adjacent record seeds too similar: {diff} differing bits"
        );
    }

    #[test]
    fn record_seed_distinguishes_splits() {
        assert_ne!(record_seed(1, 0, 5), record_seed(1, 1, 5));
        assert_ne!(record_seed(1, 0, 5), record_seed(2, 0, 5));
    }

    #[test]
    fn seedable_trait_matches_native_constructor() {
        // The rand-trait entry points must be aliases of `new`: datasets
        // seeded through either path replay identical streams.
        let mut native = SplitMix64::new(0xdead_beef);
        let mut from_seed = SplitMix64::from_seed(0xdead_beefu64.to_le_bytes());
        let mut from_u64 = SplitMix64::seed_from_u64(0xdead_beef);
        for _ in 0..64 {
            let x = native.next();
            assert_eq!(x, from_seed.next_u64());
            assert_eq!(x, from_u64.next_u64());
        }
    }

    #[test]
    fn fill_bytes_partial_tail() {
        let mut r = SplitMix64::new(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
