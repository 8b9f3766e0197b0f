//! Floyd's draw of distinct record positions — the offset queue of the
//! Appendix-B RandomRecordReader.
//!
//! [`floyd`] is the one draw every sampling reader shares: the lazy
//! [`crate::Dataset`] and [`crate::twod::Dataset2d`] through their
//! `sample_split`, and the file-backed [`crate::file::FixedSplitReader`].
//! Its membership set is a bitset over the split's positions, so the
//! positions come out ascending by scanning it — no hash set, no sort.

use crate::rng::{record_seed, SplitMix64};

/// Draws `count` (at most `n`) distinct positions of `0..n` with Floyd's
/// algorithm, ascending, from `rng`.
///
/// The draw is the textbook one: for `t` in `n − count .. n` it takes
/// `r = rng.next_below(t + 1)`, or `t` itself when `r` is already taken.
/// Which positions it picks depends only on `rng` and on the set's yes/no
/// answers, not on how the set is stored.
///
/// Memory is a bitset of `⌈n/64⌉` words (`n/8` bytes) whatever `count`
/// is. That is at most 1/32 of the split's own bytes at the default
/// 4-byte record. Against a hash set of the sample (10–19 bytes a
/// position) it is about even at the paper's sampling rate of about
/// 0.75 % and smaller above it; below it, the bitset is the larger.
pub fn floyd(mut rng: SplitMix64, n: u64, count: u64) -> Vec<u64> {
    let count = count.min(n);
    let words = usize::try_from(n.div_ceil(64)).expect("bitset of the split fits in memory");
    let mut taken = vec![0u64; words];
    // Every position taken so far is below t, so t itself is always free.
    for t in (n - count)..n {
        let r = rng.next_below(t + 1);
        let (word, bit) = (&mut taken[(r / 64) as usize], 1 << (r % 64));
        if *word & bit == 0 {
            *word |= bit;
        } else {
            taken[(t / 64) as usize] |= 1 << (t % 64);
        }
    }
    let mut positions = Vec::with_capacity(count as usize);
    for (word, mut bits) in (0u64..).zip(taken) {
        while bits != 0 {
            positions.push(word * 64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    positions
}

/// Draws `count` (at most `nj`) distinct positions of split `j`'s `0..nj`,
/// ascending (as the paper's reader processes offsets from a priority
/// queue), from the stream `seed` names for that split — [`floyd`], with
/// its `⌈nj/64⌉`-word bitset.
pub(crate) fn sample_positions(seed: u64, j: u32, nj: u64, count: u64) -> Vec<u64> {
    floyd(SplitMix64::new(record_seed(seed, j, u64::MAX)), nj, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix64;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Floyd's algorithm over an ordered set: the draw [`floyd`] must
    /// reproduce, position for position.
    fn floyd_oracle(mut rng: SplitMix64, n: u64, count: u64) -> Vec<u64> {
        let mut chosen = BTreeSet::new();
        for t in (n - count.min(n))..n {
            let r = rng.next_below(t + 1);
            if !chosen.insert(r) {
                chosen.insert(t);
            }
        }
        chosen.into_iter().collect()
    }

    /// `mix64`-chained fold of the draws for two seeds × two splits, each
    /// draw's length folded in ahead of its positions (from 1, because
    /// `mix64(0) = 0` would let empty draws leave no mark).
    fn draw_fold(nj: u64, count: u64) -> u64 {
        let mut acc = 1;
        for seed in [7, 0xdead_beef] {
            for j in [0, 41] {
                let positions = sample_positions(seed, j, nj, count);
                acc = mix64(acc ^ positions.len() as u64);
                for p in positions {
                    acc = mix64(acc ^ p);
                }
            }
        }
        acc
    }

    /// Counts for one `nj`: none, one, a sixteenth, all but one, all, and
    /// more than all.
    fn golden_counts(nj: u64) -> [u64; 6] {
        [0, 1, nj / 16, nj - 1, nj, u64::MAX]
    }

    #[test]
    fn draws_match_the_pinned_folds() {
        // Folded at the commit before the draw's hash set and sort became
        // a bitset: the draw must keep picking these exact positions.
        const EMPTY: u64 = 0x683b_5fc0_ca80_3dc3;
        for (nj, folds) in [
            (
                1,
                [
                    EMPTY,
                    0x6b39_99cb_aed4_85de,
                    EMPTY,
                    EMPTY,
                    0x6b39_99cb_aed4_85de,
                    0x6b39_99cb_aed4_85de,
                ],
            ),
            (
                63,
                [
                    EMPTY,
                    0x59f0_b006_4efb_e7f4,
                    0xc81a_5d35_28ec_7342,
                    0xfa36_55b7_778a_f864,
                    0x86f3_b937_ff5f_705f,
                    0x86f3_b937_ff5f_705f,
                ],
            ),
            (
                64,
                [
                    EMPTY,
                    0x17a1_79b2_742c_cad4,
                    0x9c83_9096_d8bd_61ab,
                    0x030c_2357_7ec4_2a66,
                    0xdf4b_64c0_72bf_2d53,
                    0xdf4b_64c0_72bf_2d53,
                ],
            ),
            (
                65,
                [
                    EMPTY,
                    0xaab8_601e_e4d5_ad4f,
                    0xb49b_c8b1_451d_cfc5,
                    0xfbc0_f206_4a4a_dcbb,
                    0x6391_b7be_e3eb_f6a3,
                    0x6391_b7be_e3eb_f6a3,
                ],
            ),
            (
                1000,
                [
                    EMPTY,
                    0x4157_335f_6201_6954,
                    0xfb0b_9e0e_59ba_c07e,
                    0x9d7c_645f_86fa_42b9,
                    0x1607_ba44_b969_be8a,
                    0x1607_ba44_b969_be8a,
                ],
            ),
            (
                262_144,
                [
                    EMPTY,
                    0x6b2b_0596_7411_0248,
                    0xf975_02aa_f135_7900,
                    0x93ec_69bf_1cfa_abb2,
                    0x7031_d4b0_d606_2215,
                    0x7031_d4b0_d606_2215,
                ],
            ),
        ] {
            for (count, fold) in golden_counts(nj).into_iter().zip(folds) {
                assert_eq!(draw_fold(nj, count), fold, "nj = {nj}, count = {count}");
            }
        }
    }

    proptest! {
        #[test]
        fn floyd_matches_the_ordered_set_oracle(
            seed in 0u64..u64::MAX,
            n in 0u64..5_000,
            extra in 0u64..200,
            share in 0u64..=64,
        ) {
            // Counts from none to all, plus a few past all.
            let count = n * share / 64 + extra * u64::from(share == 64);
            prop_assert_eq!(
                floyd(SplitMix64::new(seed), n, count),
                floyd_oracle(SplitMix64::new(seed), n, count)
            );
        }
    }

    #[test]
    #[ignore = "10^4 draws of up to 2^18 positions: run in release (CI job `data`)"]
    fn floyd_matches_the_oracle_over_random_triples() {
        let mut rng = SplitMix64::new(0xf10d);
        for case in 0..10_000 {
            let seed = rng.next();
            // n below 2^k for k uniform over 0..=18; count up to n + 64.
            let log_n = rng.next_below(19);
            let n = rng.next_below(1 << log_n);
            let count = rng.next_below(n + 65);
            assert_eq!(
                floyd(SplitMix64::new(seed), n, count),
                floyd_oracle(SplitMix64::new(seed), n, count),
                "case {case}: seed {seed:#x}, n {n}, count {count}"
            );
        }
    }
}
