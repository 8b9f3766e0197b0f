//! Zipf(α) sampling over an arbitrary domain size, in `O(1)` expected time
//! per draw and `O(1)` memory.
//!
//! The experiments sweep the domain up to `u = 2^32` (paper §5: `log₂ u` up
//! to 32), which rules out table-based samplers (an alias table over `2^32`
//! bins is tens of gigabytes). We instead use **rejection-inversion**
//! (Hörmann & Derflinger, 1996): with the smooth envelope `h(x) = x^{-α}`
//! and its integral `H`, draw `u` uniformly from `[H(1.5) − h(1), H(n + ½))`,
//! take the candidate rank `k = round(H⁻¹(u))` and accept it when
//! `u ≥ H(k + ½) − h(k)`, i.e. when `u` lies in the part of the envelope
//! mass under the discrete bar of `k`. Acceptance probability is high for
//! all α ≥ 0.
//!
//! Evaluated literally that is six libm calls per draw: `ln_1p` + `exp` for
//! `H⁻¹`, then `ln` + `exp_m1` + `ln` + `exp` for the acceptance threshold.
//! [`Zipf::sample`] makes the *same decisions* — it returns the same rank
//! for the same generator state, draw for draw, which the oracle test at
//! the bottom of this file pins against the literal loop — at two libm
//! calls per draw in the tail and none in the head:
//!
//! * **Squeeze (tail, two calls).** Hörmann–Derflinger's
//!   `s = 2 − H⁻¹(H(2.5) − h(2))` is the smallest distance `k − H⁻¹(H(k + ½)
//!   − h(k))` over all `k ≥ 2`, so `k − x ≤ s` implies acceptance and the
//!   threshold need not be evaluated (it is for the ≈ 1–5 % of tail draws
//!   that fail the squeeze, and then decides exactly as the literal loop
//!   does).
//!   In exact arithmetic the squeeze is tight at `k = 2` and, for α = 0,
//!   at every rank, while in floating point both `x` and the threshold
//!   carry rounding noise that grows with the rank; a draw inside that
//!   noise is decided by the literal loop's last ulp. So the squeeze is
//!   taken only with `SQUEEZE_MARGIN` to spare and only below the rank
//!   where a (generous) bound on the noise, in units of `x`, reaches half
//!   that margin; everything else goes to the full test. Neither cut-off
//!   is visible in the timing: the margin sends 0.1 % more draws to the
//!   full test, and the rank limit lies beyond `n` unless
//!   `n + H(n)·n^α` approaches `2^35`.
//! * **Head table (no call).** For the first `T = min(n, 1024)` ranks,
//!   `upper[k] = H(k + ½)` and `accept[k] = upper[k] − h(k)` are tabulated
//!   from the very expressions the full test evaluates. A draw with
//!   `u < upper[T]` finds its rank `upper[k − 1] ≤ u < upper[k]` through a
//!   fixed guide index plus a short linear scan, and `u ≥ accept[k]` is
//!   then the literal loop's comparison on the identical float. What could
//!   differ is the rank itself: `round(H⁻¹(u))` and the table can disagree
//!   when `u` sits within libm's rounding error of a boundary `upper[k]`.
//!   That error is below `10⁻¹⁴` relative in the head (`ln x ≤ 7` there),
//!   so any `u` within a `BOUNDARY_GUARD` = `10⁻⁹` relative margin of a
//!   boundary is sent back to the slow path — about one draw in `10⁶`.
//!
//! The table (20 KB at most) lives behind an [`Arc`], so cloning a sampler
//! — every map task clones its dataset — copies a pointer.

use std::sync::Arc;

use crate::rng::SplitMix64;

/// Ranks resolved from the head table.
const HEAD_RANKS: u64 = 1024;
/// Cells of the guide index from `u` to the first candidate head rank: two
/// per rank, so the linear scan that follows averages half a step.
const GUIDE_CELLS: usize = 2048;
/// Relative distance from a rank boundary `H(k + ½)` within which a draw
/// leaves the head table for the slow path (see the module docs).
const BOUNDARY_GUARD: f64 = 1e-9;
/// Slack, in units of `x`, the squeeze keeps from Hörmann–Derflinger's
/// exact-arithmetic bound (see the module docs).
const SQUEEZE_MARGIN: f64 = 1.0 / 1024.0;

/// A Zipf distribution over ranks `1..=n` with exponent `α ≥ 0`:
/// `P(rank = r) ∝ r^{-α}`.
///
/// Sampled ranks are returned **0-based** (`0..n`) so they can be used as
/// keys directly.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    alpha: f64,
    /// `H(1.5) − h(1)`: lower endpoint of the envelope integral.
    h_x1: f64,
    /// `H(n + 0.5)`: upper endpoint.
    h_n: f64,
    /// The squeeze constant `s`, less [`SQUEEZE_MARGIN`].
    squeeze: f64,
    /// Ranks above this one always take the full acceptance test.
    squeeze_max_rank: f64,
    head: Arc<Head>,
}

/// The tabulated first `T` ranks.
#[derive(Debug)]
struct Head {
    /// Draws with `u` below this land in the table: `upper[T]`.
    limit: f64,
    /// Guide cells per unit of `u − h_x1`.
    cells_per_u: f64,
    /// `guide[c]` ≤ the rank of every `u` that falls in cell `c`.
    guide: Box<[u16]>,
    /// Indexed by rank `1..=T`; entry 0 is a sentinel below every `u`.
    ranks: Box<[HeadRank]>,
}

#[derive(Debug, Clone, Copy)]
struct HeadRank {
    /// `H(k + ½)`: the boundary between candidate ranks `k` and `k + 1`.
    upper: f64,
    /// `H(k + ½) − h(k)`: the acceptance threshold of rank `k`.
    accept: f64,
}

impl Head {
    fn new(n: u64, alpha: f64, h_x1: f64) -> Self {
        let t = n.min(HEAD_RANKS);
        let ranks: Box<[HeadRank]> = std::iter::once(HeadRank {
            upper: f64::NEG_INFINITY,
            accept: f64::NEG_INFINITY,
        })
        .chain((1..=t).map(|k| {
            let k = k as f64;
            let upper = h_integral(k + 0.5, alpha);
            HeadRank {
                upper,
                accept: upper - h(k, alpha),
            }
        }))
        .collect();
        let limit = ranks[t as usize].upper;
        let cells_per_u = GUIDE_CELLS as f64 / (limit - h_x1);
        // Filled through the expression `sample` evaluates, which is
        // monotone in `u`: a `u` in a cell above `cell(upper[k − 1])` lies
        // above `upper[k − 1]`, so its rank is at least `k`. One spare
        // cell absorbs a product that rounds up to `GUIDE_CELLS`.
        let mut guide = vec![0u16; GUIDE_CELLS + 1].into_boxed_slice();
        let mut c = 0;
        for k in 1..=t as usize {
            let last = (((ranks[k].upper - h_x1) * cells_per_u) as usize).min(GUIDE_CELLS);
            while c <= last {
                guide[c] = k as u16;
                c += 1;
            }
        }
        Self {
            limit,
            cells_per_u,
            guide,
            ranks,
        }
    }
}

impl Zipf {
    /// Creates a Zipf(α) sampler over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`, `α < 0`, or `α` is not finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "Zipf exponent must be ≥ 0, got {alpha}"
        );
        let nf = n as f64;
        let h_x1 = h_integral(1.5, alpha) - 1.0;
        let h_n = h_integral(nf + 0.5, alpha);
        let s = 2.0 - h_integral_inverse(h_integral(2.5, alpha) - h(2.0, alpha), alpha);
        // Rounding noise of `x = H⁻¹(u)` and of the threshold
        // `H(k + ½) − h(k)`, in units of `x`: a few `2⁻⁵³` relative on `x`
        // itself (amplified by `ln x ≤ 28` inside `exp`) and on `u` and
        // `H(k + ½)`, which reach `x` through `dx = du / h(k)`. Bounded by
        // `2⁻⁴⁶ · (k + H(k + ½)/h(k))`, increasing in `k`; the squeeze is
        // used while that stays below half its margin.
        let noise = |k: f64| (k + h_integral(k + 0.5, alpha) / h(k, alpha)) / (1u64 << 46) as f64;
        let mut squeeze_max_rank = nf;
        while squeeze_max_rank >= 2.0 && noise(squeeze_max_rank) > SQUEEZE_MARGIN / 2.0 {
            squeeze_max_rank /= 2.0;
        }
        Self {
            n: nf,
            alpha,
            h_x1,
            h_n,
            squeeze: s - SQUEEZE_MARGIN,
            squeeze_max_rank,
            head: Arc::new(Head::new(n, alpha, h_x1)),
        }
    }

    /// Draws one 0-based rank.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let head = &*self.head;
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            if u < head.limit {
                let mut k = usize::from(head.guide[((u - self.h_x1) * head.cells_per_u) as usize]);
                while u >= head.ranks[k].upper {
                    k += 1;
                }
                let HeadRank { upper, accept } = head.ranks[k];
                let guard = BOUNDARY_GUARD * upper;
                if u - head.ranks[k - 1].upper >= guard && upper - u >= guard {
                    #[cfg(test)]
                    paths::note(paths::TABLE);
                    if u >= accept {
                        return k as u64 - 1;
                    }
                    continue;
                }
            }
            let x = h_integral_inverse(u, self.alpha);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= self.squeeze && k <= self.squeeze_max_rank {
                #[cfg(test)]
                paths::note(paths::SQUEEZE);
                return k as u64 - 1;
            }
            #[cfg(test)]
            paths::note(paths::FULL_TEST);
            // Accept when u lands in the part of the envelope mass under
            // the discrete bar of k.
            if u >= h_integral(k + 0.5, self.alpha) - h(k, self.alpha) {
                return k as u64 - 1;
            }
        }
    }

    /// The literal rejection-inversion loop: what [`Zipf::sample`] must
    /// reproduce draw for draw.
    #[cfg(test)]
    fn sample_reference(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = h_integral_inverse(u, self.alpha);
            let k = x.round().clamp(1.0, self.n);
            if u >= h_integral(k + 0.5, self.alpha) - h(k, self.alpha) {
                return k as u64 - 1;
            }
        }
    }

    /// Exact probability mass of the 0-based rank `r`, given
    /// [`Zipf::normalizer`] — the oracle this module's chi-squared tests
    /// hold [`Zipf::sample`] against; no builder calls it.
    pub fn pmf(&self, r: u64, normalizer: f64) -> f64 {
        h((r + 1) as f64, self.alpha) / normalizer
    }

    /// The generalised harmonic number `Σ_{r=1..n} r^{-α}`.
    pub fn normalizer(&self) -> f64 {
        (1..=self.n as u64).map(|r| h(r as f64, self.alpha)).sum()
    }
}

/// `h(x) = x^{-α}`.
#[inline]
fn h(x: f64, alpha: f64) -> f64 {
    (-alpha * x.ln()).exp()
}

/// `H(x) = ∫₁ˣ t^{-α} dt + C`, continuous in α across α = 1:
/// `(x^{1-α} − 1)/(1−α)` for α ≠ 1, `ln x` for α = 1.
#[inline]
fn h_integral(x: f64, alpha: f64) -> f64 {
    let log_x = x.ln();
    if (alpha - 1.0).abs() < 1e-12 {
        log_x
    } else {
        ((1.0 - alpha) * log_x).exp_m1() / (1.0 - alpha)
    }
}

/// Inverse of [`h_integral`].
#[inline]
fn h_integral_inverse(y: f64, alpha: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-12 {
        y.exp()
    } else {
        let t = (y * (1.0 - alpha)).max(-1.0);
        (t.ln_1p() / (1.0 - alpha)).exp()
    }
}

/// Which of `sample`'s three ways out each loop iteration took, counted
/// per thread so the oracle test can prove none of them is dead code.
#[cfg(test)]
mod paths {
    use std::cell::Cell;

    pub const TABLE: usize = 0;
    pub const SQUEEZE: usize = 1;
    pub const FULL_TEST: usize = 2;

    thread_local! {
        static TAKEN: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    pub fn note(path: usize) {
        TAKEN.with(|t| {
            let mut taken = t.get();
            taken[path] += 1;
            t.set(taken);
        });
    }

    /// Returns the counts since the last call and resets them.
    pub fn take() -> [u64; 3] {
        TAKEN.with(|t| t.replace([0; 3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chi_squared_ok(alpha: f64, n: u64, draws: usize) {
        let z = Zipf::new(n, alpha);
        let mut rng = SplitMix64::new(0xfeed ^ (alpha * 1000.0) as u64 ^ n);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let norm = z.normalizer();
        // Compare observed vs expected frequencies with a generous chi² cap
        // over the head of the distribution (tail bins have tiny expecteds).
        let mut chi2 = 0.0;
        let mut dof = 0;
        for r in 0..n {
            let e = z.pmf(r, norm) * draws as f64;
            if e >= 20.0 {
                let o = counts[r as usize] as f64;
                chi2 += (o - e) * (o - e) / e;
                dof += 1;
            }
        }
        assert!(dof > 0);
        // χ² mean = dof, sd = √(2·dof); allow 6 sigma.
        let bound = dof as f64 + 6.0 * (2.0 * dof as f64).sqrt();
        assert!(
            chi2 < bound,
            "α={alpha} n={n}: chi2 {chi2:.1} > {bound:.1} (dof {dof})"
        );
    }

    #[test]
    fn matches_pmf_alpha_08() {
        chi_squared_ok(0.8, 64, 200_000);
    }

    #[test]
    fn matches_pmf_alpha_11() {
        chi_squared_ok(1.1, 64, 200_000);
    }

    #[test]
    fn matches_pmf_alpha_14() {
        chi_squared_ok(1.4, 64, 200_000);
    }

    #[test]
    fn matches_pmf_alpha_exactly_one() {
        chi_squared_ok(1.0, 32, 100_000);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        chi_squared_ok(0.0, 16, 100_000);
    }

    #[test]
    fn samples_within_range_large_domain() {
        let z = Zipf::new(1 << 32, 1.1);
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1 << 32);
        }
    }

    #[test]
    fn rank_zero_dominates_for_skewed() {
        let z = Zipf::new(1 << 20, 1.4);
        let mut rng = SplitMix64::new(2);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // P(rank 1) for α=1.4 over 2^20 ≈ 1/ζ(1.4) ≈ 0.3.
        assert!(hits > 2_000, "rank 0 hit only {hits}/10000 times");
    }

    #[test]
    fn domain_of_one_always_returns_zero() {
        let z = Zipf::new(1, 1.1);
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    /// `sample` against the literal loop over the whole (α, u) matrix,
    /// every draw seeded the way a scan seeds its records.
    fn sample_matches_reference(draws_per_cell: u64) {
        use crate::rng::{position_seed, split_seed};
        const ALPHAS: [f64; 9] = [0.0, 0.5, 0.8, 1.0, 1.05, 1.1, 1.2, 1.4, 2.0];
        const LOG_US: [u32; 8] = [0, 1, 6, 10, 18, 20, 32, 40];
        // One thread per α: the path counters are thread-local.
        std::thread::scope(|scope| {
            for (a, alpha) in ALPHAS.into_iter().enumerate() {
                scope.spawn(move || {
                    for log_u in LOG_US {
                        let z = Zipf::new(1 << log_u, alpha);
                        let split = split_seed(0x5a1f ^ u64::from(log_u), a as u32);
                        paths::take();
                        for i in 0..draws_per_cell {
                            let seed = position_seed(split, i);
                            assert_eq!(
                                z.sample(&mut SplitMix64::new(seed)),
                                z.sample_reference(&mut SplitMix64::new(seed)),
                                "α={alpha} u=2^{log_u}: draw {i} (seed {seed:#x})"
                            );
                        }
                        // Every way out of the loop the cell can reach was
                        // taken: "can reach" is an expected count of at
                        // least 64 iterations, from the share of the
                        // envelope mass each exit covers (`k − x` is close
                        // to uniform on (−½, ½] beyond the table).
                        let mass = |from: f64, to: f64| ((to - from) / (z.h_n - z.h_x1)).max(0.0);
                        let table = mass(z.h_x1, z.head.limit);
                        let squeeze_end = h_integral(z.squeeze_max_rank + 0.5, alpha);
                        let squeeze = mass(z.head.limit, squeeze_end) * (0.5 + z.squeeze);
                        let full_test = 1.0 - table - squeeze;
                        for (path, (taken, share)) in ["table", "squeeze", "full test"]
                            .into_iter()
                            .zip(paths::take().into_iter().zip([table, squeeze, full_test]))
                        {
                            assert!(
                                taken > 0 || draws_per_cell as f64 * share < 64.0,
                                "α={alpha} u=2^{log_u}: {path} exit never taken, share {share:.2e}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn sample_matches_reference_draw_for_draw() {
        sample_matches_reference(100_000);
    }

    #[test]
    #[ignore = "10^7 draws per cell: run in release (CI job `data`)"]
    fn sample_matches_reference_draw_for_draw_long() {
        sample_matches_reference(10_000_000);
    }

    #[test]
    fn clones_share_the_head_table() {
        let z = Zipf::new(1 << 20, 1.1);
        assert!(Arc::ptr_eq(&z.head, &z.clone().head));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_alpha_panics() {
        Zipf::new(10, -0.5);
    }
}
