//! Dense orthonormal Haar transform in `O(u)` time.
//!
//! The basis matches §2.1 of the paper (see [`crate`] docs for indexing):
//! the transform is orthonormal, so energy is preserved —
//! `Σ v(x)² = Σ w_i²` — which is what makes coefficient-space SSE
//! computations ([`crate::sse`]) exact.

use std::f64::consts::FRAC_1_SQRT_2;

/// The Haar butterfly: `(average, detail)` of the sibling values `a`
/// (left) and `b` (right), scaled by `1/√2`.
///
/// The one definition of these two expressions. [`forward_in_place`], the
/// sorted-run [`crate::sparse::sparse_transform`] and
/// [`crate::IncrementalTransform`] all evaluate it, which is why their
/// outputs agree bit for bit rather than to a tolerance.
#[inline]
pub fn pair(a: f64, b: f64) -> (f64, f64) {
    ((a + b) * FRAC_1_SQRT_2, (b - a) * FRAC_1_SQRT_2)
}

/// Forward orthonormal Haar transform.
///
/// `v.len()` must be a power of two (and non-zero).
///
/// # Panics
///
/// Panics if `v.len()` is not a non-zero power of two.
pub fn forward(v: &[f64]) -> Vec<f64> {
    let mut w = v.to_vec();
    forward_in_place(&mut w);
    w
}

/// In-place forward transform. See [`forward`].
///
/// Uses a scratch-free two-buffer sweep over the averages: after the pass at
/// length `len`, positions `len/2..len` of the output hold the detail
/// coefficients for that level and positions `0..len/2` hold the running
/// averages, so the output naturally lands in the slot layout described in
/// the crate docs.
pub fn forward_in_place(v: &mut [f64]) {
    let u = v.len();
    assert!(
        u.is_power_of_two(),
        "Haar transform requires a power-of-two length, got {u}"
    );
    let mut scratch = vec![0.0f64; u];
    let mut len = u;
    while len > 1 {
        let half = len / 2;
        for t in 0..half {
            (scratch[t], scratch[half + t]) = pair(v[2 * t], v[2 * t + 1]);
        }
        v[..len].copy_from_slice(&scratch[..len]);
        len = half;
    }
}

/// Inverse orthonormal Haar transform.
///
/// # Panics
///
/// Panics if `w.len()` is not a non-zero power of two.
pub fn inverse(w: &[f64]) -> Vec<f64> {
    let mut v = w.to_vec();
    inverse_in_place(&mut v);
    v
}

/// In-place inverse transform. See [`inverse`].
pub fn inverse_in_place(w: &mut [f64]) {
    let u = w.len();
    assert!(
        u.is_power_of_two(),
        "Haar inverse requires a power-of-two length, got {u}"
    );
    let mut scratch = vec![0.0f64; u];
    let mut len = 1;
    while len < u {
        scratch[..2 * len].copy_from_slice(&w[..2 * len]);
        for t in 0..len {
            let s = scratch[t];
            let d = scratch[len + t];
            w[2 * t] = (s - d) * FRAC_1_SQRT_2;
            w[2 * t + 1] = (s + d) * FRAC_1_SQRT_2;
        }
        len *= 2;
    }
}

/// The squared L2 norm (energy) of a vector.
pub fn energy(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn paper_figure1_example() {
        // Figure 1 of the paper uses the *unnormalised* tree values; the
        // orthonormal coefficients are the tree values times √(u/2^ℓ).
        // Signal: [3, 5, 10, 8, 2, 2, 10, 14], u = 8.
        let v = [3.0, 5.0, 10.0, 8.0, 2.0, 2.0, 10.0, 14.0];
        let w = forward(&v);
        // w1 (slot 0): overall average 6.75 times √(8/1) / … — directly:
        // Σv/√8 = 54/√8.
        assert!(close(w[0], 54.0 / 8f64.sqrt()));
        // w2 (slot 1): total detail 0.25·√8? Using the basis:
        // (Σ right − Σ left)/√8 = (28 − 26)/√8.
        assert!(close(w[1], 2.0 / 8f64.sqrt()));
        // Level 1 (slots 2,3): block size 4, ((10+8)-(3+5))/2 = 5,
        // ((10+14)-(2+2))/2 = 10.
        assert!(close(w[2], (18.0 - 8.0) / 2.0));
        assert!(close(w[3], (24.0 - 4.0) / 2.0));
        // Leaf details (slots 4..8): (b-a)/√2.
        assert!(close(w[4], 2.0 / 2f64.sqrt()));
        assert!(close(w[5], -2.0 / 2f64.sqrt()));
        assert!(close(w[6], 0.0));
        assert!(close(w[7], 4.0 / 2f64.sqrt()));
    }

    #[test]
    fn roundtrip_random() {
        let mut v = Vec::new();
        let mut x = 12345u64;
        for _ in 0..1024 {
            // Simple LCG noise — deterministic, no rand dependency here.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(((x >> 33) as f64) / 1e6);
        }
        let w = forward(&v);
        let back = inverse(&w);
        for (a, b) in v.iter().zip(&back) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn energy_preserved() {
        let v: Vec<f64> = (0..256).map(|i| ((i * 37) % 101) as f64).collect();
        let w = forward(&v);
        assert!(close(energy(&v), energy(&w)));
    }

    #[test]
    fn length_one_is_identity_scaled() {
        let w = forward(&[7.0]);
        assert_eq!(w, vec![7.0]);
        assert_eq!(inverse(&w), vec![7.0]);
    }

    #[test]
    fn constant_signal_has_single_coefficient() {
        let v = [5.0; 64];
        let w = forward(&v);
        assert!(close(w[0], 5.0 * 64.0 / 64f64.sqrt()));
        for &d in &w[1..] {
            assert!(close(d, 0.0));
        }
    }

    #[test]
    fn impulse_signal_touches_path_only() {
        // A single spike at position x contributes to exactly log u + 1
        // coefficients: the average plus one detail per level.
        let mut v = [0.0; 32];
        v[13] = 1.0;
        let w = forward(&v);
        let nonzero = w.iter().filter(|c| c.abs() > 1e-12).count();
        assert_eq!(nonzero, 6); // log2(32) + 1
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        forward(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn linearity() {
        let a: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i * i) % 11) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let wa = forward(&a);
        let wb = forward(&b);
        let ws = forward(&sum);
        for i in 0..64 {
            assert!(close(ws[i], wa[i] + wb[i]));
        }
    }

    #[test]
    fn roundtrip_every_dyadic_size() {
        for log_u in 0..=10u32 {
            let u = 1usize << log_u;
            let v: Vec<f64> = (0..u)
                .map(|i| (((i as u64).wrapping_mul(2654435761) % 1009) as f64) - 504.0)
                .collect();
            let back = inverse(&forward(&v));
            assert_eq!(back.len(), u);
            for (a, b) in v.iter().zip(&back) {
                assert!(close(*a, *b), "u={u}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn in_place_matches_allocating() {
        let v: Vec<f64> = (0..256).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut w_inplace = v.clone();
        forward_in_place(&mut w_inplace);
        assert_eq!(forward(&v), w_inplace);
        let mut back_inplace = w_inplace.clone();
        inverse_in_place(&mut back_inplace);
        assert_eq!(inverse(&w_inplace), back_inplace);
    }
}
