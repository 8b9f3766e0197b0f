//! SSE (sum of squared errors) and energy computations in coefficient space.
//!
//! Because the Haar transform here is orthonormal, the reconstruction error
//! of any coefficient approximation equals the coefficient-space error
//! (Parseval): if the true coefficients are `w` and the histogram retains
//! `ŵ_i` for slots in `S` (implicitly 0 elsewhere), then
//!
//! ```text
//! SSE = Σ_x (v(x) − v̂(x))²  =  Σ_{i∈S} (w_i − ŵ_i)²  +  Σ_{i∉S} w_i²
//! ```
//!
//! This is how the experiments of §5 (Figs. 6, 7, 15, 18) evaluate quality
//! without materialising huge reconstructions.
//!
//! Nothing on the build or serve path calls this module: it is the quality
//! **oracle** behind `wh-core`'s `Evaluator` (the SSE column of `figures`,
//! the examples and the benchmark's correctness checks) and the Parseval
//! properties of `tests/wavelet_properties.rs`.

use crate::select::CoefEntry;

/// SSE of a retained coefficient set against the exact dense coefficients.
///
/// `exact` is the full coefficient vector (length `u`); `retained` holds the
/// histogram's `(slot, value)` pairs (slots must be unique — the usual
/// output of [`crate::select::top_k_magnitude`]).
pub fn sse_against_exact(exact: &[f64], retained: &[CoefEntry]) -> f64 {
    let total: f64 = exact.iter().map(|w| w * w).sum();
    let mut sse = total;
    for e in retained {
        let w = exact[usize::try_from(e.slot).expect("slot fits usize")];
        // Replace the `w²` term (coefficient treated as dropped) with the
        // actual error `(w − ŵ)²`.
        sse += (w - e.value) * (w - e.value) - w * w;
    }
    // Guard against tiny negative residue from floating-point cancellation.
    sse.max(0.0)
}

/// The ideal SSE of any k-term representation: the energy outside the k
/// largest-magnitude exact coefficients.
pub fn ideal_sse(exact: &[f64], k: usize) -> f64 {
    if k >= exact.len() {
        return 0.0;
    }
    let mut sq: Vec<f64> = exact.iter().map(|w| w * w).collect();
    // k largest squared values to the front.
    let pivot = k.saturating_sub(1).min(sq.len() - 1);
    sq.select_nth_unstable_by(pivot, |a, b| b.partial_cmp(a).expect("no NaN energy"));
    if k == 0 {
        return sq.iter().sum();
    }
    sq[k..].iter().sum()
}

/// Relative SSE: `SSE / ‖v‖²`, the paper's "percent of the dataset's
/// energy" framing (§5: "the SSE is less than 1% of the original dataset's
/// energy").
pub fn relative_sse(sse: f64, total_energy: f64) -> f64 {
    if total_energy == 0.0 {
        0.0
    } else {
        sse / total_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::{energy, forward};
    use crate::select::top_k_magnitude;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn parseval_matches_direct_reconstruction_error() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 31) % 23) as f64).collect();
        let w = forward(&v);
        let retained = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), 8);

        // Direct computation: reconstruct and subtract.
        let mut wk = vec![0.0; 64];
        for e in &retained {
            wk[e.slot as usize] = e.value;
        }
        let recon = crate::haar::inverse(&wk);
        let direct: f64 = v.iter().zip(&recon).map(|(a, b)| (a - b) * (a - b)).sum();

        let via_coefs = sse_against_exact(&w, &retained);
        assert!(close(direct, via_coefs), "{direct} vs {via_coefs}");
    }

    #[test]
    fn exact_retention_of_topk_equals_ideal() {
        let v: Vec<f64> = (0..128).map(|i| (i as f64 * 0.7).cos() * 50.0).collect();
        let w = forward(&v);
        for k in [0, 1, 5, 16, 128] {
            let retained = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
            let sse = sse_against_exact(&w, &retained);
            let ideal = ideal_sse(&w, k);
            assert!(close(sse, ideal), "k={k}: {sse} vs {ideal}");
        }
    }

    #[test]
    fn ideal_sse_monotone_in_k() {
        let v: Vec<f64> = (0..256).map(|i| ((i * i) % 97) as f64).collect();
        let w = forward(&v);
        let mut prev = f64::INFINITY;
        for k in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
            let s = ideal_sse(&w, k);
            assert!(s <= prev + 1e-9, "k={k}");
            prev = s;
        }
        assert!(close(ideal_sse(&w, 256), 0.0));
    }

    #[test]
    fn noisy_retained_values_increase_sse() {
        let v: Vec<f64> = (0..32).map(|i| (i % 5) as f64).collect();
        let w = forward(&v);
        let retained = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), 4);
        let noisy: Vec<CoefEntry> = retained
            .iter()
            .map(|e| CoefEntry {
                slot: e.slot,
                value: e.value + 0.5,
            })
            .collect();
        assert!(sse_against_exact(&w, &noisy) > sse_against_exact(&w, &retained));
    }

    #[test]
    fn ideal_sse_k_zero_is_total_energy() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let w = forward(&v);
        assert!(close(ideal_sse(&w, 0), energy(&v)));
    }

    #[test]
    fn relative_sse_handles_zero_energy() {
        assert_eq!(relative_sse(0.0, 0.0), 0.0);
        assert!(close(relative_sse(1.0, 4.0), 0.25));
    }
}
