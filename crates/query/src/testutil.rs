//! Fixtures shared by this crate's unit tests.

use crate::CompiledHistogram;
use wh_core::WaveletHistogram;
use wh_wavelet::haar::forward;
use wh_wavelet::select::top_k_magnitude;
use wh_wavelet::Domain;

/// The best-`k`-term histogram of the dense signal `v` (a power-of-two
/// length).
pub(crate) fn histogram_from_signal(v: &[f64], k: usize) -> WaveletHistogram {
    let domain = Domain::covering(v.len() as u64).unwrap();
    assert_eq!(domain.u() as usize, v.len());
    let w = forward(v);
    let top = top_k_magnitude(w.iter().enumerate().map(|(s, &c)| (s as u64, c)), k);
    WaveletHistogram::new(domain, top.iter().map(|e| (e.slot, e.value)))
}

pub(crate) fn compiled_from_signal(v: &[f64], k: usize) -> CompiledHistogram {
    CompiledHistogram::compile(&histogram_from_signal(v, k))
}

/// A fixed 64-bit mixer: reproducible pseudo-random test inputs.
pub(crate) fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

/// `count` valid inclusive ranges inside `[0, u)`.
pub(crate) fn random_queries(u: u64, count: usize) -> Vec<(u64, u64)> {
    (0..count as u64)
        .map(|i| {
            let lo = scramble(i) % u;
            let hi = lo + scramble(i ^ 0xdead) % (u - lo);
            (lo, hi)
        })
        .collect()
}
