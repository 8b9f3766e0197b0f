//! A synthetic stand-in for the WorldCup'98 access-log dataset.
//!
//! The paper evaluates on the 1998 World Cup web-server logs: ~1.35 billion
//! records, each ten 4-byte fields, keyed by a derived `clientobject`
//! identifier (a unique client-id × object-id pairing) with roughly 2²⁹
//! distinct values. The raw trace is not redistributable here, so we build
//! the closest synthetic equivalent:
//!
//! * records are 40 bytes (ten 4-byte integers) — the size that matters for
//!   split counts and IO cost;
//! * the `clientobject` key is a product-of-Zipfs model: client popularity
//!   Zipf(1.2) and object popularity Zipf(1.05), combined and folded onto
//!   the key domain. This yields the heavy-tailed, "somewhat less skewed
//!   than Zipf(1.1) over the full domain" behaviour the paper observes when
//!   comparing Fig. 17/18 against the synthetic defaults, with a large
//!   distinct-key count (a sizable fraction of the domain).
//!
//! The substitution is behaviour-preserving for every algorithm in the
//! workspace: all of them interact with the data only through (a) the key
//! multiset and (b) record sizes.

use crate::rng::SplitMix64;
use crate::zipf::Zipf;
use wh_wavelet::Domain;

/// Record size of the (synthetic) WorldCup log: ten 4-byte fields.
pub const WORLDCUP_RECORD_BYTES: u32 = 40;

/// The key model for the synthetic WorldCup log.
#[derive(Debug, Clone)]
pub struct WorldCupModel {
    domain: Domain,
    clients: Zipf,
    objects: Zipf,
    object_bits: u32,
}

impl WorldCupModel {
    /// Builds the model over `domain`. Client-ids take the high bits of the
    /// key, object-ids the low bits, mirroring the paper's pairing of
    /// (client id, object id) into one 4-byte identifier.
    pub fn new(domain: Domain) -> Self {
        // Give objects ~2/3 of the bits: the trace has many more distinct
        // objects than active clients per object.
        let object_bits = (domain.log_u() * 2 / 3).clamp(1, domain.log_u());
        let client_bits = domain.log_u() - object_bits;
        Self {
            domain,
            clients: Zipf::new(1u64 << client_bits.clamp(1, 40), 1.2),
            objects: Zipf::new(1u64 << object_bits, 1.05),
            object_bits,
        }
    }

    /// Draws one `clientobject` key.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let client = if self.object_bits == self.domain.log_u() {
            0
        } else {
            self.clients.sample(rng)
        };
        let object = self.objects.sample(rng);
        // Scatter the client ranks so heavy clients are not adjacent in key
        // space (client ids in the trace are assignment-ordered, not
        // popularity-ordered).
        let scattered = client.wrapping_mul(0x2545_f491_4f6c_dd1d | 1)
            & ((1u64 << (self.domain.log_u() - self.object_bits)) - 1);
        ((scattered << self.object_bits) | object) & (self.domain.u() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_in_domain() {
        let domain = Domain::new(16).unwrap();
        let model = WorldCupModel::new(domain);
        let mut rng = SplitMix64::new(11);
        for _ in 0..50_000 {
            assert!(model.sample(&mut rng) < domain.u());
        }
    }

    #[test]
    fn heavy_tailed_but_many_distinct() {
        let domain = Domain::new(16).unwrap();
        let model = WorldCupModel::new(domain);
        let mut rng = SplitMix64::new(12);
        let mut counts = vec![0u32; 1 << 16];
        let draws = 400_000;
        for _ in 0..draws {
            counts[model.sample(&mut rng) as usize] += 1;
        }
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        // Many distinct keys (the paper: ~400M distinct over 2^29 ≈ 0.75·u
        // at n ≫ u; here draws ≈ 6n/u so expect a substantial fraction).
        assert!(distinct > 10_000, "only {distinct} distinct keys");
        // ... but clearly skewed: top 1% of keys carry a large share.
        let mut sorted: Vec<u32> = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = sorted[..(1 << 16) / 100].iter().map(|&c| c as u64).sum();
        assert!(
            top1pct as f64 > 0.25 * draws as f64,
            "top 1% carries only {top1pct}/{draws}"
        );
    }

    #[test]
    fn tiny_domain_does_not_panic() {
        let domain = Domain::new(1).unwrap();
        let model = WorldCupModel::new(domain);
        let mut rng = SplitMix64::new(13);
        for _ in 0..100 {
            assert!(model.sample(&mut rng) < 2);
        }
    }
}
