//! A minimal fixed-capacity bitset — the coordinator's per-item `F_i`
//! vector from Appendix A ("a bit vector of size m such that F_i(j) = 0 if
//! w_{i,j} has been received").

/// Fixed-capacity bitset over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// All-zeros bitset with room for `capacity` bits.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits (within capacity).
    pub fn count_zeros(&self) -> usize {
        self.capacity - self.count_ones()
    }

    /// Iterates over set-bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = BitSet::new(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.count_zeros(), 127);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 190] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 190]);
    }

    #[test]
    fn idempotent_set() {
        let mut b = BitSet::new(10);
        b.set(3);
        b.set(3);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_panics() {
        BitSet::new(10).set(10);
    }
}
