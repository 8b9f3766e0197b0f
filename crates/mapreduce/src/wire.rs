//! Wire-size accounting and wire encoding for intermediate key-value pairs.
//!
//! The paper's communication metric is the number of bytes of intermediate
//! data crossing the network. The experiments spell out the encodings
//! (§5 setup): 4-byte integers for mapper-side counts, 8-byte integers at
//! the reducer, 8-byte doubles for wavelet coefficients and sketch entries.
//! [`WireSize`] accounts those sizes without a serialisation round-trip.
//!
//! A builder ships each value as the Rust type of exactly that width — a
//! mapper-side count as a `u32`, a coefficient as an `f64`, H-WTopk's
//! split id as a `u32` — so a value is held, encoded and accounted at one
//! width and no declared size travels beside it. Item keys are the one
//! exception: a [`WKey`] carries a `u64` accounted at the dataset's
//! declared key width.
//!
//! [`WireCodec`] is the physical companion to that accounting: a
//! byte-exact, little-endian encoding that the multi-process engine mode
//! uses to actually move pairs between worker processes and the
//! coordinator (see [`crate::transport`]). Every encoding round-trips
//! bit-exactly — floats travel via [`f64::to_bits`] — so a job executed
//! across processes reproduces the in-process engine's output to the bit.

/// Number of bytes a value occupies on the wire.
pub trait WireSize {
    /// Encoded size in bytes.
    fn wire_bytes(&self) -> u64;
}

macro_rules! fixed_wire {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl WireSize for $t {
            #[inline]
            fn wire_bytes(&self) -> u64 { $n }
        })*
    };
}

fixed_wire! {
    u8 => 1, i8 => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4, f32 => 4,
    u64 => 8, i64 => 8, f64 => 8,
    () => 0,
    bool => 1,
}

impl<T: WireSize> WireSize for Option<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        // A presence byte plus the payload — matches emitting (x, NULL)
        // markers in TwoLevel-S as a bare key with a tag.
        1 + self.as_ref().map_or(0, WireSize::wire_bytes)
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        // 4-byte length prefix plus elements.
        4 + self.iter().map(WireSize::wire_bytes).sum::<u64>()
    }
}

impl<T: WireSize> WireSize for &T {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        (**self).wire_bytes()
    }
}

/// An intermediate key with an explicit wire size: an item key carried in
/// a `u64` but accounted at the dataset's key width (the paper's 4-byte
/// integer keys, or whatever `key_bytes` a dataset declares). It is the
/// key of the builders that shuffle item keys. Keys whose width is fixed
/// per job — coefficient slots, sketch counter indices — ship as a bare
/// `u32` or `u64` instead, which takes less memory (a `(WKey, f64)`
/// pair takes 24 B, a `(u32, f64)` pair 16 B) and encodes in 4 or 8
/// bytes rather than this type's 9.
///
/// Ordering and hashing ignore the size field, which is uniform within a
/// job anyway; a `WKey` hashes, sorts and indexes the dense reduce table
/// as its `id` does.
#[derive(Debug, Clone, Copy)]
pub struct WKey {
    /// The key value.
    pub id: u64,
    /// Declared wire size in bytes.
    pub bytes: u8,
}

impl WKey {
    /// A key with an explicit wire size.
    #[inline]
    pub fn new(id: u64, bytes: u8) -> Self {
        Self { id, bytes }
    }

    /// The paper's default 4-byte key.
    #[inline]
    pub fn four(id: u64) -> Self {
        Self { id, bytes: 4 }
    }
}

impl PartialEq for WKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for WKey {}

impl PartialOrd for WKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for WKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl WireSize for WKey {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        u64::from(self.bytes)
    }
}

/// Decoding failure for a [`WireCodec`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// The bytes were present but did not form a valid value.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire payload truncated"),
            WireError::Invalid(what) => write!(f, "invalid wire payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Consumes exactly `n` bytes from the front of `input`.
#[inline]
pub(crate) fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Byte-exact little-endian encoding used by the multi-process engine to
/// ship pairs over pipes. Decoding must reproduce the encoded value
/// bit-for-bit (floats round-trip through their bit patterns), because
/// the distributed mode is differential-tested bit-identical against the
/// in-process engine.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_wire(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `input`, advancing it.
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError>;
}

macro_rules! int_codec {
    ($($t:ty),* $(,)?) => {
        $(impl WireCodec for $t {
            #[inline]
            fn encode_wire(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take_bytes(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        })*
    };
}

int_codec!(u8, i8, u16, i16, u32, i32, u64, i64);

impl WireCodec for f32 {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        self.to_bits().encode_wire(out);
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::decode_wire(input)?))
    }
}

impl WireCodec for f64 {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        self.to_bits().encode_wire(out);
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode_wire(input)?))
    }
}

impl WireCodec for bool {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_wire(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }
}

impl WireCodec for () {
    #[inline]
    fn encode_wire(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn decode_wire(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        self.0.encode_wire(out);
        self.1.encode_wire(out);
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode_wire(input)?, B::decode_wire(input)?))
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_wire(out);
            }
        }
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode_wire(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_wire(input)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_wire(out);
        for v in self {
            v.encode_wire(out);
        }
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::decode_wire(input)? as usize;
        // Capacity bounded by what the input could possibly hold, so a
        // corrupt length prefix cannot force a huge allocation.
        let mut out = Vec::with_capacity(n.min(input.len()));
        for _ in 0..n {
            out.push(T::decode_wire(input)?);
        }
        Ok(out)
    }
}

impl WireCodec for WKey {
    #[inline]
    fn encode_wire(&self, out: &mut Vec<u8>) {
        self.bytes.encode_wire(out);
        self.id.encode_wire(out);
    }
    #[inline]
    fn decode_wire(input: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = u8::decode_wire(input)?;
        let id = u64::decode_wire(input)?;
        Ok(WKey { id, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wkey_identity_ignores_size() {
        assert_eq!(WKey::new(5, 4), WKey::new(5, 8));
        assert!(WKey::new(3, 4) < WKey::new(5, 4));
        assert_eq!(WKey::four(9).wire_bytes(), 4);
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(3u32.wire_bytes(), 4);
        assert_eq!(3u64.wire_bytes(), 8);
        assert_eq!(1.5f64.wire_bytes(), 8);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2.0f64).wire_bytes(), 12);
        assert_eq!(Some(5u32).wire_bytes(), 5);
        assert_eq!(None::<u32>.wire_bytes(), 1);
        assert_eq!(vec![1u64, 2, 3].wire_bytes(), 4 + 24);
    }

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode_wire(&mut buf);
        let mut input = buf.as_slice();
        let back = T::decode_wire(&mut input).unwrap();
        assert_eq!(back, v);
        assert!(input.is_empty(), "decode must consume the whole encoding");
    }

    #[test]
    fn codec_roundtrips_primitives() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-7i8);
        roundtrip(0xbeefu16);
        roundtrip(-1234i16);
        roundtrip(0xdead_beefu32);
        roundtrip(i32::MIN);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn codec_roundtrips_floats_bit_exactly() {
        for v in [
            0.0f64,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut buf = Vec::new();
            v.encode_wire(&mut buf);
            let back = f64::decode_wire(&mut buf.as_slice()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let v = f32::NAN;
        let mut buf = Vec::new();
        v.encode_wire(&mut buf);
        let back = f32::decode_wire(&mut buf.as_slice()).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn codec_roundtrips_composites() {
        roundtrip((1u32, 2.5f64));
        roundtrip(Some(42u64));
        roundtrip(None::<u64>);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![(5u64, 1.25f64), (9, -0.5)]);
    }

    #[test]
    fn codec_roundtrips_wkey_with_size() {
        let k = WKey::new(77, 8);
        let mut buf = Vec::new();
        k.encode_wire(&mut buf);
        let back = WKey::decode_wire(&mut buf.as_slice()).unwrap();
        // WKey equality ignores the size field; the codec must not.
        assert_eq!(back.id, 77);
        assert_eq!(back.bytes, 8);
    }

    #[test]
    fn codec_reports_truncation_and_invalid_tags() {
        assert_eq!(
            u64::decode_wire(&mut [1u8, 2, 3].as_slice()),
            Err(WireError::Truncated)
        );
        assert_eq!(
            bool::decode_wire(&mut [7u8].as_slice()),
            Err(WireError::Invalid("bool tag"))
        );
        assert_eq!(
            Option::<u8>::decode_wire(&mut [9u8].as_slice()),
            Err(WireError::Invalid("option tag"))
        );
        // A corrupt Vec length prefix larger than the remaining input
        // must fail with Truncated, not allocate or panic.
        let mut buf = Vec::new();
        (u32::MAX).encode_wire(&mut buf);
        assert_eq!(
            Vec::<u64>::decode_wire(&mut buf.as_slice()),
            Err(WireError::Truncated)
        );
    }
}
