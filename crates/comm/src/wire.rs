//! Compact binary codec for message payloads.
//!
//! Everything sent between ranks implements [`Wire`]. The encoding is a
//! simple little-endian byte layout with length-prefixed containers — no
//! external serialization framework is needed, which keeps the hot path
//! allocation-light and makes message *sizes* (measured in experiment E2)
//! easy to reason about.

use crate::error::CommError;

/// Read cursor over a received byte buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take exactly `n` bytes, advancing the cursor.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CommError> {
        if self.remaining() < n {
            return Err(CommError::Decode(format!(
                "need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Types that can be encoded to / decoded from the wire format.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value, advancing the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError>;
    /// Exact size of this value's encoding, in bytes, without producing
    /// it. The zero-copy send path uses this both to decide which arm a
    /// payload takes and to charge the LogGP clock the same modeled
    /// bytes a region transfer *would* have occupied on a real wire —
    /// so the invariant `wire_size() == encode-then-len` must hold for
    /// every implementation. The default materializes the encoding;
    /// in-tree implementations override it with O(1)-per-element sums.
    fn wire_size(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Encode a value into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decode a value from a slice, requiring the slice to be fully consumed.
pub fn decode_from_slice<T: Wire>(bytes: &[u8]) -> Result<T, CommError> {
    let mut cur = Cursor::new(bytes);
    let v = T::decode(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(CommError::Decode(format!(
            "{} trailing bytes after decode",
            cur.remaining()
        )));
    }
    Ok(v)
}

macro_rules! wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
                let n = std::mem::size_of::<$t>();
                let s = cur.take(n)?;
                let mut a = [0u8; std::mem::size_of::<$t>()];
                a.copy_from_slice(s);
                Ok(<$t>::from_le_bytes(a))
            }
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

wire_le_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(u64::decode(cur)? as usize)
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CommError::Decode(format!("invalid bool byte {b}"))),
        }
    }
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(())
    }
    fn wire_size(&self) -> usize {
        0
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        let n = u64::decode(cur)? as usize;
        let s = cur.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|e| CommError::Decode(e.to_string()))
    }
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        let n = u64::decode(cur)? as usize;
        // Guard against corrupt length prefixes before allocating anything:
        // each element of a non-zero-sized T takes at least one byte, so a
        // prefix past the remaining bytes is refused, and the capacity is
        // bounded by the bytes actually present.
        if std::mem::size_of::<T>() > 0 && n > cur.remaining() {
            return Err(CommError::Decode(format!("implausible vec length {n}")));
        }
        let mut out = Vec::with_capacity(n.min(cur.remaining()));
        for _ in 0..n {
            out.push(T::decode(cur)?);
        }
        Ok(out)
    }
    fn wire_size(&self) -> usize {
        8 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(cur)?)),
            b => Err(CommError::Decode(format!("invalid option byte {b}"))),
        }
    }
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok((A::decode(cur)?, B::decode(cur)?))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok((A::decode(cur)?, B::decode(cur)?, C::decode(cur)?))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok((
            A::decode(cur)?,
            B::decode(cur)?,
            C::decode(cur)?,
            D::decode(cur)?,
        ))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size() + self.3.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(123456u32);
        roundtrip(u64::MAX);
        roundtrip(-1i8);
        roundtrip(i16::MIN);
        roundtrip(-123456i32);
        roundtrip(i64::MIN);
        roundtrip(std::f32::consts::PI);
        roundtrip(std::f64::consts::E);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
        roundtrip(());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(vec![1.0f64, -2.5, 3.25]);
        roundtrip(Vec::<i64>::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, 2.5f64));
        roundtrip((1u8, 2.5f64, String::from("x")));
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip(vec![vec![1i32, 2], vec![], vec![3]]);
        roundtrip(vec![Some(1.0f64), None]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert!(decode_from_slice::<u32>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode_to_vec(&7u64);
        assert!(decode_from_slice::<u64>(&bytes[..4]).is_err());
    }

    #[test]
    fn invalid_bool_and_option_bytes_rejected() {
        assert!(decode_from_slice::<bool>(&[7]).is_err());
        assert!(decode_from_slice::<Option<u8>>(&[9, 0]).is_err());
    }

    #[test]
    fn implausible_vec_length_rejected() {
        // Length prefix claims 2^60 elements with a 0-byte body.
        let bytes = encode_to_vec(&(1u64 << 60));
        assert!(decode_from_slice::<Vec<u64>>(&bytes).is_err());
        // One element more than there are bytes left is refused by the
        // guard itself, before any allocation, not by a later truncation.
        let mut bytes = encode_to_vec(&5u64);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        match decode_from_slice::<Vec<u8>>(&bytes) {
            Err(CommError::Decode(msg)) => assert!(msg.contains("implausible"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn string_invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        (2u64).encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_from_slice::<String>(&bytes).is_err());
    }

    #[test]
    fn vec_f64_layout_is_8_bytes_per_element_plus_header() {
        let v = vec![0.0f64; 100];
        assert_eq!(encode_to_vec(&v).len(), 8 + 800);
    }

    /// The zero-copy invariant: `wire_size` must equal the materialized
    /// encoding's length for every implementation, since the LogGP clock
    /// charges region transfers by `wire_size` alone.
    #[test]
    fn wire_size_matches_encoded_length() {
        fn check<T: Wire>(v: T) {
            assert_eq!(v.wire_size(), encode_to_vec(&v).len());
        }
        check(0u8);
        check(u16::MAX);
        check(123456u32);
        check(u64::MAX);
        check(-1i8);
        check(i64::MIN);
        check(std::f32::consts::PI);
        check(std::f64::consts::E);
        check(true);
        check(usize::MAX);
        check(());
        check(String::from("héllo wörld"));
        check(String::new());
        check(vec![1.0f64; 1000]);
        check(Vec::<i64>::new());
        check(Some(42u32));
        check(Option::<u32>::None);
        check((1u8, 2.5f64));
        check((1u8, 2.5f64, String::from("x")));
        check((1u8, 2u16, 3u32, 4u64));
        check(vec![vec![1i32, 2], vec![], vec![3]]);
        check(vec![(vec![1usize, 2], Some(7.5f64))]);
    }
}
