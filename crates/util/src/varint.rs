//! LEB128 varints: the one integer codec of the wire format's tree
//! nodes and page keys and of every log record header.
//!
//! Seven bits per byte, least significant group first, the high bit set
//! on every byte but the last. A value below 128 takes one byte, a `u64`
//! at most ten ([`len`] is exact). [`put`] writes the shortest encoding
//! and [`take`] accepts only that one, so every value has exactly one
//! encoding. [`take`] refuses, as [`Refused::Bad`]:
//!
//! * an **overlong** encoding — a last byte of 0 after another byte,
//!   which a shorter encoding would have said;
//! * an **11th byte** — a tenth byte with its continuation bit set;
//! * a tenth byte whose bits **overflow `u64`** (anything above 1).
//!
//! Input that ends inside a varint is [`Refused::Eof`]. Nothing is ever
//! allocated from a varint's value here; a caller that reads a count
//! from one caps it.

/// The most bytes the varint of a `u64` takes: ⌈64 / 7⌉.
pub const MAX_LEN: usize = 10;

/// Bytes of the varint of `v`: 1 for 0 to 127, one more per further
/// seven significant bits, [`MAX_LEN`] at most.
#[inline]
pub const fn len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

/// Append the shortest varint of `v`, [`len`]`(v)` bytes.
#[inline]
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Why [`take`] refused its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// Every byte of the input continued the varint: it ends inside one.
    Eof,
    /// Not the one canonical encoding of a `u64`: `"overlong"`,
    /// `"longer than ten bytes"` or `"overflows u64"`.
    Bad(&'static str),
}

/// Decode the varint at the head of `bytes`: its value and its length.
/// Reads at most [`MAX_LEN`] bytes.
pub fn take(bytes: &[u8]) -> Result<(u64, usize), Refused> {
    let mut value = 0u64;
    for (i, &byte) in bytes.iter().take(MAX_LEN).enumerate() {
        // The tenth byte carries bit 63 alone and ends the varint.
        if i == MAX_LEN - 1 && byte > 1 {
            return Err(Refused::Bad(if byte & 0x80 != 0 {
                "longer than ten bytes"
            } else {
                "overflows u64"
            }));
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(Refused::Bad("overlong"));
            }
            return Ok((value, i + 1));
        }
    }
    // Every byte continued the varint (at most nine do).
    Err(Refused::Eof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_length_roundtrips() {
        let mut values = vec![0, 1, 127, 128, 300, u64::MAX];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        for v in values {
            let mut out = Vec::new();
            put(&mut out, v);
            assert_eq!(out.len(), len(v), "{v}");
            out.push(0xff);
            assert_eq!(take(&out), Ok((v, len(v))), "{v}");
        }
        assert_eq!(len(u64::MAX), MAX_LEN);
    }

    #[test]
    fn non_canonical_encodings_are_refused() {
        let bad = |reason| Err(Refused::Bad(reason));
        // Overlong: 0 as two bytes, 1 as three, 127 as two.
        assert_eq!(take(&[0x80, 0x00]), bad("overlong"));
        assert_eq!(take(&[0x81, 0x80, 0x00]), bad("overlong"));
        assert_eq!(take(&[0xff, 0x00]), bad("overlong"));
        // Nine continuation bytes, then a tenth that carries more than
        // bit 63 or continues.
        let mut long = vec![0xff; 9];
        long.push(0x01);
        assert_eq!(take(&long), Ok((u64::MAX, 10)));
        long[9] = 0x02;
        assert_eq!(take(&long), bad("overflows u64"));
        long[9] = 0x7f;
        assert_eq!(take(&long), bad("overflows u64"));
        long[9] = 0x81;
        long.push(0x01);
        assert_eq!(take(&long), bad("longer than ten bytes"));
        long[9] = 0x80;
        assert_eq!(take(&long), bad("longer than ten bytes"));
        // Truncated: a continuation bit with nothing after it.
        assert_eq!(take(&[0x80]), Err(Refused::Eof));
        assert_eq!(take(&[]), Err(Refused::Eof));
        assert_eq!(take(&long[..9]), Err(Refused::Eof));
    }
}
