//! Unsigned LEB128 varints: the one encoder and decoder behind the trace
//! codec (`btb_trace::codec`) and the `hintd` wire protocol. Both decode
//! untrusted bytes, so a value that does not fit a `u64` is an error, never
//! silently truncated.
//!
//! ```
//! use sim_support::leb128;
//!
//! let mut buf = Vec::new();
//! leb128::put(&mut buf, 300);
//! assert_eq!(buf, [0xac, 0x02]);
//! let decode = |bytes: &[u8]| {
//!     let mut bytes = bytes.iter().copied();
//!     leb128::decode(|| bytes.next().ok_or("eof"), || "overflow")
//! };
//! assert_eq!(decode(&buf), Ok(300));
//! assert_eq!(decode(&[0xff; 10][..9]), Err("eof"));
//! // 2^64 does not fit: a 10th byte may only be 0 or 1.
//! let mut overlong = [0x80; 10];
//! overlong[9] = 0x02;
//! assert_eq!(decode(&overlong), Err("overflow"));
//! ```

/// Appends `v` to `buf` as an unsigned LEB128 varint.
#[inline]
pub fn put(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes one varint, pulling bytes from `next_byte` (whose error, e.g.
/// end of input, is passed through). An encoding that overflows `u64` — a
/// 10th byte above 1 — yields `overflow()`, so each caller keeps its own
/// error type.
///
/// Always inlined: left to the inliner, the trace codec's per-record
/// decode through `hintd::proto` measured about 20% slower.
#[inline(always)]
pub fn decode<E>(
    mut next_byte: impl FnMut() -> Result<u8, E>,
    overflow: impl FnOnce() -> E,
) -> Result<u64, E> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = next_byte()?;
        if shift == 63 && byte > 1 {
            return Err(overflow());
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}
