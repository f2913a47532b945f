//! Length-delimited wire encoding for protocol messages.
//!
//! Hand-rolled (rather than derived) so message sizes are byte-exact and
//! stable: Figure 6's bandwidth numbers are measured off these encodings.
//! All integers are little-endian; vectors are length-prefixed with `u32`.
//!
//! Allocation contract. Field elements are encoded and decoded through a
//! stack scratch, never a heap temporary, so the data-plane codec's cost
//! does not grow with heap traffic per element. Encoding a frame
//! ([`Wire::to_wire_bytes`], [`to_traced_bytes`]) allocates one buffer of
//! exactly the frame's size, trace suffix included, measured first by
//! [`Wire::encoded_len`]. Decoding allocates once per decoded collection
//! (a field vector, a byte vector), at its final size.

use bytes::{Buf, BufMut};
use prio_field::FieldElement;
use std::marker::PhantomData;

/// Error from decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A type with a canonical wire encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);
    /// Decodes a value, consuming bytes from `buf`.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError>;

    /// The exact number of bytes [`Wire::encode`] appends, measured by
    /// encoding into a counter rather than a buffer.
    fn encoded_len(&self) -> usize {
        let mut n = LenCounter(0);
        self.encode(&mut n);
        n.0
    }

    /// Convenience: encodes into a fresh vector of exactly the encoded size.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode(&mut v);
        v
    }

    /// Convenience: decodes from a slice, requiring full consumption.
    fn from_wire_bytes(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.has_remaining() {
            return Err(WireError("trailing bytes"));
        }
        Ok(v)
    }
}

/// Writes a `u32` length prefix. Lengths here are sizes of locally built
/// collections (encode side), far below `u32::MAX`; a value that does not
/// fit is a local logic bug, not remote input.
pub fn put_len<B: BufMut>(buf: &mut B, len: usize) {
    // lint:allow(no-panic, encode-side length of a locally built collection; untrusted input never reaches this path)
    buf.put_u32_le(u32::try_from(len).expect("length exceeds u32"));
}

/// A [`BufMut`] that keeps only the number of bytes put into it.
struct LenCounter(usize);

impl BufMut for LenCounter {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Reads a `u32` length prefix. The value is unchecked: each caller bounds
/// it by the bytes remaining before allocating for it.
pub fn get_len<B: Buf>(buf: &mut B) -> Result<usize, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError("truncated length"));
    }
    Ok(buf.get_u32_le() as usize)
}

impl Wire for u64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(*self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError("truncated u64"));
        }
        Ok(buf.get_u64_le())
    }
}

impl Wire for u8 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError("truncated u8"));
        }
        Ok(buf.get_u8())
    }
}

impl Wire for bool {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self as u8);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError("invalid bool")),
        }
    }
}

impl Wire for String {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_len(buf, self.len());
        buf.put_slice(self.as_bytes());
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(buf)?;
        String::from_utf8(bytes).map_err(|_| WireError("invalid utf-8 string"))
    }
}

/// Socket addresses are carried in their canonical display form
/// (`127.0.0.1:8080`, `[::1]:8080`), which `std` parses back losslessly.
/// Used by the multi-process control plane to exchange ephemeral-port
/// listener addresses.
impl Wire for std::net::SocketAddr {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.to_string().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        String::decode(buf)?
            .parse()
            .map_err(|_| WireError("invalid socket address"))
    }
}

impl Wire for Vec<u8> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_len(buf, self.len());
        buf.put_slice(self);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        if buf.remaining() < len {
            return Err(WireError("truncated byte vector"));
        }
        let mut v = vec![0u8; len];
        buf.copy_to_slice(&mut v);
        Ok(v)
    }
}

/// Tag byte opening a trace-context suffix (see [`to_traced_bytes`]).
pub const TRACE_SUFFIX_CTX: u8 = 1;

/// Length of a trace-context suffix: the tag byte, then `trace` and
/// `parent` as `u64`s.
const TRACE_SUFFIX_LEN: usize = 17;

/// Encodes `msg` with an optional per-batch trace-context suffix: the
/// canonical encoding, then — only when tracing — a tag byte and the
/// `(trace, parent)` pair. With `ctx = None` the bytes are *identical*
/// to [`Wire::to_wire_bytes`], so untraced runs keep the byte-exact
/// frame sizes Figure 6 measures, and traced frames stay decodable by
/// the suffix-aware reader everywhere.
pub fn to_traced_bytes<W: Wire>(msg: &W, ctx: Option<prio_obs::TraceCtx>) -> Vec<u8> {
    let suffix = if ctx.is_some() { TRACE_SUFFIX_LEN } else { 0 };
    let mut v = Vec::with_capacity(msg.encoded_len() + suffix);
    msg.encode(&mut v);
    if let Some(ctx) = ctx {
        v.put_u8(TRACE_SUFFIX_CTX);
        v.put_u64_le(ctx.trace);
        v.put_u64_le(ctx.parent);
    }
    v
}

/// Decodes a message that may carry a trace-context suffix. Zero bytes
/// after the message means "untraced" (the backwards-compatible form);
/// otherwise exactly a tagged `(trace, parent)` pair must remain —
/// anything else is a typed error, as with all remote input.
pub fn from_traced_bytes<W: Wire>(mut bytes: &[u8]) -> Result<(W, Option<prio_obs::TraceCtx>), WireError> {
    let msg = W::decode(&mut bytes)?;
    if !bytes.has_remaining() {
        return Ok((msg, None));
    }
    if bytes.remaining() != TRACE_SUFFIX_LEN || u8::decode(&mut bytes)? != TRACE_SUFFIX_CTX {
        return Err(WireError("malformed trace suffix"));
    }
    let trace = u64::decode(&mut bytes)?;
    let parent = u64::decode(&mut bytes)?;
    Ok((msg, Some(prio_obs::TraceCtx { trace, parent })))
}

/// Stack scratch one field element is encoded into or decoded from.
/// Every field in `prio_field` encodes in at most 32 bytes.
const FIELD_SCRATCH_LEN: usize = 64;

/// The width of `F` on the wire, checked at compile time against the
/// scratch.
struct Encoded<F>(PhantomData<F>);

impl<F: FieldElement> Encoded<F> {
    /// `F::ENCODED_LEN`. For a field wider than the scratch the inner
    /// subtraction overflows during constant evaluation and the build
    /// fails, so this never exceeds the scratch at run time.
    const LEN: usize = FIELD_SCRATCH_LEN - (FIELD_SCRATCH_LEN - F::ENCODED_LEN);
}

/// Encodes a field element (canonical little-endian residue).
pub fn put_field<F: FieldElement, B: BufMut>(buf: &mut B, x: F) {
    let mut scratch = [0u8; FIELD_SCRATCH_LEN];
    let (elem, _) = scratch.split_at_mut(Encoded::<F>::LEN);
    x.write_le_bytes(elem);
    buf.put_slice(elem);
}

/// Decodes a field element, rejecting non-canonical residues.
pub fn get_field<F: FieldElement, B: Buf>(buf: &mut B) -> Result<F, WireError> {
    if buf.remaining() < Encoded::<F>::LEN {
        return Err(WireError("truncated field element"));
    }
    let mut scratch = [0u8; FIELD_SCRATCH_LEN];
    let (elem, _) = scratch.split_at_mut(Encoded::<F>::LEN);
    buf.copy_to_slice(elem);
    F::read_le_bytes(elem).ok_or(WireError("non-canonical field element"))
}

/// Encodes a field-element vector with a length prefix.
pub fn put_field_vec<F: FieldElement, B: BufMut>(buf: &mut B, xs: &[F]) {
    put_len(buf, xs.len());
    for &x in xs {
        put_field(buf, x);
    }
}

/// Decodes a length-prefixed field-element vector.
pub fn get_field_vec<F: FieldElement, B: Buf>(buf: &mut B) -> Result<Vec<F>, WireError> {
    let len = get_len(buf)?;
    if buf.remaining() < len.saturating_mul(F::ENCODED_LEN) {
        return Err(WireError("truncated field vector"));
    }
    let mut xs = Vec::with_capacity(len);
    for _ in 0..len {
        xs.push(get_field(buf)?);
    }
    Ok(xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_field::{Field128, Field64, FieldElement};
    use rand::SeedableRng;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_wire_bytes(&42u64.to_wire_bytes()), Ok(42));
        assert_eq!(bool::from_wire_bytes(&true.to_wire_bytes()), Ok(true));
        let v = vec![1u8, 2, 3];
        assert_eq!(Vec::<u8>::from_wire_bytes(&v.to_wire_bytes()), Ok(v));
        let s = "fig4/throughput".to_string();
        assert_eq!(String::from_wire_bytes(&s.to_wire_bytes()), Ok(s));
        assert!(String::from_wire_bytes(&vec![0xffu8, 0xfe].to_wire_bytes()).is_err());
    }

    #[test]
    fn socket_addr_roundtrips() {
        use std::net::SocketAddr;
        for addr in ["127.0.0.1:0", "127.0.0.1:65535", "[::1]:8080"] {
            let addr: SocketAddr = addr.parse().unwrap();
            assert_eq!(SocketAddr::from_wire_bytes(&addr.to_wire_bytes()), Ok(addr));
        }
        assert!(SocketAddr::from_wire_bytes(&"not an addr".to_string().to_wire_bytes()).is_err());
    }

    #[test]
    fn field_vec_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let xs: Vec<Field128> = (0..17).map(|_| Field128::random(&mut rng)).collect();
        let mut buf = Vec::new();
        put_field_vec(&mut buf, &xs);
        assert_eq!(buf.len(), 4 + 17 * 16);
        let mut slice = buf.as_slice();
        let back: Vec<Field128> = get_field_vec(&mut slice).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn rejects_truncation_and_garbage() {
        let mut buf = Vec::new();
        put_field::<Field64, _>(&mut buf, Field64::from_u64(5));
        let mut short = &buf[..4];
        assert!(get_field::<Field64, _>(&mut short).is_err());
        // Non-canonical residue.
        let mut bad = u64::MAX.to_le_bytes().to_vec();
        let mut slice = bad.as_mut_slice() as &[u8];
        assert!(get_field::<Field64, _>(&mut slice).is_err());
        // Bool with invalid tag.
        assert!(bool::from_wire_bytes(&[7]).is_err());
        // Trailing bytes rejected.
        assert!(u64::from_wire_bytes(&[0u8; 12]).is_err());
    }

    #[test]
    fn traced_suffix_roundtrips_and_stays_byte_compatible() {
        let msg = 42u64;
        // No ctx: byte-identical to the plain encoding (fig6 exactness).
        assert_eq!(to_traced_bytes(&msg, None), msg.to_wire_bytes());
        assert_eq!(from_traced_bytes::<u64>(&msg.to_wire_bytes()), Ok((42, None)));
        // With ctx: the pair rides a 17-byte suffix and round-trips.
        let ctx = prio_obs::TraceCtx { trace: 7, parent: u64::MAX };
        let bytes = to_traced_bytes(&msg, Some(ctx));
        assert_eq!(bytes.len(), 8 + 17);
        assert_eq!(from_traced_bytes::<u64>(&bytes), Ok((42, Some(ctx))));
    }

    #[test]
    fn malformed_trace_suffixes_are_typed_errors() {
        let ctx = prio_obs::TraceCtx { trace: 1, parent: 2 };
        let good = to_traced_bytes(&42u64, Some(ctx));
        // Truncated suffix.
        assert!(from_traced_bytes::<u64>(&good[..good.len() - 1]).is_err());
        // Unknown tag.
        let mut bad = good.clone();
        bad[8] = 9;
        assert!(from_traced_bytes::<u64>(&bad).is_err());
        // Trailing garbage after a complete suffix.
        let mut long = good;
        long.push(0);
        assert!(from_traced_bytes::<u64>(&long).is_err());
    }

    #[test]
    fn length_bomb_rejected() {
        // A claimed huge vector with no backing bytes must error, not OOM.
        let mut buf = Vec::new();
        put_len(&mut buf, usize::MAX & 0xffff_ffff);
        let mut slice = buf.as_slice();
        assert!(get_field_vec::<Field64, _>(&mut slice).is_err());
    }
}
