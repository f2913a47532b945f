//! In-workspace shim for the subset of the `bytes` crate API used by this
//! workspace.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the [`Buf`]/[`BufMut`] trait subset that `prio_net::wire` and
//! `prio_core::messages` rely on: little-endian integer accessors, slice
//! copies, and remaining-byte accounting. [`Buf`] is implemented for
//! `&[u8]` (decoding consumes the slice front) and [`BufMut`] for `Vec<u8>`
//! (encoding appends).
//!
//! The workspace builds without LTO, so the non-generic methods the codec
//! calls once per field element are `#[inline]`: without it each one is an
//! out-of-line call from the crate that encodes or decodes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A cursor over readable bytes.
///
/// All `get_*` methods consume from the front and panic if fewer bytes remain
/// than requested — callers are expected to check [`Buf::remaining`] first,
/// which is exactly what the wire decoders do.
pub trait Buf {
    /// Number of bytes left to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes into `dst`, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// True if any bytes are left.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.len(),
            "buffer underflow: need {} bytes, have {}",
            dst.len(),
            self.len()
        );
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        (**self).copy_to_slice(dst)
    }
    fn get_u8(&mut self) -> u8 {
        (**self).get_u8()
    }
    fn get_u32_le(&mut self) -> u32 {
        (**self).get_u32_le()
    }
    fn get_u64_le(&mut self) -> u64 {
        (**self).get_u64_le()
    }
}

/// A growable sink of writable bytes.
pub trait BufMut {
    /// Appends all of `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
    fn put_u8(&mut self, v: u8) {
        (**self).put_u8(v)
    }
    fn put_u32_le(&mut self, v: u32) {
        (**self).put_u32_le(v)
    }
    fn put_u64_le(&mut self, v: u64) {
        (**self).put_u64_le(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_and_slices() {
        let mut buf = Vec::new();
        buf.put_u8(0xab);
        buf.put_u32_le(0x1234_5678);
        buf.put_u64_le(0xdead_beef_cafe_f00d);
        buf.put_slice(b"xyz");
        let mut r: &[u8] = &buf;
        assert_eq!(r.remaining(), 1 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u32_le(), 0x1234_5678);
        assert_eq!(r.get_u64_le(), 0xdead_beef_cafe_f00d);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert!(!r.has_remaining());
    }

    #[test]
    fn consuming_advances_the_slice_front() {
        let data = [1u8, 2, 3, 4];
        let mut r: &[u8] = &data;
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r, &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut r: &[u8] = &[1, 2];
        r.get_u32_le();
    }
}
