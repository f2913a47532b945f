//! Property tests for the wire layer: every `Wire` type and field-vector
//! helper in `prio_net::wire` round-trips, and every decoder rejects
//! truncation and trailing garbage instead of panicking or misreading.
//!
//! These bytes are exactly what crosses a real socket on the TCP backend,
//! so the decode paths are attack surface: a malformed or hostile stream
//! must produce a clean `WireError`, never a wrong value, a panic, or an
//! unbounded allocation.

use prio_field::{Field128, Field256, Field32, Field64, FieldElement};
use prio_net::tcp::{decode_frame_header, encode_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use prio_net::wire::{get_field, get_field_vec, put_field, put_field_vec, Wire, WireError};
use prio_net::NodeId;
use proptest::prelude::*;
use rand::SeedableRng;

/// Round-trips a value and checks the two decode-rejection properties that
/// hold for every `Wire` encoding:
/// * any strict prefix of the encoding fails to fully decode;
/// * any appended garbage makes `from_wire_bytes` reject trailing bytes.
fn roundtrip_and_reject<T: Wire + PartialEq + std::fmt::Debug>(value: &T, garbage: &[u8]) {
    let bytes = value.to_wire_bytes();
    assert_eq!(&T::from_wire_bytes(&bytes).unwrap(), value);
    // Truncation at every split point: either the decoder errors, or (for
    // prefix-decodable values) `from_wire_bytes` flags the missing tail as
    // a hard error. It must never succeed.
    for cut in 0..bytes.len() {
        assert!(
            T::from_wire_bytes(&bytes[..cut]).is_err(),
            "decoded from a {cut}-byte prefix of a {}-byte encoding",
            bytes.len()
        );
    }
    // Garbage suffix: full-consumption decoding must reject it.
    if !garbage.is_empty() {
        let mut extended = bytes.clone();
        extended.extend_from_slice(garbage);
        assert_eq!(
            T::from_wire_bytes(&extended),
            Err(WireError("trailing bytes"))
        );
    }
}

/// `n` field elements drawn from every residue, not only small ones.
fn random_elems<F: FieldElement>(seed: u64, n: usize) -> Vec<F> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

/// A field vector round-trips at its exact size, and every strict prefix
/// fails to decode.
fn check_field_vec<F: FieldElement>(xs: &[F]) {
    let mut buf = Vec::new();
    put_field_vec(&mut buf, xs);
    assert_eq!(buf.len(), 4 + xs.len() * F::ENCODED_LEN);
    let mut slice = buf.as_slice();
    assert_eq!(get_field_vec::<F, _>(&mut slice).unwrap(), xs);
    assert!(slice.is_empty());
    for cut in 0..buf.len() {
        let mut short = &buf[..cut];
        assert!(
            get_field_vec::<F, _>(&mut short).is_err(),
            "{} vector decoded from a {cut}-byte prefix",
            F::NAME
        );
    }
}

/// A length prefix promising more elements than the buffer holds errors,
/// without allocating the promised amount.
fn check_length_bomb<F: FieldElement>(claimed: u32, tail: &[u8]) {
    if (claimed as usize) * F::ENCODED_LEN <= tail.len() {
        return;
    }
    let mut buf = claimed.to_le_bytes().to_vec();
    buf.extend_from_slice(tail);
    let mut slice = buf.as_slice();
    assert!(get_field_vec::<F, _>(&mut slice).is_err());
}

/// An encoding of a value `>= p`: all ones except the low 16 bits. Every
/// modulus is below `2^k - 2^16` for its width `k` (the closest,
/// `Field64`'s `2^64 - 2^32 + 1`, by `2^32`), so each such value is
/// non-canonical.
fn non_canonical<F: FieldElement>(low: u16) -> Vec<u8> {
    let mut bytes = vec![0xff; F::ENCODED_LEN];
    bytes[..2].copy_from_slice(&low.to_le_bytes());
    bytes
}

/// Overwrites element `index` of an encoded vector with a non-canonical
/// residue; the decoder must name it, not read past or around it.
fn check_non_canonical_in_vec<F: FieldElement>(xs: &[F], index: usize, low: u16) {
    let mut buf = Vec::new();
    put_field_vec(&mut buf, xs);
    let at = 4 + index * F::ENCODED_LEN;
    buf[at..at + F::ENCODED_LEN].copy_from_slice(&non_canonical::<F>(low));
    let mut slice = buf.as_slice();
    assert_eq!(
        get_field_vec::<F, _>(&mut slice),
        Err(WireError("non-canonical field element")),
        "{} vector with a non-canonical element at {index}",
        F::NAME
    );
}

proptest! {
    #[test]
    fn u64_roundtrips_and_rejects(v in any::<u64>(), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn u8_roundtrips_and_rejects(v in any::<u8>(), garbage in prop::collection::vec(any::<u8>(), 1..5)) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn bool_roundtrips_and_rejects(v in any::<bool>(), garbage in prop::collection::vec(any::<u8>(), 1..5)) {
        roundtrip_and_reject(&v, &garbage);
        // Any tag other than 0/1 is invalid.
        let tag = garbage[0];
        prop_assume!(tag > 1);
        prop_assert!(bool::from_wire_bytes(&[tag]).is_err());
    }

    #[test]
    fn byte_vec_roundtrips_and_rejects(
        v in prop::collection::vec(any::<u8>(), 0..64),
        garbage in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        roundtrip_and_reject(&v, &garbage);
    }

    #[test]
    fn field32_vec_roundtrips(seed in any::<u64>(), n in 0usize..32) {
        check_field_vec(&random_elems::<Field32>(seed, n));
    }

    #[test]
    fn field64_vec_roundtrips(raw in prop::collection::vec(any::<u64>(), 0..32)) {
        let xs: Vec<Field64> = raw.iter().map(|&v| Field64::from_u64(v)).collect();
        check_field_vec(&xs);
    }

    #[test]
    fn field128_vec_roundtrips(raw in prop::collection::vec(any::<u128>(), 0..16)) {
        let xs: Vec<Field128> = raw.iter().map(|&v| Field128::from_u128(v)).collect();
        check_field_vec(&xs);
    }

    #[test]
    fn field256_vec_roundtrips(seed in any::<u64>(), n in 0usize..8) {
        check_field_vec(&random_elems::<Field256>(seed, n));
    }

    #[test]
    fn non_canonical_residue_anywhere_in_a_field_vec_is_rejected(
        seed in any::<u64>(),
        n in 1usize..16,
        index in any::<usize>(),
        low in any::<u16>(),
    ) {
        let i = index % n;
        check_non_canonical_in_vec(&random_elems::<Field32>(seed, n), i, low);
        check_non_canonical_in_vec(&random_elems::<Field64>(seed, n), i, low);
        check_non_canonical_in_vec(&random_elems::<Field128>(seed, n), i, low);
        check_non_canonical_in_vec(&random_elems::<Field256>(seed, n), i, low);
    }

    #[test]
    fn single_field_element_roundtrips(v in any::<u64>()) {
        let x = Field64::from_u64(v);
        let mut buf = Vec::new();
        put_field(&mut buf, x);
        prop_assert_eq!(buf.len(), Field64::ENCODED_LEN);
        let mut slice = buf.as_slice();
        prop_assert_eq!(get_field::<Field64, _>(&mut slice), Ok(x));
    }

    #[test]
    fn claimed_length_never_outruns_backing_bytes(claimed in any::<u32>(), tail in prop::collection::vec(any::<u8>(), 0..32)) {
        check_length_bomb::<Field32>(claimed, &tail);
        check_length_bomb::<Field64>(claimed, &tail);
        check_length_bomb::<Field128>(claimed, &tail);
        check_length_bomb::<Field256>(claimed, &tail);
    }

    #[test]
    fn non_canonical_field_residues_rejected(low in 1u64..0x1_0000_0000) {
        // Field64 is the Goldilocks prime p = 2^64 − 2^32 + 1, so every
        // value in [p, 2^64) has the form 0xffff_ffff_0000_0000 + low with
        // low ≥ 1. All of them must be rejected as non-canonical.
        let bytes = (0xffff_ffff_0000_0000u64 + low).to_le_bytes();
        let mut slice = bytes.as_slice();
        prop_assert!(get_field::<Field64, _>(&mut slice).is_err());
    }

    #[test]
    fn tcp_frame_header_roundtrips(src in any::<u64>(), len in 0usize..2048) {
        let payload = vec![0xabu8; len];
        let frame = encode_frame(NodeId(src as usize), &payload).unwrap();
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + len);
        let header: [u8; FRAME_HEADER_LEN] = frame[..FRAME_HEADER_LEN].try_into().unwrap();
        let (decoded_src, decoded_len) = decode_frame_header(&header).unwrap();
        prop_assert_eq!(decoded_src, NodeId(src as usize));
        prop_assert_eq!(decoded_len, len);
        prop_assert_eq!(&frame[FRAME_HEADER_LEN..], payload.as_slice());
    }

    #[test]
    fn tcp_frame_header_rejects_oversized_lengths(excess in 1u64..(u32::MAX as u64 - MAX_FRAME_LEN as u64 + 1)) {
        let mut header = [0u8; FRAME_HEADER_LEN];
        let bad_len = (MAX_FRAME_LEN as u64 + excess) as u32;
        header[8..].copy_from_slice(&bad_len.to_le_bytes());
        prop_assert!(decode_frame_header(&header).is_none());
    }
}
