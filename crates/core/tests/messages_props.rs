//! Property tests for the server-protocol wire formats: every [`ServerMsg`]
//! variant and [`ShareBlob`] encoding round-trips, and the decoders reject
//! truncated and garbage-suffixed inputs. These are the exact bytes that
//! cross a socket on the TCP transport backend.

use prio_core::client::ShareBlob;
use prio_core::messages::{
    blob_from_bytes, blob_to_bytes, pack_decisions, unpack_decisions, ServerMsg,
};
use prio_crypto::prg::{Seed, SEED_LEN};
use prio_field::{Field64, FieldElement};
use prio_net::wire::{Wire, WireError};
use prio_snip::{Round1Msg, Round2Msg};
use proptest::prelude::*;

fn felts(raw: &[u64]) -> Vec<Field64> {
    raw.iter().map(|&v| Field64::from_u64(v)).collect()
}

/// Round-trip plus rejection of every strict prefix and of trailing bytes.
fn check_msg(msg: &ServerMsg<Field64>, garbage: &[u8]) {
    let bytes = msg.to_wire_bytes();
    assert_eq!(msg.encoded_len(), bytes.len(), "{msg:?} size");
    assert_eq!(&ServerMsg::<Field64>::from_wire_bytes(&bytes).unwrap(), msg);
    for cut in 0..bytes.len() {
        assert!(
            ServerMsg::<Field64>::from_wire_bytes(&bytes[..cut]).is_err(),
            "{msg:?} decoded from a {cut}-byte prefix"
        );
    }
    let mut extended = bytes;
    extended.extend_from_slice(garbage);
    assert!(
        ServerMsg::<Field64>::from_wire_bytes(&extended).is_err(),
        "{msg:?} accepted a garbage suffix"
    );
}

/// Overwrites field element `index` of an encoded round frame (tag, ctx
/// and count come first) with `2^64 − 1 - low`, which is `>= p` for
/// `Field64` (`p = 2^64 − 2^32 + 1`); the decoder must reject it.
fn check_non_canonical_round(msg: &ServerMsg<Field64>, index: usize, low: u16) {
    let mut bytes = msg.to_wire_bytes();
    let at = 1 + 8 + 4 + index * Field64::ENCODED_LEN;
    let bad = u64::MAX - u64::from(low);
    bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
    assert_eq!(
        ServerMsg::<Field64>::from_wire_bytes(&bytes),
        Err(WireError("non-canonical field element")),
        "{msg:?} with a non-canonical element at {index}"
    );
}

proptest! {
    #[test]
    fn non_canonical_residue_anywhere_in_a_round_frame_is_rejected(
        raw in prop::collection::vec(any::<u64>(), 1..24),
        index in any::<usize>(),
        low in any::<u16>(),
    ) {
        let r1: Vec<Round1Msg<Field64>> = raw
            .iter()
            .map(|&v| Round1Msg { d: Field64::from_u64(v), e: Field64::from_u64(!v) })
            .collect();
        let r2: Vec<Round2Msg<Field64>> = raw
            .iter()
            .map(|&v| Round2Msg { sigma: Field64::from_u64(!v), out: Field64::from_u64(v) })
            .collect();
        let i = index % (2 * raw.len());
        check_non_canonical_round(&ServerMsg::Round1 { ctx: 1, msgs: r1 }, i, low);
        check_non_canonical_round(&ServerMsg::Round2 { ctx: 2, msgs: r2 }, i, low);
    }

    #[test]
    fn share_blobs_reject_trailing_bytes(
        seed in any::<[u8; SEED_LEN]>(),
        raw in prop::collection::vec(any::<u64>(), 0..24),
        garbage in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        // One submission has one encoding: a blob followed by anything
        // else is malformed, so the server rejects it locally.
        for blob in [ShareBlob::Seed(Seed(seed)), ShareBlob::Explicit(felts(&raw))] {
            let mut bytes = blob_to_bytes(&blob);
            bytes.extend_from_slice(&garbage);
            prop_assert_eq!(
                blob_from_bytes::<Field64>(&bytes),
                Err(WireError("trailing bytes after blob"))
            );
        }
    }

    #[test]
    fn round1_msgs_roundtrip(ctx in any::<u64>(), raw in prop::collection::vec(any::<u64>(), 0..24), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        let msgs: Vec<Round1Msg<Field64>> = raw
            .chunks(2)
            .map(|c| Round1Msg {
                d: Field64::from_u64(c[0]),
                e: Field64::from_u64(*c.last().unwrap()),
            })
            .collect();
        check_msg(&ServerMsg::Round1 { ctx, msgs: msgs.clone() }, &garbage);
        check_msg(&ServerMsg::Round1Combined { ctx, msgs }, &garbage);
    }

    #[test]
    fn round2_msgs_roundtrip(ctx in any::<u64>(), raw in prop::collection::vec(any::<u64>(), 0..24), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        let msgs: Vec<Round2Msg<Field64>> = raw
            .chunks(2)
            .map(|c| Round2Msg {
                sigma: Field64::from_u64(c[0]),
                out: Field64::from_u64(*c.last().unwrap()),
            })
            .collect();
        check_msg(&ServerMsg::Round2 { ctx, msgs }, &garbage);
    }

    #[test]
    fn decisions_roundtrip(ctx in any::<u64>(), bits in prop::collection::vec(any::<u8>(), 0..32), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        check_msg(&ServerMsg::Decisions { ctx, bits }, &garbage);
    }

    #[test]
    fn accumulator_roundtrips(raw in prop::collection::vec(any::<u64>(), 0..32), garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        check_msg(&ServerMsg::Accumulator(felts(&raw)), &garbage);
    }

    #[test]
    fn control_msgs_roundtrip(garbage in prop::collection::vec(any::<u8>(), 1..9)) {
        check_msg(&ServerMsg::PublishRequest, &garbage);
        check_msg(&ServerMsg::Shutdown, &garbage);
    }

    #[test]
    fn client_batch_roundtrips(
        ctx_seed in any::<u64>(),
        labels in prop::collection::vec(any::<u64>(), 0..8),
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..8),
        garbage in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        check_msg(
            &ServerMsg::ClientBatch { ctx_seed, labels, blobs },
            &garbage,
        );
    }

    #[test]
    fn unknown_tags_rejected(tag in 10u8..255, body in prop::collection::vec(any::<u8>(), 0..16)) {
        // Tags 2..=9 are assigned; the retired tag 1 and everything above 9
        // must fail cleanly.
        for tag in [1, tag] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            prop_assert!(ServerMsg::<Field64>::from_wire_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn share_blobs_roundtrip(seed in any::<[u8; SEED_LEN]>(), raw in prop::collection::vec(any::<u64>(), 0..24)) {
        let blobs: [ShareBlob<Field64>; 2] =
            [ShareBlob::Seed(Seed(seed)), ShareBlob::Explicit(felts(&raw))];
        for blob in blobs {
            let bytes = blob_to_bytes(&blob);
            prop_assert_eq!(blob_from_bytes::<Field64>(&bytes).unwrap(), blob);
            // Truncations must never decode.
            for cut in 0..bytes.len() {
                prop_assert!(blob_from_bytes::<Field64>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn decisions_pack_unpack_roundtrip(ds in prop::collection::vec(any::<bool>(), 0..70)) {
        let packed = pack_decisions(&ds);
        prop_assert_eq!(packed.len(), ds.len().div_ceil(8));
        prop_assert_eq!(unpack_decisions(&packed, ds.len()), ds);
    }
}
