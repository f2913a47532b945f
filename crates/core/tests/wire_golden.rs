//! Golden wire vectors: the exact bytes of one message of every
//! [`ServerMsg`] kind and of both [`ShareBlob`] forms, for `Field64` and
//! `Field128`, untraced and traced.
//!
//! Figure 6's byte counts and the benchmark's `server_bytes_per_sub` are
//! measured off these encodings, so a codec change must leave every byte
//! where it was. Any edit to the hex below is a wire-format change.

use prio_core::client::ShareBlob;
use prio_core::messages::{blob_from_bytes, blob_to_bytes, pack_decisions, ServerMsg};
use prio_crypto::prg::Seed;
use prio_field::{Field128, Field64, FieldElement};
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_obs::TraceCtx;
use prio_snip::{Round1Msg, Round2Msg};

const CTX: TraceCtx = TraceCtx {
    trace: 0x1122_3344_5566_7788,
    parent: 0x99aa_bbcc_ddee_ff00,
};

/// The traced suffix for [`CTX`]: tag byte 1, then `trace` and `parent`
/// little-endian.
const SUFFIX_HEX: &str = "01887766554433221100ffeeddccbbaa99";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A few elements that exercise every byte of the encoding: zero, one,
/// `p − 1` and a value with distinct bytes.
fn elems<F: FieldElement>() -> [F; 4] {
    [
        F::zero(),
        F::one(),
        F::zero() - F::one(),
        F::from_u64(0x0102_0304_0506_0708),
    ]
}

fn seed_blob<F: FieldElement>() -> ShareBlob<F> {
    ShareBlob::Seed(Seed(std::array::from_fn(|i| i as u8)))
}

fn explicit_blob<F: FieldElement>() -> ShareBlob<F> {
    let [a, b, c, _] = elems::<F>();
    ShareBlob::Explicit(vec![a, b, c])
}

fn messages<F: FieldElement>() -> Vec<(&'static str, ServerMsg<F>)> {
    let [zero, one, top, mixed] = elems::<F>();
    vec![
        (
            "round1",
            ServerMsg::Round1 {
                ctx: 0x0a0b_0c0d_0e0f_1011,
                msgs: vec![
                    Round1Msg { d: one, e: top },
                    Round1Msg { d: mixed, e: zero },
                ],
            },
        ),
        (
            "round1_combined",
            ServerMsg::Round1Combined {
                ctx: 3,
                msgs: vec![Round1Msg { d: top, e: mixed }],
            },
        ),
        (
            "round2",
            ServerMsg::Round2 {
                ctx: 4,
                msgs: vec![
                    Round2Msg {
                        sigma: mixed,
                        out: one,
                    },
                    Round2Msg {
                        sigma: zero,
                        out: top,
                    },
                ],
            },
        ),
        (
            "decisions",
            ServerMsg::Decisions {
                ctx: 5,
                bits: pack_decisions(&[true, false, true, true, false, false, false, false, true]),
            },
        ),
        ("publish_request", ServerMsg::PublishRequest),
        ("accumulator", ServerMsg::Accumulator(vec![mixed, top, one])),
        (
            "client_batch",
            ServerMsg::ClientBatch {
                ctx_seed: 6,
                labels: vec![7, u64::MAX],
                blobs: vec![
                    blob_to_bytes(&seed_blob::<F>()),
                    blob_to_bytes(&explicit_blob::<F>()),
                ],
            },
        ),
        ("shutdown", ServerMsg::Shutdown),
    ]
}

const GOLDEN_FIELD64: &[(&str, &str)] = &[
    (
        "round1",
        "0211100f0e0d0c0b0a02000000010000000000000000000000ffffffff08070605040302010000000000000000",
    ),
    ("round1_combined", "0303000000000000000100000000000000ffffffff0807060504030201"),
    (
        "round2",
        "0404000000000000000200000008070605040302010100000000000000000000000000000000000000ffffffff",
    ),
    ("decisions", "050500000000000000020000000d01"),
    ("publish_request", "06"),
    ("accumulator", "0703000000080706050403020100000000ffffffff0100000000000000"),
    (
        "client_batch",
        "080600000000000000020000000700000000000000ffffffffffffffff020000002100000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f1d00000001030000000000000000000000010000000000000000000000ffffffff",
    ),
    ("shutdown", "09"),
    (
        "blob_seed",
        "00000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
    ),
    ("blob_explicit", "01030000000000000000000000010000000000000000000000ffffffff"),
];

const GOLDEN_FIELD128: &[(&str, &str)] = &[
    (
        "round1",
        "0211100f0e0d0c0b0a02000000010000000000000000000000000000000000000000000000e4ffffffffffffff0807060504030201000000000000000000000000000000000000000000000000",
    ),
    (
        "round1_combined",
        "030300000000000000010000000000000000000000e4ffffffffffffff08070605040302010000000000000000",
    ),
    (
        "round2",
        "040400000000000000020000000807060504030201000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000e4ffffffffffffff",
    ),
    ("decisions", "050500000000000000020000000d01"),
    ("publish_request", "06"),
    (
        "accumulator",
        "0703000000080706050403020100000000000000000000000000000000e4ffffffffffffff01000000000000000000000000000000",
    ),
    (
        "client_batch",
        "080600000000000000020000000700000000000000ffffffffffffffff020000002100000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f35000000010300000000000000000000000000000000000000010000000000000000000000000000000000000000000000e4ffffffffffffff",
    ),
    ("shutdown", "09"),
    (
        "blob_seed",
        "00000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
    ),
    (
        "blob_explicit",
        "010300000000000000000000000000000000000000010000000000000000000000000000000000000000000000e4ffffffffffffff",
    ),
];

fn golden<'a>(table: &'a [(&str, &'a str)], name: &str) -> &'a str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| *h)
        .unwrap_or_else(|| panic!("no golden vector named {name}"))
}

fn check_field<F: FieldElement>(table: &[(&str, &str)]) {
    let msgs = messages::<F>();
    assert_eq!(
        msgs.len() + 2,
        table.len(),
        "every golden vector is checked"
    );
    for (name, msg) in msgs {
        let want = golden(table, name);
        let plain = to_traced_bytes(&msg, None);
        assert_eq!(hex(&plain), want, "{} {name}, untraced", F::NAME);
        let traced = to_traced_bytes(&msg, Some(CTX));
        assert_eq!(
            hex(&traced),
            format!("{want}{SUFFIX_HEX}"),
            "{} {name}, traced",
            F::NAME
        );
        assert_eq!(
            from_traced_bytes::<ServerMsg<F>>(&plain),
            Ok((msg.clone(), None))
        );
        assert_eq!(
            from_traced_bytes::<ServerMsg<F>>(&traced),
            Ok((msg, Some(CTX)))
        );
    }
    for (name, blob) in [
        ("blob_seed", seed_blob::<F>()),
        ("blob_explicit", explicit_blob::<F>()),
    ] {
        let bytes = blob_to_bytes(&blob);
        assert_eq!(hex(&bytes), golden(table, name), "{} {name}", F::NAME);
        assert_eq!(blob_from_bytes::<F>(&bytes), Ok(blob));
    }
}

#[test]
fn field64_golden_vectors() {
    check_field::<Field64>(GOLDEN_FIELD64);
}

#[test]
fn field128_golden_vectors() {
    check_field::<Field128>(GOLDEN_FIELD128);
}
