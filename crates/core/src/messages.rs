//! Wire formats for the Prio server protocol.
//!
//! Every message that crosses a (simulated) network link is serialized
//! through these encoders, so the byte counters of `prio-net` measure
//! honest wire sizes (Figure 6).

use crate::client::ShareBlob;
use bytes::{Buf, BufMut};
use prio_field::FieldElement;
use prio_net::wire::{
    get_field, get_field_vec, get_len, put_field, put_field_vec, put_len, Wire, WireError,
};
use prio_snip::{Round1Msg, Round2Msg};

/// Serializes a share blob (`0x00 seed` | `0x01 field-vec`) into one
/// buffer of exactly its encoded size.
pub fn blob_to_bytes<F: FieldElement>(blob: &ShareBlob<F>) -> Vec<u8> {
    let body = match blob {
        ShareBlob::Seed(_) => prio_crypto::prg::SEED_LEN,
        ShareBlob::Explicit(v) => 4 + v.len() * F::ENCODED_LEN,
    };
    let mut buf = Vec::with_capacity(1 + body);
    match blob {
        ShareBlob::Seed(seed) => {
            buf.put_u8(0);
            buf.put_slice(&seed.0);
        }
        ShareBlob::Explicit(v) => {
            buf.put_u8(1);
            put_field_vec(&mut buf, v);
        }
    }
    buf
}

/// Parses a share blob, requiring it to fill `bytes` exactly: a blob
/// has one encoding, so trailing bytes are an error.
pub fn blob_from_bytes<F: FieldElement>(mut bytes: &[u8]) -> Result<ShareBlob<F>, WireError> {
    if bytes.is_empty() {
        return Err(WireError("empty blob"));
    }
    let tag = bytes.get_u8();
    let blob = match tag {
        0 => {
            if bytes.remaining() < prio_crypto::prg::SEED_LEN {
                return Err(WireError("truncated seed"));
            }
            let mut seed = [0u8; prio_crypto::prg::SEED_LEN];
            bytes.copy_to_slice(&mut seed);
            ShareBlob::Seed(prio_crypto::prg::Seed(seed))
        }
        1 => ShareBlob::Explicit(get_field_vec(&mut bytes)?),
        _ => return Err(WireError("unknown blob tag")),
    };
    if bytes.has_remaining() {
        return Err(WireError("trailing bytes after blob"));
    }
    Ok(blob)
}

/// Decodes the body of a round frame: the batch ctx, then a count and
/// that many field-element pairs, each built into a message by `pair`.
/// `truncated` names the errors for a short ctx and a short body.
fn get_round<F: FieldElement, B: Buf, M>(
    buf: &mut B,
    truncated: [&'static str; 2],
    pair: fn(F, F) -> M,
) -> Result<(u64, Vec<M>), WireError> {
    if buf.remaining() < 8 {
        return Err(WireError(truncated[0]));
    }
    let ctx = buf.get_u64_le();
    let len = get_len(buf)?;
    if buf.remaining() < len.saturating_mul(2 * F::ENCODED_LEN) {
        return Err(WireError(truncated[1]));
    }
    let mut msgs = Vec::with_capacity(len);
    for _ in 0..len {
        let a = get_field(buf)?;
        msgs.push(pair(a, get_field(buf)?));
    }
    Ok((ctx, msgs))
}

/// Server-to-server protocol messages for batched verification.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg<F: FieldElement> {
    /// Round-1 broadcasts for a batch, one `(d, e)` pair per submission.
    ///
    /// Every mid-protocol round message carries the batch's context seed:
    /// round frames are bound to their batch, so a stale vector from an
    /// abandoned batch — or a fault-duplicated one straggling across a
    /// batch boundary — can never be mistaken for the current gather's
    /// traffic.
    Round1 {
        /// The batch's context seed (its identity).
        ctx: u64,
        /// One `(d, e)` pair per submission.
        msgs: Vec<Round1Msg<F>>,
    },
    /// Leader's combined `(Σd, Σe)` per submission.
    Round1Combined {
        /// The batch's context seed.
        ctx: u64,
        /// One combined pair per submission.
        msgs: Vec<Round1Msg<F>>,
    },
    /// Round-2 broadcasts, one `(σ, out)` pair per submission.
    Round2 {
        /// The batch's context seed.
        ctx: u64,
        /// One `(σ, out)` pair per submission.
        msgs: Vec<Round2Msg<F>>,
    },
    /// Leader's accept/reject decisions (one bit per submission, packed).
    Decisions {
        /// The batch's context seed.
        ctx: u64,
        /// Packed decision bits.
        bits: Vec<u8>,
    },
    /// Request to publish accumulators.
    PublishRequest,
    /// A server's accumulator contents.
    Accumulator(Vec<F>),
    /// A batch of client submissions delivered to one server: per
    /// submission, its PRG label and this server's share blob.
    ClientBatch {
        /// Seed for the batch's shared verification randomness.
        ctx_seed: u64,
        /// PRG expansion labels, one per submission.
        labels: Vec<u64>,
        /// Serialized [`ShareBlob`]s, one per submission.
        blobs: Vec<Vec<u8>>,
    },
    /// Orderly shutdown.
    Shutdown,
}

// Tag 1 is retired and stays unassigned, so a frame carrying it is
// rejected rather than misread as another message.
const TAG_ROUND1: u8 = 2;
const TAG_ROUND1_COMBINED: u8 = 3;
const TAG_ROUND2: u8 = 4;
const TAG_DECISIONS: u8 = 5;
const TAG_PUBLISH_REQ: u8 = 6;
const TAG_ACCUMULATOR: u8 = 7;
const TAG_CLIENT_BATCH: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;

impl<F: FieldElement> Wire for ServerMsg<F> {
    /// Computed from the lengths alone: these frames carry every field
    /// element of a batch, so a counting pass would cost about as much as
    /// the encoding itself.
    fn encoded_len(&self) -> usize {
        // Tag byte, then a ctx and a `u32` count.
        const HEAD: usize = 1 + 8 + 4;
        match self {
            ServerMsg::Round1 { msgs, .. } | ServerMsg::Round1Combined { msgs, .. } => {
                HEAD + msgs.len() * 2 * F::ENCODED_LEN
            }
            ServerMsg::Round2 { msgs, .. } => HEAD + msgs.len() * 2 * F::ENCODED_LEN,
            ServerMsg::Decisions { bits, .. } => HEAD + bits.len(),
            ServerMsg::PublishRequest | ServerMsg::Shutdown => 1,
            ServerMsg::Accumulator(v) => 1 + 4 + v.len() * F::ENCODED_LEN,
            ServerMsg::ClientBatch { labels, blobs, .. } => {
                HEAD + labels.len() * 8 + 4 + blobs.iter().map(|b| 4 + b.len()).sum::<usize>()
            }
        }
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            ServerMsg::Round1 { ctx, msgs } => {
                buf.put_u8(TAG_ROUND1);
                buf.put_u64_le(*ctx);
                put_len(buf, msgs.len());
                for m in msgs {
                    put_field(buf, m.d);
                    put_field(buf, m.e);
                }
            }
            ServerMsg::Round1Combined { ctx, msgs } => {
                buf.put_u8(TAG_ROUND1_COMBINED);
                buf.put_u64_le(*ctx);
                put_len(buf, msgs.len());
                for m in msgs {
                    put_field(buf, m.d);
                    put_field(buf, m.e);
                }
            }
            ServerMsg::Round2 { ctx, msgs } => {
                buf.put_u8(TAG_ROUND2);
                buf.put_u64_le(*ctx);
                put_len(buf, msgs.len());
                for m in msgs {
                    put_field(buf, m.sigma);
                    put_field(buf, m.out);
                }
            }
            ServerMsg::Decisions { ctx, bits } => {
                buf.put_u8(TAG_DECISIONS);
                buf.put_u64_le(*ctx);
                put_len(buf, bits.len());
                buf.put_slice(bits);
            }
            ServerMsg::PublishRequest => buf.put_u8(TAG_PUBLISH_REQ),
            ServerMsg::Accumulator(v) => {
                buf.put_u8(TAG_ACCUMULATOR);
                put_field_vec(buf, v);
            }
            ServerMsg::ClientBatch {
                ctx_seed,
                labels,
                blobs,
            } => {
                buf.put_u8(TAG_CLIENT_BATCH);
                buf.put_u64_le(*ctx_seed);
                put_len(buf, labels.len());
                for &l in labels {
                    buf.put_u64_le(l);
                }
                put_len(buf, blobs.len());
                for b in blobs {
                    put_len(buf, b.len());
                    buf.put_slice(b);
                }
            }
            ServerMsg::Shutdown => buf.put_u8(TAG_SHUTDOWN),
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError("empty message"));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_ROUND1 | TAG_ROUND1_COMBINED => {
                let (ctx, msgs) =
                    get_round(buf, ["truncated round1 ctx", "truncated round1"], |d, e| {
                        Round1Msg { d, e }
                    })?;
                if tag == TAG_ROUND1 {
                    Ok(ServerMsg::Round1 { ctx, msgs })
                } else {
                    Ok(ServerMsg::Round1Combined { ctx, msgs })
                }
            }
            TAG_ROUND2 => {
                let (ctx, msgs) = get_round(
                    buf,
                    ["truncated round2 ctx", "truncated round2"],
                    |sigma, out| Round2Msg { sigma, out },
                )?;
                Ok(ServerMsg::Round2 { ctx, msgs })
            }
            TAG_DECISIONS => {
                if buf.remaining() < 8 {
                    return Err(WireError("truncated decisions ctx"));
                }
                let ctx = buf.get_u64_le();
                let len = get_len(buf)?;
                if buf.remaining() < len {
                    return Err(WireError("truncated decisions"));
                }
                let mut bits = vec![0u8; len];
                buf.copy_to_slice(&mut bits);
                Ok(ServerMsg::Decisions { ctx, bits })
            }
            TAG_PUBLISH_REQ => Ok(ServerMsg::PublishRequest),
            TAG_ACCUMULATOR => Ok(ServerMsg::Accumulator(get_field_vec(buf)?)),
            TAG_CLIENT_BATCH => {
                if buf.remaining() < 8 {
                    return Err(WireError("truncated batch"));
                }
                let ctx_seed = buf.get_u64_le();
                let nlabels = get_len(buf)?;
                if buf.remaining() < nlabels.saturating_mul(8) {
                    return Err(WireError("truncated labels"));
                }
                let labels = (0..nlabels).map(|_| buf.get_u64_le()).collect();
                let nblobs = get_len(buf)?;
                let mut blobs = Vec::with_capacity(nblobs.min(1 << 20));
                for _ in 0..nblobs {
                    let len = get_len(buf)?;
                    if buf.remaining() < len {
                        return Err(WireError("truncated blob"));
                    }
                    let mut b = vec![0u8; len];
                    buf.copy_to_slice(&mut b);
                    blobs.push(b);
                }
                Ok(ServerMsg::ClientBatch {
                    ctx_seed,
                    labels,
                    blobs,
                })
            }
            TAG_SHUTDOWN => Ok(ServerMsg::Shutdown),
            _ => Err(WireError("unknown server message tag")),
        }
    }
}

/// Packs accept/reject decisions into a bitmask.
pub fn pack_decisions(decisions: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; decisions.len().div_ceil(8)];
    for (i, &d) in decisions.iter().enumerate() {
        if d {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks a decision bitmask. Total: a bitmask shorter than `count`
/// demands (possible on a forged message) reads missing bits as `false`
/// (reject) rather than panicking.
pub fn unpack_decisions(bits: &[u8], count: usize) -> Vec<bool> {
    (0..count)
        .map(|i| bits.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_field::Field64;

    #[test]
    fn server_msgs_roundtrip() {
        let msgs: Vec<ServerMsg<Field64>> = vec![
            ServerMsg::Round1 {
                ctx: 11,
                msgs: vec![Round1Msg {
                    d: Field64::from_u64(1),
                    e: Field64::from_u64(2),
                }],
            },
            ServerMsg::Round1Combined {
                ctx: 12,
                msgs: vec![Round1Msg {
                    d: Field64::from_u64(3),
                    e: Field64::from_u64(4),
                }],
            },
            ServerMsg::Round2 {
                ctx: 13,
                msgs: vec![Round2Msg {
                    sigma: Field64::from_u64(5),
                    out: Field64::from_u64(6),
                }],
            },
            ServerMsg::Decisions {
                ctx: 14,
                bits: vec![0b101],
            },
            ServerMsg::PublishRequest,
            ServerMsg::Accumulator(vec![Field64::from_u64(7); 4]),
        ];
        for m in msgs {
            let bytes = m.to_wire_bytes();
            assert_eq!(ServerMsg::<Field64>::from_wire_bytes(&bytes), Ok(m));
        }
    }

    #[test]
    fn blob_roundtrip() {
        let seed_blob: ShareBlob<Field64> = ShareBlob::Seed(prio_crypto::prg::Seed([9u8; 32]));
        let expl_blob: ShareBlob<Field64> =
            ShareBlob::Explicit((0..5).map(Field64::from_u64).collect());
        for blob in [seed_blob, expl_blob] {
            let bytes = blob_to_bytes(&blob);
            assert_eq!(blob_from_bytes::<Field64>(&bytes).unwrap(), blob);
        }
        assert!(blob_from_bytes::<Field64>(&[]).is_err());
        assert!(blob_from_bytes::<Field64>(&[7]).is_err());
    }

    #[test]
    fn decisions_pack_roundtrip() {
        let ds = vec![true, false, true, true, false, false, false, true, true];
        let packed = pack_decisions(&ds);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack_decisions(&packed, ds.len()), ds);
    }
}
