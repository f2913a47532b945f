//! The multi-process control plane: node configuration and the
//! orchestrator ↔ node lifecycle protocol.
//!
//! A multi-process Prio deployment has two planes. The *data* plane is the
//! existing [`TcpTransport`](crate::TcpTransport) fabric carrying
//! `ServerMsg` frames between servers and the submission driver. The
//! *control* plane is this module: each `prio-node` process listens on a
//! second ephemeral-port socket where the orchestrator drives its
//! lifecycle with small length-prefixed frames —
//!
//! ```text
//! orchestrator                              node
//!     | ── Peers{server addrs} ──────────────▶|  register data-plane peers
//!     |◀───────────────────────────── Ready ──|  readiness barrier
//!     | ── Ingest{driver id + addr} ─────────▶|  register driver, start loop
//!     |◀────────────────────────── IngestAck ─|
//!     |        (submissions + publish ride the data plane)
//!     | ── FlushAggregate ───────────────────▶|  after the server loop exits
//!     |◀───────────────────────── Stats{...} ─|  counts, bytes, timings
//!     | ── Shutdown ─────────────────────────▶|
//!     |◀──────────────────────── Bye{clean} ──|  then the process exits
//! ```
//!
//! Everything here is plain data over [`Wire`] encodings (reusing
//! [`crate::wire`]'s primitives), so both ends stay byte-exact and the
//! protocol has no serialization dependencies. Enum-like knobs
//! (AFE/field/verify-mode) travel as lowercase string tags — this crate
//! deliberately knows nothing about AFEs or SNIP types; `prio_proc` maps
//! tags to concrete generics.

use crate::wire::{get_len, put_len, Wire, WireError};
use bytes::{Buf, BufMut};
use std::io::{ErrorKind, Read, Write};
use std::net::SocketAddr;

/// Maximum accepted control frame payload (1 MiB). Control messages are
/// small; a larger claimed length is treated as stream corruption.
pub const CTRL_MAX_FRAME: usize = 1 << 20;

/// Static configuration a `prio-node` process loads at startup: everything
/// the node needs *before* it learns any peer addresses (those arrive over
/// the control socket once every node has reported its ephemeral ports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeConfig {
    /// This server's index (`0` is the leader).
    pub index: u64,
    /// Total number of servers `s`.
    pub num_servers: u64,
    /// AFE tag (`sum` | `freq` | `linreg` | `mostpop`).
    pub afe: String,
    /// AFE size parameter (bits / buckets / dimension, per the AFE).
    pub size: u64,
    /// Field tag (`f64` | `f128`).
    pub field: String,
    /// Verify-mode tag (`fixed_point` | `interpolate`).
    pub verify_mode: String,
    /// `h` transmission form tag (`point_value` | `coefficients`).
    pub h_form: String,
    /// Verify-pool worker threads (`1` = inline verification).
    pub verify_threads: u64,
    /// Fault-injection plan for the node's outbound data plane, in the
    /// `FaultPlan::to_spec` key=value encoding; empty = no injection.
    /// Carried on the wire so a chaos run configures real processes the
    /// same way it configures in-process fabrics.
    pub fault_plan: String,
    /// Per-round receive deadline for the node's server loop, in
    /// milliseconds (0 = wait forever, the pre-robustness behaviour).
    /// A node under fault injection abandons a wedged batch after this
    /// long instead of stalling the whole deployment.
    pub batch_deadline_ms: u64,
    /// Whether the node records per-batch trace spans into its bounded
    /// buffer (scraped later via [`CtrlMsg::GetTraces`]). Enabled at
    /// startup so the recorder epoch pins near process start, which is
    /// what the orchestrator's handshake clock-offset estimate assumes.
    pub trace: bool,
}

impl Wire for NodeConfig {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.index.encode(buf);
        self.num_servers.encode(buf);
        self.afe.encode(buf);
        self.size.encode(buf);
        self.field.encode(buf);
        self.verify_mode.encode(buf);
        self.h_form.encode(buf);
        self.verify_threads.encode(buf);
        self.fault_plan.encode(buf);
        self.batch_deadline_ms.encode(buf);
        self.trace.encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(NodeConfig {
            index: u64::decode(buf)?,
            num_servers: u64::decode(buf)?,
            afe: String::decode(buf)?,
            size: u64::decode(buf)?,
            field: String::decode(buf)?,
            verify_mode: String::decode(buf)?,
            h_form: String::decode(buf)?,
            verify_threads: u64::decode(buf)?,
            fault_plan: String::decode(buf)?,
            batch_deadline_ms: u64::decode(buf)?,
            trace: bool::decode(buf)?,
        })
    }
}

/// Per-node statistics reported through `FlushAggregate`, mirroring what
/// the in-process `DeploymentReport` derives from its shared fabric. All
/// counters are plain `u64`s so the control plane stays field-agnostic —
/// accumulators themselves ride the data plane to the driver.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Submissions this server accepted.
    pub accepted: u64,
    /// Submissions this server rejected.
    pub rejected: u64,
    /// Data-plane bytes sent before the publish phase began — the
    /// verification-phase traffic Figure 6 compares across servers.
    pub verify_bytes_sent: u64,
    /// Total data-plane bytes sent over the node's lifetime.
    pub total_bytes_sent: u64,
    /// Wall-clock µs spent unpacking submission blobs.
    pub unpack_us: u64,
    /// Wall-clock µs spent in SNIP round 1.
    pub round1_us: u64,
    /// Wall-clock µs spent in SNIP round 2.
    pub round2_us: u64,
    /// Wall-clock µs spent in the publish phase.
    pub publish_us: u64,
    /// Data-plane frames the server loop discarded (unknown sender,
    /// undecodable, stash overflow, unexpected kind) — distinguishes a
    /// quiet node from one dropping everything it hears.
    pub frames_dropped: u64,
    /// Duplicate client submissions the idempotent-ingest seen-set
    /// discarded — under a duplicating fault plan these are the frames
    /// that must *not* double-count toward `accepted`.
    pub frames_deduped: u64,
    /// Batches the server loop abandoned because a round deadline
    /// expired (graceful degradation under faults).
    pub batches_abandoned: u64,
    /// Whether the server loop exited via an orderly fabric `Shutdown`.
    pub clean: bool,
}

impl Wire for NodeStats {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.accepted.encode(buf);
        self.rejected.encode(buf);
        self.verify_bytes_sent.encode(buf);
        self.total_bytes_sent.encode(buf);
        self.unpack_us.encode(buf);
        self.round1_us.encode(buf);
        self.round2_us.encode(buf);
        self.publish_us.encode(buf);
        self.frames_dropped.encode(buf);
        self.frames_deduped.encode(buf);
        self.batches_abandoned.encode(buf);
        self.clean.encode(buf);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(NodeStats {
            accepted: u64::decode(buf)?,
            rejected: u64::decode(buf)?,
            verify_bytes_sent: u64::decode(buf)?,
            total_bytes_sent: u64::decode(buf)?,
            unpack_us: u64::decode(buf)?,
            round1_us: u64::decode(buf)?,
            round2_us: u64::decode(buf)?,
            publish_us: u64::decode(buf)?,
            frames_dropped: u64::decode(buf)?,
            frames_deduped: u64::decode(buf)?,
            batches_abandoned: u64::decode(buf)?,
            clean: bool::decode(buf)?,
        })
    }
}

/// One control-plane message. See the module docs for the exchange order.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Orchestrator → node: the full data-plane address map for the server
    /// set, `(node id, listener address)` per server.
    Peers(Vec<(u64, SocketAddr)>),
    /// Node → orchestrator: peers registered, data listener live — the
    /// readiness barrier.
    Ready,
    /// Orchestrator → node: the submission driver's data-plane identity;
    /// the node registers it and starts its server loop.
    Ingest {
        /// The driver's node id (by convention `num_servers`).
        driver: u64,
        /// The driver's data-plane listener address.
        addr: SocketAddr,
    },
    /// Node → orchestrator: driver registered, server loop running.
    IngestAck,
    /// Orchestrator → node: report statistics (sent after the data-plane
    /// shutdown has let the server loop exit).
    FlushAggregate,
    /// Node → orchestrator: the [`NodeStats`] reply to `FlushAggregate`.
    Stats(NodeStats),
    /// Orchestrator → node: exit. The node answers `Bye` and terminates
    /// with status 0 if its loop finished cleanly.
    Shutdown,
    /// Node → orchestrator: final message before process exit.
    Bye {
        /// Whether the node is exiting with a zero status.
        clean: bool,
    },
    /// Node → orchestrator: a node-side failure, e.g. a protocol message
    /// out of order or a data-plane bind error. The orchestrator surfaces
    /// the text in its typed error.
    Fail(String),
    /// Orchestrator → node: scrape a live metrics snapshot. Valid at any
    /// point after `Ready` — including while the server loop is running —
    /// so an operator can watch counters move mid-batch.
    GetMetrics,
    /// Node → orchestrator: the reply to `GetMetrics`, carrying the node's
    /// registry snapshot in the `prio-obs/v1` JSON exposition. The control
    /// plane stays metric-agnostic: it ships opaque text, and the
    /// orchestrator parses it back into a `prio_obs::Snapshot`.
    Metrics(String),
    /// Orchestrator → node: scrape the node's recorded trace spans.
    /// Like `GetMetrics`, valid any time after `Ready`.
    GetTraces,
    /// Node → orchestrator: the reply to `GetTraces`, carrying the node's
    /// span buffer in the `prio-trace/v1` JSON exposition (parsed back
    /// into a `prio_obs::trace::NodeTrace`). The buffer is a fixed-size
    /// ring, so the reply is bounded well below [`CTRL_MAX_FRAME`] by
    /// construction.
    Traces(String),
}

const TAG_PEERS: u8 = 1;
const TAG_READY: u8 = 2;
const TAG_INGEST: u8 = 3;
const TAG_INGEST_ACK: u8 = 4;
const TAG_FLUSH: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_BYE: u8 = 8;
const TAG_FAIL: u8 = 9;
const TAG_GET_METRICS: u8 = 10;
const TAG_METRICS: u8 = 11;
const TAG_GET_TRACES: u8 = 12;
const TAG_TRACES: u8 = 13;

impl Wire for CtrlMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            CtrlMsg::Peers(peers) => {
                buf.put_u8(TAG_PEERS);
                put_len(buf, peers.len());
                for (id, addr) in peers {
                    id.encode(buf);
                    addr.encode(buf);
                }
            }
            CtrlMsg::Ready => buf.put_u8(TAG_READY),
            CtrlMsg::Ingest { driver, addr } => {
                buf.put_u8(TAG_INGEST);
                driver.encode(buf);
                addr.encode(buf);
            }
            CtrlMsg::IngestAck => buf.put_u8(TAG_INGEST_ACK),
            CtrlMsg::FlushAggregate => buf.put_u8(TAG_FLUSH),
            CtrlMsg::Stats(stats) => {
                buf.put_u8(TAG_STATS);
                stats.encode(buf);
            }
            CtrlMsg::Shutdown => buf.put_u8(TAG_SHUTDOWN),
            CtrlMsg::Bye { clean } => {
                buf.put_u8(TAG_BYE);
                clean.encode(buf);
            }
            CtrlMsg::Fail(msg) => {
                buf.put_u8(TAG_FAIL);
                msg.encode(buf);
            }
            CtrlMsg::GetMetrics => buf.put_u8(TAG_GET_METRICS),
            CtrlMsg::Metrics(json) => {
                buf.put_u8(TAG_METRICS);
                json.encode(buf);
            }
            CtrlMsg::GetTraces => buf.put_u8(TAG_GET_TRACES),
            CtrlMsg::Traces(json) => {
                buf.put_u8(TAG_TRACES);
                json.encode(buf);
            }
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError("empty control message"));
        }
        match buf.get_u8() {
            TAG_PEERS => {
                let n = get_len(buf)?;
                // Bounded by the frame cap upstream; still avoid a
                // pathological reserve.
                let mut peers = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    peers.push((u64::decode(buf)?, SocketAddr::decode(buf)?));
                }
                Ok(CtrlMsg::Peers(peers))
            }
            TAG_READY => Ok(CtrlMsg::Ready),
            TAG_INGEST => Ok(CtrlMsg::Ingest {
                driver: u64::decode(buf)?,
                addr: SocketAddr::decode(buf)?,
            }),
            TAG_INGEST_ACK => Ok(CtrlMsg::IngestAck),
            TAG_FLUSH => Ok(CtrlMsg::FlushAggregate),
            TAG_STATS => Ok(CtrlMsg::Stats(NodeStats::decode(buf)?)),
            TAG_SHUTDOWN => Ok(CtrlMsg::Shutdown),
            TAG_BYE => Ok(CtrlMsg::Bye {
                clean: bool::decode(buf)?,
            }),
            TAG_FAIL => Ok(CtrlMsg::Fail(String::decode(buf)?)),
            TAG_GET_METRICS => Ok(CtrlMsg::GetMetrics),
            TAG_METRICS => Ok(CtrlMsg::Metrics(String::decode(buf)?)),
            TAG_GET_TRACES => Ok(CtrlMsg::GetTraces),
            TAG_TRACES => Ok(CtrlMsg::Traces(String::decode(buf)?)),
            _ => Err(WireError("unknown control message tag")),
        }
    }
}

/// Typed failure of a control-plane read or write. A malformed frame from
/// a peer must surface here — never as a panic that would abort the node.
#[derive(Debug)]
pub enum ControlError {
    /// Underlying socket/pipe I/O failed.
    Io(std::io::Error),
    /// Outgoing message serialized past [`CTRL_MAX_FRAME`] (local logic
    /// bug or absurd config, caught before any bytes hit the wire).
    FrameTooLarge {
        /// Serialized payload size.
        len: usize,
    },
    /// Incoming length prefix claims more than [`CTRL_MAX_FRAME`] bytes.
    LengthExceedsCap {
        /// The claimed length.
        len: usize,
    },
    /// The stream ended inside a frame.
    TruncatedFrame,
    /// The payload did not decode as a [`CtrlMsg`].
    Undecodable(WireError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Io(e) => write!(f, "control I/O failed: {e}"),
            ControlError::FrameTooLarge { len } => {
                write!(f, "outgoing control frame of {len} bytes exceeds the cap")
            }
            ControlError::LengthExceedsCap { len } => {
                write!(f, "control frame length prefix {len} exceeds the cap")
            }
            ControlError::TruncatedFrame => write!(f, "stream ended inside a control frame"),
            ControlError::Undecodable(e) => write!(f, "undecodable control payload: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// Writes one length-prefixed control frame: `len (u32 LE) | payload`.
pub fn write_ctrl<W: Write>(w: &mut W, msg: &CtrlMsg) -> Result<(), ControlError> {
    let payload = msg.to_wire_bytes();
    let len = payload.len();
    if len > CTRL_MAX_FRAME {
        return Err(ControlError::FrameTooLarge { len });
    }
    let prefix = u32::try_from(len).map_err(|_| ControlError::FrameTooLarge { len })?;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&prefix.to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame).map_err(ControlError::Io)
}

/// Reads one control frame. `Ok(None)` is a clean EOF at a frame boundary;
/// a truncated frame, an oversized length prefix, or an undecodable
/// payload is a typed [`ControlError`].
pub fn read_ctrl<R: Read>(r: &mut R) -> Result<Option<CtrlMsg>, ControlError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while let Some(rest) = header.get_mut(filled..) {
        if rest.is_empty() {
            break;
        }
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ControlError::TruncatedFrame),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ControlError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > CTRL_MAX_FRAME {
        return Err(ControlError::LengthExceedsCap { len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            ControlError::TruncatedFrame
        } else {
            ControlError::Io(e)
        }
    })?;
    CtrlMsg::from_wire_bytes(&payload)
        .map(Some)
        .map_err(ControlError::Undecodable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_via_stream(msgs: &[CtrlMsg]) {
        let mut buf = Vec::new();
        for m in msgs {
            write_ctrl(&mut buf, m).unwrap();
        }
        let mut r = buf.as_slice();
        for m in msgs {
            assert_eq!(read_ctrl(&mut r).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_ctrl(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip_via_stream(&[
            CtrlMsg::Peers(vec![
                (0, "127.0.0.1:4000".parse().unwrap()),
                (1, "127.0.0.1:4001".parse().unwrap()),
            ]),
            CtrlMsg::Ready,
            CtrlMsg::Ingest {
                driver: 3,
                addr: "127.0.0.1:5000".parse().unwrap(),
            },
            CtrlMsg::IngestAck,
            CtrlMsg::FlushAggregate,
            CtrlMsg::Stats(NodeStats {
                accepted: 180,
                rejected: 20,
                verify_bytes_sent: 123_456,
                total_bytes_sent: 130_000,
                unpack_us: 10,
                round1_us: 20,
                round2_us: 30,
                publish_us: 5,
                frames_dropped: 17,
                frames_deduped: 3,
                batches_abandoned: 1,
                clean: true,
            }),
            CtrlMsg::Shutdown,
            CtrlMsg::Bye { clean: false },
            CtrlMsg::Fail("bind failed".into()),
            CtrlMsg::GetMetrics,
            CtrlMsg::Metrics("{\"schema\": \"prio-obs/v1\", \"metrics\": []}".into()),
            CtrlMsg::GetTraces,
            CtrlMsg::Traces(
                "{\"schema\": \"prio-trace/v1\", \"node\": 0, \"dropped\": 0, \"spans\": []}".into(),
            ),
        ]);
    }

    #[test]
    fn node_stats_new_fields_roundtrip_at_extremes() {
        let stats = NodeStats {
            frames_dropped: u64::MAX,
            publish_us: u64::MAX,
            ..NodeStats::default()
        };
        let mut buf = Vec::new();
        write_ctrl(&mut buf, &CtrlMsg::Stats(stats)).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_ctrl(&mut r).unwrap(), Some(CtrlMsg::Stats(stats)));
    }

    #[test]
    fn node_config_roundtrips() {
        let cfg = NodeConfig {
            index: 2,
            num_servers: 5,
            afe: "sum".into(),
            size: 8,
            field: "f64".into(),
            verify_mode: "fixed_point".into(),
            h_form: "point_value".into(),
            verify_threads: 2,
            fault_plan: "seed=7,drop=50,dup=30,trunc=0,delay=0,delay_ms=0,after=0".into(),
            batch_deadline_ms: 1500,
            trace: true,
        };
        assert_eq!(NodeConfig::from_wire_bytes(&cfg.to_wire_bytes()), Ok(cfg));
    }

    #[test]
    fn corrupt_frames_are_typed_errors_not_hangs() {
        // Truncated header.
        let mut r: &[u8] = &[1, 0];
        assert!(matches!(read_ctrl(&mut r), Err(ControlError::TruncatedFrame)));
        // Length bomb: claimed length over the cap must be rejected before
        // any allocation.
        let mut bomb = Vec::new();
        bomb.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = bomb.as_slice();
        assert!(matches!(
            read_ctrl(&mut r),
            Err(ControlError::LengthExceedsCap { len }) if len == u32::MAX as usize
        ));
        // Valid frame, garbage payload.
        let mut frame = Vec::new();
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&[0xEE, 0xEE]);
        let mut r = frame.as_slice();
        assert!(matches!(
            read_ctrl(&mut r),
            Err(ControlError::Undecodable(_))
        ));
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_ctrl(&mut buf, &CtrlMsg::Fail("xyz".into())).unwrap();
        let mut r = &buf[..buf.len() - 1];
        assert!(matches!(read_ctrl(&mut r), Err(ControlError::TruncatedFrame)));
    }
}
