//! The pluggable transport layer: the [`Transport`] trait, the concrete
//! [`Endpoint`] handle, and the types shared by every backend (node ids,
//! envelopes, traffic statistics, errors).
//!
//! A transport is a fabric that hands out [`Endpoint`]s. Protocol code
//! (`prio_core`'s server loop, the bench drivers) is written purely against
//! `Endpoint`'s send/recv API and never learns which fabric carries its
//! bytes, so the same deployment runs unchanged over the in-process
//! [`SimNetwork`](crate::SimNetwork) or over real localhost TCP sockets
//! ([`TcpTransport`](crate::TcpTransport)). Backends are selected at run
//! time through [`TransportKind`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::faults::FaultyEndpoint;
use crate::sim::SimEndpoint;
use crate::tcp::TcpEndpoint;

/// Locks a std mutex, ignoring poison: the fabrics' maps hold only
/// counters, addresses, and senders, which stay consistent even if a
/// holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A per-node counter map shared between a fabric and its endpoints.
pub(crate) type CounterMap = Mutex<HashMap<NodeId, Arc<AtomicU64>>>;

/// Returns `id`'s counter in `map`, creating it at zero on first use.
pub(crate) fn counter_for(map: &CounterMap, id: NodeId) -> Arc<AtomicU64> {
    lock(map).entry(id).or_default().clone()
}

/// Snapshots every counter in `map`.
fn collect_counters(map: &CounterMap) -> HashMap<NodeId, u64> {
    lock(map)
        .iter()
        .map(|(&k, v)| (k, v.load(Ordering::Relaxed)))
        .collect()
}

/// The per-node traffic counters every fabric maintains: bytes sent, bytes
/// received, and messages sent. One definition shared by all backends so
/// their [`NetStats`] can never structurally diverge.
#[derive(Default)]
pub(crate) struct TrafficCounters {
    /// Bytes sent, indexed by source node.
    pub(crate) sent: CounterMap,
    /// Bytes received, indexed by destination node.
    pub(crate) received: CounterMap,
    /// Messages sent, indexed by source node.
    pub(crate) msgs: CounterMap,
}

impl TrafficCounters {
    /// Snapshots every counter.
    pub(crate) fn stats(&self) -> NetStats {
        NetStats {
            bytes_sent: collect_counters(&self.sent),
            bytes_received: collect_counters(&self.received),
            messages_sent: collect_counters(&self.msgs),
        }
    }

    /// Zeroes every counter.
    pub(crate) fn reset(&self) {
        for map in [&self.sent, &self.received, &self.msgs] {
            for counter in lock(map).values() {
                counter.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide fabric metrics every backend reports into, resolved
/// once from the global [`prio_obs::Registry`] at fabric construction so
/// the send/recv hot paths touch only pre-registered atomic handles.
/// These complement (never replace) [`TrafficCounters`]: `NetStats` stays
/// the exact per-node accounting ledger, while these feed the scrapeable
/// process exposition.
#[derive(Clone)]
pub(crate) struct FabricMetrics {
    pub(crate) frames_sent: prio_obs::Counter,
    pub(crate) bytes_sent: prio_obs::Counter,
    pub(crate) frames_received: prio_obs::Counter,
    pub(crate) bytes_received: prio_obs::Counter,
    send_fail_unknown: prio_obs::Counter,
    send_fail_closed: prio_obs::Counter,
    send_fail_too_large: prio_obs::Counter,
    pub(crate) bind_retries: prio_obs::Counter,
}

impl FabricMetrics {
    /// Resolves every handle against the process-wide registry.
    pub(crate) fn resolve() -> FabricMetrics {
        use prio_obs::names;
        let reg = prio_obs::Registry::global();
        FabricMetrics {
            frames_sent: reg.counter(names::NET_FRAMES_SENT, &[]),
            bytes_sent: reg.counter(names::NET_BYTES_SENT, &[]),
            frames_received: reg.counter(names::NET_FRAMES_RECEIVED, &[]),
            bytes_received: reg.counter(names::NET_BYTES_RECEIVED, &[]),
            send_fail_unknown: reg
                .counter(names::NET_SEND_FAILURES, &[("reason", "unknown_node")]),
            send_fail_closed: reg.counter(names::NET_SEND_FAILURES, &[("reason", "closed")]),
            send_fail_too_large: reg
                .counter(names::NET_SEND_FAILURES, &[("reason", "too_large")]),
            bind_retries: reg.counter(names::NET_BIND_RETRIES, &[]),
        }
    }

    /// Records one successful send of `bytes` payload bytes.
    pub(crate) fn sent(&self, bytes: u64) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes);
    }

    /// Records one received frame of `bytes` payload bytes.
    pub(crate) fn received(&self, bytes: u64) {
        self.frames_received.inc();
        self.bytes_received.add(bytes);
    }

    /// Records a failed send under its typed reason.
    pub(crate) fn send_failure(&self, err: SendError) {
        match err {
            SendError::UnknownNode => self.send_fail_unknown.inc(),
            SendError::Closed => self.send_fail_closed.inc(),
            SendError::TooLarge => self.send_fail_too_large.inc(),
        }
    }
}

/// Identifies a node (server or client proxy) on a transport fabric.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A framed message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub src: NodeId,
    /// Payload bytes (already wire-encoded by the caller).
    pub payload: Vec<u8>,
}

/// A message fabric that hands out endpoints and accounts traffic.
///
/// Implementations must be cheap-to-share handles (`Send + Sync`) so one
/// fabric can be driven from many threads; all per-node counters live
/// behind the handle and survive individual endpoints being dropped.
pub trait Transport: Send + Sync {
    /// Registers a new endpoint with its own mailbox and node id.
    fn endpoint(&self) -> Endpoint;

    /// Per-node traffic statistics accumulated since creation (or the last
    /// [`Transport::reset_stats`]).
    fn stats(&self) -> NetStats;

    /// Alias for [`Transport::stats`] that reads better at benchmark call
    /// sites: grab a snapshot before a protocol phase, another after, and
    /// attribute the traffic with [`NetStats::diff`].
    fn snapshot(&self) -> NetStats {
        self.stats()
    }

    /// Resets all byte/message counters (e.g. between benchmark phases).
    fn reset_stats(&self);

    /// Which backend this fabric is.
    fn kind(&self) -> TransportKind;
}

/// Selects a transport backend at run time (deployment config, bench
/// scenario registry, CLI flags).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process channel fabric ([`SimNetwork`](crate::SimNetwork)):
    /// deterministic, zero syscalls, exact byte accounting. The right
    /// backend for unit tests and CPU-bound measurement.
    Sim,
    /// Real localhost TCP sockets ([`TcpTransport`](crate::TcpTransport)):
    /// every message crosses the kernel's loopback stack with
    /// length-prefixed framing. The right backend for validating the wire
    /// protocol end-to-end and as the stepping stone to multi-process
    /// deployment.
    Tcp,
}

impl TransportKind {
    /// Stable lowercase tag used in names, JSON, and CLI flags.
    pub fn tag(&self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a CLI tag (`sim` | `tcp`).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "sim" => Some(TransportKind::Sim),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// Builds a fabric of this kind with an optional uniform link latency.
    pub fn build(self, latency: Option<Duration>) -> Arc<dyn Transport> {
        match self {
            TransportKind::Sim => Arc::new(crate::SimNetwork::with_latency(latency)),
            TransportKind::Tcp => Arc::new(crate::TcpTransport::with_latency(latency)),
        }
    }
}

/// One node's handle on a fabric: a mailbox plus byte counters.
///
/// Backends stay private behind this enum so protocol code cannot depend on
/// a specific fabric; every method delegates.
pub enum Endpoint {
    /// An endpoint on the in-process [`SimNetwork`](crate::SimNetwork).
    Sim(SimEndpoint),
    /// An endpoint on a [`TcpTransport`](crate::TcpTransport) socket.
    Tcp(TcpEndpoint),
    /// Any endpoint wrapped by a fault-injection schedule
    /// ([`crate::faults::FaultPlan`]); boxed because the wrapper holds an
    /// `Endpoint` of its own.
    Faulty(Box<FaultyEndpoint>),
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        match self {
            Endpoint::Sim(ep) => ep.id(),
            Endpoint::Tcp(ep) => ep.id(),
            Endpoint::Faulty(ep) => ep.id(),
        }
    }

    /// The socket address this endpoint listens on, if the backing fabric
    /// has one (`None` on the in-process sim fabric). Multi-process nodes
    /// report this through the ephemeral-port handshake.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Endpoint::Sim(_) => None,
            Endpoint::Tcp(ep) => Some(ep.local_addr()),
            Endpoint::Faulty(ep) => ep.local_addr(),
        }
    }

    /// Sends `payload` to `dst`, counting its bytes on success.
    pub fn send(&self, dst: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        match self {
            Endpoint::Sim(ep) => ep.send(dst, payload),
            Endpoint::Tcp(ep) => ep.send(dst, payload),
            Endpoint::Faulty(ep) => ep.send(dst, payload),
        }
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        match self {
            Endpoint::Sim(ep) => ep.recv(),
            Endpoint::Tcp(ep) => ep.recv(),
            Endpoint::Faulty(ep) => ep.recv(),
        }
    }

    /// Receive with a timeout (for shutdown paths and cross-process
    /// drivers that must not hang on a dead peer).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        match self {
            Endpoint::Sim(ep) => ep.recv_timeout(timeout),
            Endpoint::Tcp(ep) => ep.recv_timeout(timeout),
            Endpoint::Faulty(ep) => ep.recv_timeout(timeout),
        }
    }

    /// Bytes this endpoint has sent.
    pub fn bytes_sent(&self) -> u64 {
        match self {
            Endpoint::Sim(ep) => ep.bytes_sent(),
            Endpoint::Tcp(ep) => ep.bytes_sent(),
            Endpoint::Faulty(ep) => ep.bytes_sent(),
        }
    }

    /// Bytes this endpoint has received.
    pub fn bytes_received(&self) -> u64 {
        match self {
            Endpoint::Sim(ep) => ep.bytes_received(),
            Endpoint::Tcp(ep) => ep.bytes_received(),
            Endpoint::Faulty(ep) => ep.bytes_received(),
        }
    }
}

/// Traffic totals per node, in bytes and message counts.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Bytes sent, per source node.
    pub bytes_sent: HashMap<NodeId, u64>,
    /// Bytes received, per destination node.
    pub bytes_received: HashMap<NodeId, u64>,
    /// Messages sent, per source node.
    pub messages_sent: HashMap<NodeId, u64>,
}

impl NetStats {
    /// Total bytes sent across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.bytes_sent.values().sum()
    }

    /// Total bytes sent across all nodes (alias of [`NetStats::total_sent`]
    /// matching the `total_msgs` naming).
    pub fn total_bytes(&self) -> u64 {
        self.total_sent()
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.messages_sent.values().sum()
    }

    /// Traffic that happened *after* `earlier` was snapshotted: per-node
    /// saturating difference of every counter. Nodes registered since the
    /// earlier snapshot keep their full counts.
    pub fn diff(&self, earlier: &NetStats) -> NetStats {
        let sub = |now: &HashMap<NodeId, u64>, then: &HashMap<NodeId, u64>| {
            now.iter()
                .map(|(&k, &v)| (k, v.saturating_sub(then.get(&k).copied().unwrap_or(0))))
                .collect()
        };
        NetStats {
            bytes_sent: sub(&self.bytes_sent, &earlier.bytes_sent),
            bytes_received: sub(&self.bytes_received, &earlier.bytes_received),
            messages_sent: sub(&self.messages_sent, &earlier.messages_sent),
        }
    }
}

/// Errors from sending on a fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Destination was never registered.
    UnknownNode,
    /// Destination endpoint was dropped or its connection failed.
    Closed,
    /// Payload exceeds the backend's maximum frame length.
    TooLarge,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownNode => write!(f, "unknown destination node"),
            SendError::Closed => write!(f, "destination endpoint closed"),
            SendError::TooLarge => write!(f, "payload exceeds the maximum frame length"),
        }
    }
}

impl std::error::Error for SendError {}

/// Receive failed: all senders dropped or timeout elapsed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Timed receive failed — unlike [`RecvError`] this distinguishes a
/// deadline expiry from a torn-down fabric, so callers (the submission
/// driver) can report a dead peer as what it is instead of a misleading
/// "no reply within the deadline".
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline elapsed with no message.
    Timeout,
    /// The endpoint's mailbox closed (fabric torn down).
    Closed,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "receive deadline elapsed"),
            RecvTimeoutError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receive failed (closed or timed out)")
    }
}

impl std::error::Error for RecvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_roundtrip() {
        for kind in [TransportKind::Sim, TransportKind::Tcp] {
            assert_eq!(TransportKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(TransportKind::from_tag("carrier-pigeon"), None);
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in [TransportKind::Sim, TransportKind::Tcp] {
            let net = kind.build(None);
            assert_eq!(net.kind(), kind);
        }
    }

    /// The same smoke exchange must behave identically on every backend:
    /// this is the contract the server loop relies on.
    #[test]
    fn backends_agree_on_endpoint_semantics() {
        for kind in [TransportKind::Sim, TransportKind::Tcp] {
            let net = kind.build(None);
            let a = net.endpoint();
            let b = net.endpoint();
            assert_ne!(a.id(), b.id(), "{kind:?}");
            a.send(b.id(), b"ping".to_vec()).unwrap();
            let env = b.recv().unwrap();
            assert_eq!(env.src, a.id(), "{kind:?}");
            assert_eq!(env.payload, b"ping", "{kind:?}");
            assert_eq!(a.bytes_sent(), 4, "{kind:?}");
            // Unregistered destinations fail identically.
            assert_eq!(
                a.send(NodeId(4096), vec![1]),
                Err(SendError::UnknownNode),
                "{kind:?}"
            );
            // Failed sends must not pollute the traffic counters.
            assert_eq!(a.bytes_sent(), 4, "{kind:?}");
            let stats = net.stats();
            assert_eq!(stats.messages_sent[&a.id()], 1, "{kind:?}");
            // A peer that existed but was dropped reports Closed — on every
            // backend — distinguishing it from a never-registered node.
            let c = net.endpoint();
            let c_id = c.id();
            drop(c);
            assert_eq!(a.send(c_id, vec![1]), Err(SendError::Closed), "{kind:?}");
            assert_eq!(a.bytes_sent(), 4, "{kind:?}");
        }
    }

    #[test]
    fn diff_of_equal_snapshots_is_zero() {
        let mut stats = NetStats::default();
        stats.bytes_sent.insert(NodeId(0), 100);
        stats.bytes_received.insert(NodeId(1), 100);
        stats.messages_sent.insert(NodeId(0), 3);
        let diff = stats.diff(&stats.clone());
        assert_eq!(diff.total_bytes(), 0);
        assert_eq!(diff.total_msgs(), 0);
        // Nodes stay present with zeroed counters: callers can still index.
        assert_eq!(diff.bytes_sent[&NodeId(0)], 0);
        assert_eq!(diff.bytes_received[&NodeId(1)], 0);
    }

    #[test]
    fn diff_keeps_full_counts_for_nodes_only_in_later_snapshot() {
        let mut earlier = NetStats::default();
        earlier.bytes_sent.insert(NodeId(0), 10);
        let mut later = NetStats::default();
        later.bytes_sent.insert(NodeId(0), 15);
        later.bytes_sent.insert(NodeId(7), 99); // registered after `earlier`
        later.messages_sent.insert(NodeId(7), 2);
        let diff = later.diff(&earlier);
        assert_eq!(diff.bytes_sent[&NodeId(0)], 5);
        assert_eq!(diff.bytes_sent[&NodeId(7)], 99);
        assert_eq!(diff.messages_sent[&NodeId(7)], 2);
        assert_eq!(diff.total_bytes(), 104);
    }

    #[test]
    fn diff_saturates_instead_of_underflowing() {
        // A reset between snapshots makes "earlier" larger than "later";
        // the diff must clamp to zero, not wrap.
        let mut earlier = NetStats::default();
        earlier.bytes_sent.insert(NodeId(0), 500);
        let mut later = NetStats::default();
        later.bytes_sent.insert(NodeId(0), 20);
        assert_eq!(later.diff(&earlier).bytes_sent[&NodeId(0)], 0);
    }
}
