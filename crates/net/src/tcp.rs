//! The real-socket fabric: every endpoint is a localhost TCP listener, and
//! every message crosses the kernel's loopback stack as a length-prefixed
//! frame.
//!
//! This is the [`TransportKind::Tcp`] backend. It exists to validate the
//! wire protocol end-to-end — serialization, framing, interleaving of
//! connections, shutdown — under a real socket API, and as the stepping
//! stone toward the paper's five-datacenter deployment: the addressing is
//! already `SocketAddr`-based, so lifting the registry out of process is
//! the only change multi-host operation needs.
//!
//! Design notes:
//!
//! * **Framing** — `sender id (u64 LE) | payload length (u32 LE) | payload`.
//!   Carrying the sender id per frame keeps connections stateless (no
//!   handshake) and lets one mailbox multiplex any number of inbound
//!   connections.
//! * **Accounting** — byte counters record *payload* bytes on successful
//!   sends only, exactly like the sim fabric, so [`NetStats`] numbers are
//!   comparable across backends (framing overhead is a backend detail the
//!   Figure-6 metrics deliberately exclude). A send whose `write_all`
//!   fails — even mid-frame, after the kernel accepted part of the bytes —
//!   is compensated in full: the counters only ever describe
//!   fully-written frames, and the broken pooled connection is dropped so
//!   the next send redials (see [`TcpEndpoint::send`]).
//! * **Inbound I/O** — one `poll(2)` reactor thread per endpoint owns the
//!   listener and every accepted connection, decoding frames incrementally
//!   into the endpoint's mailbox (see the `reactor` module). Resources grow
//!   with *live* connections only, up to the reactor's connection budget.
//! * **Shutdown** — dropping an endpoint shuts down its outbound
//!   connections (peers' reactors see EOF), nudges its own reactor awake
//!   with a throwaway connection, and joins the reactor thread, which
//!   closes every inbound connection on its way out. No threads or
//!   sockets outlive the endpoint. A closed endpoint's id is *tombstoned*
//!   — sends to it report [`SendError::Closed`] — but the id can be
//!   re-bound or re-registered, so a restarted node re-enters the fabric
//!   under its old identity.

use crate::transport::{
    counter_for, lock, Endpoint, Envelope, FabricMetrics, NetStats, NodeId, RecvError,
    RecvTimeoutError, SendError, TrafficCounters, Transport, TransportKind,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted frame payload (64 MiB). A larger length prefix is
/// treated as stream corruption and closes the connection — it can never
/// trigger a matching allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bind attempts before a port collision becomes a [`BindError`].
const BIND_ATTEMPTS: u32 = 4;

/// `127.0.0.1:0` — loopback with an OS-assigned ephemeral port, built
/// structurally so no string parsing (and no parse failure path) is
/// involved.
fn loopback_ephemeral() -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
}

/// Backoff between bind attempts on a transient port collision.
const BIND_BACKOFF: Duration = Duration::from_millis(20);

/// Typed error from binding an endpoint's listener — the multi-process
/// launcher propagates this through its handshake instead of panicking a
/// whole node.
#[derive(Debug)]
pub enum BindError {
    /// The address stayed in use after [`BIND_ATTEMPTS`] tries. Ephemeral
    /// binds (`port 0`) essentially never hit this; a caller-chosen port
    /// can.
    AddrInUse {
        /// The address that could not be bound.
        addr: SocketAddr,
        /// How many times the bind was attempted.
        attempts: u32,
    },
    /// The node id is already taken on this fabric (a second endpoint or a
    /// registered remote peer).
    DuplicateId(NodeId),
    /// Any other I/O failure from the OS (EMFILE, EACCES, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::AddrInUse { addr, attempts } => {
                write!(f, "{addr} still in use after {attempts} bind attempts")
            }
            BindError::DuplicateId(id) => write!(f, "node id {id:?} already on this fabric"),
            BindError::Io(e) => write!(f, "bind failed: {e}"),
        }
    }
}

impl std::error::Error for BindError {}

/// Binds `addr`, retrying a transient `EADDRINUSE` with backoff before
/// giving up with a typed error. Each retry taken is counted in
/// `retries`.
fn bind_with_retry(
    addr: SocketAddr,
    retries: &prio_obs::Counter,
) -> Result<TcpListener, BindError> {
    let mut attempts = 0;
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == ErrorKind::AddrInUse => {
                attempts += 1;
                if attempts >= BIND_ATTEMPTS {
                    return Err(BindError::AddrInUse { addr, attempts });
                }
                retries.inc();
                std::thread::sleep(BIND_BACKOFF);
            }
            Err(e) => return Err(BindError::Io(e)),
        }
    }
}

/// Frame header size: 8-byte sender id + 4-byte payload length.
pub const FRAME_HEADER_LEN: usize = 12;

/// Encodes one frame: `src (u64 LE) | len (u32 LE) | payload`. Returns
/// `None` if the payload exceeds [`MAX_FRAME_LEN`] (senders surface this as
/// [`SendError::TooLarge`]).
pub fn encode_frame(src: NodeId, payload: &[u8]) -> Option<Vec<u8>> {
    if payload.len() > MAX_FRAME_LEN {
        return None;
    }
    let len = u32::try_from(payload.len()).ok()?;
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(src.0 as u64).to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    Some(buf)
}

/// Decodes a frame header. Returns `(src, payload_len)`, or `None` if the
/// claimed length exceeds [`MAX_FRAME_LEN`].
pub fn decode_frame_header(header: &[u8; FRAME_HEADER_LEN]) -> Option<(NodeId, usize)> {
    let (src_bytes, len_bytes) = header.split_at(8);
    let src = u64::from_le_bytes(src_bytes.try_into().ok()?) as usize;
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    (len <= MAX_FRAME_LEN).then_some((NodeId(src), len))
}

/// What an id in the fabric's address registry currently names. The
/// distinction carries the restart semantics: a [`Slot::Local`] id is
/// owned by a live endpoint of *this* fabric and cannot be taken, a
/// [`Slot::Remote`] id belongs to another process and may be
/// re-registered at a new address (the rejoin path after a node
/// restart), and a [`Slot::Tombstone`] is what a closed endpoint leaves
/// behind — sends to it report [`SendError::Closed`], matching the sim
/// fabric's dropped-mailbox semantics, rather than
/// [`SendError::UnknownNode`], and anything may claim it.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Local(SocketAddr),
    Remote(SocketAddr),
    Tombstone,
}

struct Inner {
    /// Where each registered node listens (see [`Slot`]).
    addrs: Mutex<HashMap<NodeId, Slot>>,
    counters: TrafficCounters,
    metrics: FabricMetrics,
    latency: Option<Duration>,
    next_id: AtomicU64,
}

/// The localhost TCP fabric. Cheap to clone (shared handle); the handle
/// holds only the address registry and counters — sockets and threads
/// belong to the endpoints.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<Inner>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Creates a fabric with no artificial latency.
    pub fn new() -> Self {
        Self::with_latency(None)
    }

    /// Creates a fabric that delays every send by `latency` on top of the
    /// real loopback cost, modelling a uniform WAN link like the sim
    /// fabric does.
    pub fn with_latency(latency: Option<Duration>) -> Self {
        TcpTransport {
            inner: Arc::new(Inner {
                addrs: Mutex::new(HashMap::new()),
                counters: TrafficCounters::default(),
                metrics: FabricMetrics::resolve(),
                latency,
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a new endpoint: binds an OS-assigned localhost port and
    /// starts its reactor thread.
    ///
    /// # Panics
    /// Panics if the OS refuses to bind a loopback listener even after the
    /// [`TcpTransport::try_endpoint`] retry loop; callers that must survive
    /// bind failure (the multi-process launcher) use the `try_` family.
    pub fn endpoint(&self) -> Endpoint {
        self.try_endpoint()
            // lint:allow(no-panic, documented panic on local bind failure; network peers cannot trigger it and the fallible try_ family exists)
            .unwrap_or_else(|e| panic!("bind loopback listener: {e}"))
    }

    /// Fallible [`TcpTransport::endpoint`]: binds an ephemeral localhost
    /// port (with bounded retry on collision) and returns a typed
    /// [`BindError`] instead of panicking.
    pub fn try_endpoint(&self) -> Result<Endpoint, BindError> {
        let id = NodeId(self.inner.next_id.fetch_add(1, Ordering::Relaxed) as usize);
        self.try_endpoint_bound(id, loopback_ephemeral())
    }

    /// Binds an endpoint under a *caller-chosen* node id — the
    /// multi-process fabric, where every process must agree on the
    /// server-index ↔ id mapping up front instead of relying on one shared
    /// in-process counter. The listener still takes an OS-assigned
    /// ephemeral port; read it back with [`Endpoint::local_addr`].
    pub fn try_endpoint_with_id(&self, id: NodeId) -> Result<Endpoint, BindError> {
        self.try_endpoint_bound(id, loopback_ephemeral())
    }

    /// Fully explicit endpoint construction: caller-chosen node id *and*
    /// bind address. Fails with a typed [`BindError`] on a duplicate id or
    /// a port collision that outlives the retry loop. A *tombstoned* id
    /// (left by a closed endpoint) is not a duplicate — a restarted node
    /// rebinds over it.
    pub fn try_endpoint_bound(&self, id: NodeId, bind: SocketAddr) -> Result<Endpoint, BindError> {
        // Keep auto-assigned ids clear of caller-chosen ones.
        bump_next_id(&self.inner.next_id, id);
        let listener = bind_with_retry(bind, &self.inner.metrics.bind_retries)?;
        let addr = listener.local_addr().map_err(BindError::Io)?;
        {
            let mut addrs = lock(&self.inner.addrs);
            if let Some(Slot::Local(_) | Slot::Remote(_)) = addrs.get(&id) {
                return Err(BindError::DuplicateId(id));
            }
            addrs.insert(id, Slot::Local(addr));
        }

        let (tx, rx) = channel();
        let closed = Arc::new(AtomicBool::new(false));
        let live_inbound = Arc::new(AtomicU64::new(0));
        let received = counter_for(&self.inner.counters.received, id);

        let reactor = {
            let closed = closed.clone();
            let live = live_inbound.clone();
            let received = received.clone();
            let metrics = self.inner.metrics.clone();
            std::thread::spawn(move || {
                crate::reactor::run(listener, tx, closed, live, received, metrics)
            })
        };

        Ok(Endpoint::Tcp(TcpEndpoint {
            id,
            addr,
            net: self.clone(),
            rx,
            conns: Mutex::new(HashMap::new()),
            sent: counter_for(&self.inner.counters.sent, id),
            received,
            msgs: counter_for(&self.inner.counters.msgs, id),
            closed,
            live_inbound,
            reactor: Some(reactor),
        }))
    }

    /// Registers a *remote* peer's listening address so local endpoints can
    /// send to it. This is the piece that moves the address registry out of
    /// process: an in-process deployment shares one `TcpTransport` whose
    /// endpoints auto-register, while each process of a multi-process
    /// deployment holds its own fabric and learns its peers' ephemeral
    /// addresses over the control plane.
    ///
    /// Returns `Err(BindError::DuplicateId)` only if the id names a
    /// *live local* endpoint of this fabric — that identity is owned
    /// here and a remote claim on it is a caller bug. A tombstoned id
    /// (left by a closed endpoint) can be re-registered, and a known
    /// *remote* peer's address may be updated in place: both are the
    /// restart path, where a relaunched node announces its new ephemeral
    /// address under its old identity and every surviving peer rebinds.
    pub fn register_peer(&self, id: NodeId, addr: SocketAddr) -> Result<(), BindError> {
        bump_next_id(&self.inner.next_id, id);
        let mut addrs = lock(&self.inner.addrs);
        if let Some(Slot::Local(_)) = addrs.get(&id) {
            return Err(BindError::DuplicateId(id));
        }
        addrs.insert(id, Slot::Remote(addr));
        Ok(())
    }

    /// Per-node traffic statistics.
    ///
    /// Sent-side counters (`bytes_sent`, `messages_sent`) are recorded
    /// before a frame can reach its reader, exactly like the sim fabric.
    /// They describe **fully-written frames only**: a send whose
    /// `write_all` fails at any point — even after the kernel accepted a
    /// partial frame — is compensated in full, so partial frames (which
    /// the peer's decoder discards as a truncated stream) never inflate
    /// the ledger. `bytes_received` is counted by the destination's
    /// reactor as it drains the socket, so it is *eventually consistent*:
    /// a snapshot can momentarily trail the sender's view by
    /// frames still in the kernel buffer.
    pub fn stats(&self) -> NetStats {
        self.inner.counters.stats()
    }

    /// Resets all byte/message counters (e.g. between benchmark phases).
    pub fn reset_stats(&self) {
        self.inner.counters.reset()
    }
}

impl Transport for TcpTransport {
    fn endpoint(&self) -> Endpoint {
        TcpTransport::endpoint(self)
    }

    fn stats(&self) -> NetStats {
        TcpTransport::stats(self)
    }

    fn reset_stats(&self) {
        TcpTransport::reset_stats(self)
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

/// Raises `next_id` above a caller-chosen `id` so later auto-assigned ids
/// can never collide with it.
fn bump_next_id(next_id: &AtomicU64, id: NodeId) {
    let floor = id.0 as u64 + 1;
    next_id.fetch_max(floor, Ordering::Relaxed);
}

/// One node's handle on the TCP fabric: a listener-backed mailbox, a pool
/// of outbound connections, and byte counters.
pub struct TcpEndpoint {
    id: NodeId,
    addr: SocketAddr,
    net: TcpTransport,
    rx: Receiver<Envelope>,
    /// Outbound connections, one per destination, opened lazily. Each is
    /// keyed with the address it was dialed to, so a registry rebind (a
    /// restarted peer's fresh ephemeral port) invalidates the stale
    /// connection instead of buffering frames into a dead socket.
    conns: Mutex<HashMap<NodeId, (SocketAddr, TcpStream)>>,
    sent: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
    msgs: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
    /// Live inbound connections (maintained by the reactor).
    live_inbound: Arc<AtomicU64>,
    /// The reactor thread serving every inbound connection; taken (and
    /// joined) by [`TcpEndpoint::close`].
    reactor: Option<JoinHandle<()>>,
}

impl TcpEndpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The socket address this endpoint listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `payload` to `dst` as one frame over a pooled connection.
    /// Bytes and message counts are recorded only on success.
    ///
    /// `Ok` means the kernel accepted the frame, not that the peer read
    /// it: a send racing the destination's teardown can succeed and be
    /// dropped unread (real-socket semantics), where the sim fabric's
    /// atomic registry would have reported [`SendError::Closed`]. Protocol
    /// code must not send to peers it is simultaneously shutting down —
    /// the deployment's leader-coordinated shutdown respects this.
    ///
    /// On a failed `write_all` the counters are compensated by the *full*
    /// payload length even when the kernel accepted part of the frame:
    /// the peer's decoder treats a partial frame as a truncated stream and
    /// discards it, so "sent" means *a complete frame was handed to the
    /// kernel* — never a byte count the receiver might disagree with. The
    /// broken connection is removed from the pool (a later send redials)
    /// and the failure surfaces as the typed [`SendError::Closed`].
    pub fn send(&self, dst: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        let n = payload.len() as u64;
        self.send_inner(dst, payload)
            .inspect(|()| self.net.inner.metrics.sent(n))
            .inspect_err(|&e| self.net.inner.metrics.send_failure(e))
    }

    fn send_inner(&self, dst: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        let addr = match lock(&self.net.inner.addrs)
            .get(&dst)
            .copied()
            .ok_or(SendError::UnknownNode)?
        {
            Slot::Local(addr) | Slot::Remote(addr) => addr,
            Slot::Tombstone => return Err(SendError::Closed),
        };
        if let Some(latency) = self.net.inner.latency {
            std::thread::sleep(latency);
        }
        let frame = encode_frame(self.id, &payload).ok_or(SendError::TooLarge)?;
        let mut conns = lock(&self.conns);
        let entry = match conns.entry(dst) {
            // A pooled connection dialed to a *different* address than the
            // registry now holds points at a dead incarnation of the peer:
            // a small write into it can "succeed" into the kernel buffer
            // and vanish. Redial the current address instead.
            Entry::Occupied(mut e) => {
                if e.get().0 != addr {
                    let stream = TcpStream::connect(addr).map_err(|_| SendError::Closed)?;
                    let _ = stream.set_nodelay(true);
                    e.insert((addr, stream));
                }
                e.into_mut()
            }
            Entry::Vacant(v) => {
                let stream = TcpStream::connect(addr).map_err(|_| SendError::Closed)?;
                let _ = stream.set_nodelay(true);
                v.insert((addr, stream))
            }
        };
        let stream = &mut entry.1;
        // Count before the write: once the kernel has the bytes the peer's
        // reader may deliver them at any moment, and a stats snapshot taken
        // after a protocol barrier must already include every message that
        // reached it. The failure path compensates.
        let n = payload.len() as u64;
        self.sent.fetch_add(n, Ordering::Relaxed);
        self.msgs.fetch_add(1, Ordering::Relaxed);
        if stream.write_all(&frame).is_err() {
            self.sent.fetch_sub(n, Ordering::Relaxed);
            self.msgs.fetch_sub(1, Ordering::Relaxed);
            // Drop the broken connection so a later send can redial.
            conns.remove(&dst);
            return Err(SendError::Closed);
        }
        Ok(())
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.rx.recv().map_err(|_| RecvError)
    }

    /// Receive with a timeout (for shutdown paths).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            std::sync::mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
            std::sync::mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Closed,
        })
    }

    /// Bytes this endpoint has sent.
    pub fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Bytes this endpoint has received.
    pub fn bytes_received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Live inbound connections this endpoint currently holds resources
    /// for: the reactor's live-connection count, which drops as soon as
    /// the loop has seen a peer's EOF and closed its socket.
    pub fn inbound_conns(&self) -> u64 {
        self.live_inbound.load(Ordering::Relaxed)
    }

    /// Tears the endpoint down: deregisters its address, closes every
    /// connection, and joins the reactor thread. Idempotent; also runs on
    /// drop. Traffic counters survive in the fabric, and the tombstoned id
    /// can be re-bound by a restarted node.
    pub fn close(&mut self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        lock(&self.net.inner.addrs).insert(self.id, Slot::Tombstone);
        // EOF both directions of every outbound connection we own, so the
        // peers' reactors drop their end promptly.
        for (_, (_, conn)) in lock(&self.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Nudge the reactor with a throwaway connection: the listener
        // becomes readable, poll returns, and the loop notices the closed
        // flag and tears its inbound connections down.
        let _ = TcpStream::connect(self.addr);
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `bytes` into a fresh loopback connection, closes the sending
    /// side, and drains the accepted end through the reactor's per-connection
    /// decoder. Returns the delivered envelopes and whether the reactor would
    /// keep the connection. The accepted stream stays blocking, so the drain
    /// reads straight through to the peer's EOF.
    fn drain_socket_pair(bytes: &[u8]) -> (Vec<Envelope>, bool) {
        let listener = TcpListener::bind(loopback_ephemeral()).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(bytes).unwrap();
        drop(client);
        let mut conn = crate::reactor::Conn::new(server);
        let mut delivered = Vec::new();
        let keep = conn.drain(&mut [0u8; 64], &mut |env| {
            delivered.push(env);
            true
        });
        (delivered, keep)
    }

    #[test]
    fn frame_roundtrip_via_socket_pair() {
        let mut wire = encode_frame(NodeId(7), b"payload").unwrap();
        wire.extend_from_slice(&encode_frame(NodeId(9), &[]).unwrap());
        let (envs, keep) = drain_socket_pair(&wire);
        assert_eq!(envs.len(), 2);
        assert_eq!(envs[0].src, NodeId(7));
        assert_eq!(envs[0].payload, b"payload");
        assert_eq!(envs[1].src, NodeId(9));
        assert!(envs[1].payload.is_empty());
        // Clean EOF at a frame boundary: both frames arrive, then the
        // connection is dropped.
        assert!(!keep);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let frame = encode_frame(NodeId(1), &[1, 2, 3, 4]).unwrap();
        // EOF two bytes short of the frame's end.
        let (envs, keep) = drain_socket_pair(&frame[..frame.len() - 2]);
        assert!(envs.is_empty(), "a partial frame must never be delivered");
        assert!(!keep);
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[8..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame_header(&header).is_none());
    }

    #[test]
    fn send_recv_and_accounting_over_real_sockets() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        let b = net.endpoint();
        a.send(b.id(), vec![1, 2, 3]).unwrap();
        b.send(a.id(), vec![9; 10]).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.src, a.id());
        assert_eq!(env.payload, vec![1, 2, 3]);
        let env = a.recv().unwrap();
        assert_eq!(env.payload, vec![9; 10]);
        assert_eq!(a.bytes_sent(), 3);
        assert_eq!(b.bytes_sent(), 10);
        // Receive counters are written by the reactor, which runs ahead
        // of recv(): after both recv calls they must have settled.
        assert_eq!(a.bytes_received(), 10);
        assert_eq!(b.bytes_received(), 3);
        let stats = net.stats();
        assert_eq!(stats.total_sent(), 13);
        assert_eq!(stats.total_msgs(), 2);
        net.reset_stats();
        assert_eq!(net.stats().total_sent(), 0);
    }

    #[test]
    fn many_messages_per_connection_stay_ordered() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        let b = net.endpoint();
        for i in 0..100u8 {
            a.send(b.id(), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            // One pooled connection per destination: per-peer FIFO holds.
            assert_eq!(b.recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn cross_thread_echo() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        let b = net.endpoint();
        let b_id = b.id();
        let handle = std::thread::spawn(move || {
            let env = b.recv().unwrap();
            let doubled: Vec<u8> = env.payload.iter().map(|&x| x * 2).collect();
            b.send(env.src, doubled).unwrap();
        });
        a.send(b_id, vec![1, 2, 3]).unwrap();
        assert_eq!(a.recv().unwrap().payload, vec![2, 4, 6]);
        handle.join().unwrap();
    }

    #[test]
    fn unknown_destination_and_closed_peer() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        assert_eq!(a.send(NodeId(999), vec![1]), Err(SendError::UnknownNode));
        assert_eq!(a.bytes_sent(), 0);
        let b = net.endpoint();
        let b_id = b.id();
        drop(b); // tombstones its address
        assert_eq!(a.send(b_id, vec![1]), Err(SendError::Closed));
    }

    #[test]
    fn recv_timeout_elapses() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        assert!(a.recv_timeout(Duration::from_millis(10)).is_err());
    }

    #[test]
    fn closed_reactor_endpoint_reports_closed_not_timeout() {
        // The two RecvTimeoutError flavours carry different diagnoses: a
        // deadline expiry means "the peer is slow", a closed fabric means
        // "stop waiting, nothing will ever arrive". An endpoint whose
        // reactor has been torn down must report the latter — immediately, not after sitting out the full deadline.
        let net = TcpTransport::new();
        let crate::Endpoint::Tcp(mut ep) = net.endpoint() else {
            panic!("tcp fabric must hand out tcp endpoints");
        };
        // Alive: a short wait is a deadline expiry.
        assert!(matches!(
            ep.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        ));
        ep.close();
        let start = std::time::Instant::now();
        assert!(
            matches!(
                ep.recv_timeout(Duration::from_secs(30)),
                Err(RecvTimeoutError::Closed)
            ),
            "a killed endpoint must report the fabric closed"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "closed must surface promptly, not at the deadline"
        );
    }

    #[test]
    fn recv_timeout_under_latency() {
        // Same contract as the sim fabric: with a 150 ms link, a 20 ms poll
        // must time out and a generous poll must deliver.
        let net = TcpTransport::with_latency(Some(Duration::from_millis(150)));
        let a = net.endpoint();
        let b = net.endpoint();
        let b_id = b.id();
        let sender = std::thread::spawn(move || a.send(b_id, vec![42]).unwrap());
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        let env = b
            .recv_timeout(Duration::from_secs(10))
            .expect("message arrives once the link latency elapses");
        assert_eq!(env.payload, vec![42]);
        sender.join().unwrap();
    }

    #[test]
    fn two_fabrics_bridge_via_register_peer() {
        // Two TcpTransport instances model two OS processes: each owns one
        // endpoint under a caller-chosen id and learns the other's
        // ephemeral address out of band — exactly the multi-process
        // launcher's handshake, with no fixed ports anywhere.
        let fab_a = TcpTransport::new();
        let fab_b = TcpTransport::new();
        let a = fab_a.try_endpoint_with_id(NodeId(0)).unwrap();
        let b = fab_b.try_endpoint_with_id(NodeId(1)).unwrap();
        let a_addr = a.local_addr().unwrap();
        let b_addr = b.local_addr().unwrap();
        fab_a.register_peer(NodeId(1), b_addr).unwrap();
        fab_b.register_peer(NodeId(0), a_addr).unwrap();
        a.send(NodeId(1), vec![1, 2, 3]).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.payload, vec![1, 2, 3]);
        b.send(env.src, vec![9]).unwrap();
        assert_eq!(a.recv().unwrap().payload, vec![9]);
        // Each fabric accounts only its own endpoints' traffic.
        assert_eq!(fab_a.stats().total_sent(), 3);
        assert_eq!(fab_b.stats().total_sent(), 1);
    }

    #[test]
    fn duplicate_ids_are_a_typed_error() {
        let net = TcpTransport::new();
        let ep = net.try_endpoint_with_id(NodeId(5)).unwrap();
        assert!(matches!(
            net.try_endpoint_with_id(NodeId(5)),
            Err(BindError::DuplicateId(NodeId(5)))
        ));
        assert!(matches!(
            net.register_peer(NodeId(5), ep.local_addr().unwrap()),
            Err(BindError::DuplicateId(NodeId(5)))
        ));
        // Auto-assigned ids steer clear of the caller-chosen one.
        let auto = net.endpoint();
        assert!(auto.id().0 > 5);
    }

    #[test]
    fn port_collision_is_a_typed_error_not_a_panic() {
        // Occupy a port, then ask for an endpoint on exactly that port: the
        // bind must retry, give up, and report a typed AddrInUse — the
        // failure a multi-process launcher turns into a clean error.
        let squatter = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = squatter.local_addr().unwrap();
        let net = TcpTransport::new();
        match net.try_endpoint_bound(NodeId(0), addr) {
            Err(BindError::AddrInUse { addr: got, attempts }) => {
                assert_eq!(got, addr);
                assert!(attempts >= 1);
            }
            Err(other) => panic!("expected AddrInUse, got {other:?}"),
            Ok(_) => panic!("bind to an occupied port must fail"),
        }
        // The fabric stays usable after the failed bind.
        let ep = net.try_endpoint_with_id(NodeId(0)).expect("ephemeral bind");
        assert!(ep.local_addr().unwrap().port() != 0);
    }

    #[test]
    fn shutdown_joins_all_threads_and_closes_sockets() {
        let net = TcpTransport::new();
        let mut eps: Vec<_> = (0..4).map(|_| net.endpoint()).collect();
        // Full mesh of chatter so every endpoint has live inbound and
        // outbound connections.
        let ids: Vec<_> = eps.iter().map(|e| e.id()).collect();
        for ep in &eps {
            for &dst in &ids {
                if dst != ep.id() {
                    ep.send(dst, vec![0u8; 8]).unwrap();
                }
            }
        }
        for ep in &eps {
            for _ in 0..3 {
                ep.recv().unwrap();
            }
        }
        // Dropping every endpoint must return (joins the reactor loops)
        // rather than deadlock, and stats survive the teardown.
        eps.clear();
        let stats = net.stats();
        assert_eq!(stats.total_msgs(), 12);
        assert_eq!(stats.total_sent(), 12 * 8);
    }

    #[test]
    fn reactor_mode_send_recv_accounting_and_ordering() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        let b = net.endpoint();
        a.send(b.id(), vec![1, 2, 3]).unwrap();
        b.send(a.id(), vec![9; 10]).unwrap();
        assert_eq!(b.recv().unwrap().payload, vec![1, 2, 3]);
        assert_eq!(a.recv().unwrap().payload, vec![9; 10]);
        // Receive counters settle once recv returned: the reactor counts
        // before it mails the envelope.
        assert_eq!(a.bytes_received(), 10);
        assert_eq!(b.bytes_received(), 3);
        assert_eq!(net.stats().total_sent(), 13);
        // Per-peer FIFO holds across one pooled connection, reactor-side.
        for i in 0..100u8 {
            a.send(b.id(), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn connection_churn_holds_live_resources_only() {
        // The regression for the reader/fd leak: an endpoint surviving N
        // short-lived inbound connections must hold O(live) resources, not
        // O(N).
        const CHURN: usize = 300;
        let net = TcpTransport::new();
        let Endpoint::Tcp(ep) = net.try_endpoint_with_id(NodeId(0)).unwrap() else {
            unreachable!()
        };
        let addr = ep.local_addr();
        for i in 0..CHURN {
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .write_all(&encode_frame(NodeId(1000 + i), &[i as u8]).unwrap())
                .unwrap();
            let env = ep.recv().unwrap();
            assert_eq!(env.src, NodeId(1000 + i));
            drop(client);
        }
        // The reactor's EOF handling trails the client's drop by a
        // scheduling beat; poll until the count settles.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let live = ep.inbound_conns();
            if live <= 4 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "still holding {live} of {CHURN} churned connections"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn restarted_node_rebinds_over_its_tombstone() {
        let net = TcpTransport::new();
        let a = net.try_endpoint_with_id(NodeId(0)).unwrap();
        let b = net.try_endpoint_with_id(NodeId(1)).unwrap();
        // Pre-restart traffic, so b holds a pooled connection to a's first
        // incarnation.
        b.send(NodeId(0), vec![1]).unwrap();
        assert_eq!(a.recv().unwrap().payload, vec![1]);
        drop(a); // tombstones id 0
        assert_eq!(b.send(NodeId(0), vec![2]), Err(SendError::Closed));
        // The restart: rebinding the tombstoned id must succeed (this was
        // rejected as DuplicateId before the fix).
        let a2 = net
            .try_endpoint_with_id(NodeId(0))
            .expect("rebind over tombstone");
        // b's pooled connection still points at the dead incarnation; the
        // first write to it fails, clears the pool, and a retry redials
        // the new address.
        let mut seq = 2u8;
        let env = loop {
            seq += 1;
            let _ = b.send(NodeId(0), vec![seq]);
            match a2.recv_timeout(Duration::from_millis(500)) {
                Ok(env) => break env,
                Err(_) => assert!(seq < 20, "restarted endpoint never became reachable"),
            }
        };
        assert_eq!(env.src, NodeId(1));
    }

    #[test]
    fn register_peer_accepts_a_tombstoned_id() {
        let net = TcpTransport::new();
        let ep = net.try_endpoint_with_id(NodeId(3)).unwrap();
        let stand_in = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stand_in.local_addr().unwrap();
        assert!(matches!(
            net.register_peer(NodeId(3), addr),
            Err(BindError::DuplicateId(NodeId(3)))
        ));
        drop(ep); // tombstone
        net.register_peer(NodeId(3), addr)
            .expect("re-register over tombstone");
        // The id now names a *remote* peer, and a remote address may be
        // updated in place — the rejoin path after a node restart, where
        // the replacement binds a fresh ephemeral port.
        let moved = TcpListener::bind("127.0.0.1:0").unwrap();
        net.register_peer(NodeId(3), moved.local_addr().unwrap())
            .expect("update a remote peer's address");
    }

    #[test]
    fn register_peer_rebinds_a_restarted_remote_peer() {
        // Two fabrics model two processes. Peer 1 "restarts" onto a new
        // ephemeral port; re-registering it must move traffic to the new
        // incarnation (after the stale pooled connection is cleared by
        // one failed send).
        let fab_a = TcpTransport::new();
        let a = fab_a.try_endpoint_with_id(NodeId(0)).unwrap();
        let fab_b1 = TcpTransport::new();
        let b1 = fab_b1.try_endpoint_with_id(NodeId(1)).unwrap();
        fab_a.register_peer(NodeId(1), b1.local_addr().unwrap()).unwrap();
        a.send(NodeId(1), vec![1]).unwrap();
        assert_eq!(b1.recv().unwrap().payload, vec![1]);
        drop(b1);
        let fab_b2 = TcpTransport::new();
        let b2 = fab_b2.try_endpoint_with_id(NodeId(1)).unwrap();
        fab_a
            .register_peer(NodeId(1), b2.local_addr().unwrap())
            .expect("rebind the restarted peer's new address");
        // The pooled connection still points at the dead incarnation. A
        // small write there can even "succeed" into the kernel buffer
        // before the RST lands, so poll: every failed or swallowed send
        // clears the stale pool entry and the next one redials.
        let mut got = None;
        for _ in 0..20 {
            let _ = a.send(NodeId(1), vec![2]);
            if let Ok(env) = b2.recv_timeout(Duration::from_millis(100)) {
                got = Some(env);
                break;
            }
        }
        let env = got.expect("send must redial the new incarnation");
        assert_eq!(env.payload, vec![2]);
    }

    #[test]
    fn mid_frame_send_failure_compensates_counters_exactly() {
        let net = TcpTransport::new();
        let a = net.endpoint();
        // A raw peer rather than an endpoint: no tombstone shortcut, so
        // the failure must be detected by the write itself.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        net.register_peer(NodeId(77), listener.local_addr().unwrap())
            .unwrap();
        a.send(NodeId(77), vec![7; 3]).unwrap(); // dials the pooled conn
        let (peer, _) = listener.accept().unwrap();
        // Close with the 3-byte frame unread: the kernel answers further
        // traffic on this connection with RST, so a large write fails
        // part-way through the frame (8 MiB is far beyond what loopback
        // socket buffers can absorb).
        drop(peer);
        const BIG: usize = 8 << 20;
        let mut sent_ok = 0u64;
        let mut failed = false;
        for _ in 0..8 {
            match a.send(NodeId(77), vec![0u8; BIG]) {
                Ok(()) => sent_ok += 1,
                Err(SendError::Closed) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected send error {other:?}"),
            }
        }
        assert!(failed, "write to a reset connection must surface Closed");
        // The exact ledger: the primer plus every *fully written* frame.
        // The failed frame is compensated in full even though the kernel
        // accepted part of it mid-write.
        assert_eq!(a.bytes_sent(), 3 + sent_ok * BIG as u64);
        let stats = net.stats();
        assert_eq!(stats.total_sent(), 3 + sent_ok * BIG as u64);
        assert_eq!(stats.total_msgs(), 1 + sent_ok);
        // The broken connection left the pool: the next send redials and
        // lands in the still-listening backlog.
        a.send(NodeId(77), vec![9]).unwrap();
        assert_eq!(a.bytes_sent(), 4 + sent_ok * BIG as u64);
    }
}
