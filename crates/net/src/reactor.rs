//! The inbound I/O driver of every [`TcpEndpoint`](crate::TcpEndpoint):
//! one thread multiplexing all of an endpoint's inbound connections over
//! `poll(2)`.
//!
//! The paper's deployment has servers fielding submissions from very many
//! short-lived client connections, so the inbound side must not spend an
//! OS thread, a stack and a cloned fd per connection. The driver is:
//!
//! * **Non-blocking sockets behind one `poll` loop.** The listener and
//!   every accepted stream sit in a single pollfd set; the loop wakes on
//!   readiness (or a short timeout, which doubles as the shutdown check),
//!   accepts until `WouldBlock`, and drains only the connections the kernel
//!   reported readable.
//! * **Per-connection frame state machines.** Each connection owns a
//!   [`FrameState`] that incrementally decodes the
//!   `src (u64 LE) | len (u32 LE) | payload` frames of the `tcp` module,
//!   so a frame may arrive in any number of partial reads. Completed
//!   envelopes go into the endpoint's mpsc mailbox, which
//!   `run_server_loop` drains.
//! * **A bounded connection budget.** At [`CONN_BUDGET`] live inbound
//!   connections, further accepts are shed immediately (accepted and
//!   closed, counted under `net_reactor_rejected_total{reason=budget}`)
//!   instead of letting the pollfd set — and the fd table — grow without
//!   bound.
//! * **Per-wakeup read budgets.** A single firehose connection can consume
//!   at most [`READ_BUDGET`] bytes per wakeup before the loop moves on, so
//!   one hot peer cannot starve the rest of the set.
//!
//! The `poll(2)` binding is a thin hand-rolled FFI shim (see [`sys`]) —
//! the workspace has zero crates.io dependencies, so there is no `libc` or
//! `mio` to lean on. It is the only unsafe code in the crate, wrapped in a
//! safe slice-in/slice-out function. It is also why the workspace targets
//! unix only (see the crate docs).

use crate::tcp::{decode_frame_header, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use crate::transport::{Envelope, FabricMetrics, NodeId};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Most live inbound connections a reactor will hold at once. Accepts
/// beyond this are shed (accept-and-close) rather than left in the backlog,
/// where they would keep the listener readable and spin the loop. The cap
/// is far below the container's fd limit so an endpoint under connection
/// flood degrades by refusing clients, never by exhausting the process.
pub(crate) const CONN_BUDGET: usize = 4096;

/// Poll timeout: bounds how long shutdown waits for the loop to notice the
/// closed flag when no traffic arrives to wake it.
const POLL_TIMEOUT_MS: i32 = 50;

/// Scratch read size per `read(2)` call.
const READ_CHUNK: usize = 64 << 10;

/// Most bytes drained from one connection per wakeup before the loop moves
/// on to the next ready connection (fairness under a firehose peer).
const READ_BUDGET: usize = 256 << 10;

/// The hand-rolled `poll(2)` binding. The only unsafe code in the crate:
/// one `#[repr(C)]` struct matching the POSIX `pollfd` layout and one
/// foreign function, wrapped in a safe slice API.
#[allow(unsafe_code)]
mod sys {
    use std::os::fd::RawFd;

    /// There is data to read.
    pub(super) const POLLIN: i16 = 0x001;

    /// POSIX `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: RawFd,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = u32;

    unsafe extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Safe wrapper: blocks until a descriptor in `fds` is ready or
    /// `timeout_ms` elapses. Returns the raw `poll(2)` result (`< 0` on
    /// error — the caller treats every error as transient and retries,
    /// since without `errno` access EINTR is indistinguishable anyway and
    /// the loop's closed flag bounds any retry storm).
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid exclusively-borrowed slice for the whole
        // call, and its exact length is passed as nfds, so the kernel only
        // touches memory we own.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) }
    }
}

/// The reactor's own observability handles, resolved once per endpoint
/// against the process-wide registry (same pattern as `FabricMetrics`).
struct ReactorMetrics {
    conns: prio_obs::Gauge,
    accepted: prio_obs::Counter,
    rejected_budget: prio_obs::Counter,
    poll_wakeups: prio_obs::Counter,
    ready_batch: prio_obs::Histogram,
}

impl ReactorMetrics {
    fn resolve() -> ReactorMetrics {
        use prio_obs::names;
        let reg = prio_obs::Registry::global();
        ReactorMetrics {
            conns: reg.gauge(names::NET_REACTOR_CONNS, &[]),
            accepted: reg.counter(names::NET_REACTOR_ACCEPTED, &[]),
            rejected_budget: reg.counter(names::NET_REACTOR_REJECTED, &[("reason", "budget")]),
            poll_wakeups: reg.counter(names::NET_REACTOR_POLL_WAKEUPS, &[]),
            ready_batch: reg.histogram(names::NET_REACTOR_READY_BATCH, &[]),
        }
    }
}

/// Incremental decoder state for one connection: either mid-header or
/// mid-payload of the current frame.
enum FrameState {
    /// Collecting the 12-byte `src | len` header.
    Header {
        buf: [u8; FRAME_HEADER_LEN],
        filled: usize,
    },
    /// Collecting `payload.len()` payload bytes.
    Payload {
        src: NodeId,
        payload: Vec<u8>,
        filled: usize,
    },
}

impl FrameState {
    fn header() -> FrameState {
        FrameState::Header {
            buf: [0u8; FRAME_HEADER_LEN],
            filled: 0,
        }
    }
}

/// One inbound connection owned by the reactor.
pub(crate) struct Conn {
    stream: TcpStream,
    state: FrameState,
}

impl Conn {
    /// A connection awaiting its first frame header.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: FrameState::header(),
        }
    }

    /// Drains readable bytes (up to [`READ_BUDGET`]) through the frame
    /// state machine, handing completed envelopes to `deliver`. Returns
    /// `false` when the connection must be dropped: EOF, I/O error,
    /// corrupt framing, or a dead mailbox.
    pub(crate) fn drain(
        &mut self,
        scratch: &mut [u8],
        deliver: &mut dyn FnMut(Envelope) -> bool,
    ) -> bool {
        let mut consumed = 0;
        while consumed < READ_BUDGET {
            let n = match self.stream.read(scratch) {
                Ok(0) => return false, // EOF: mid-frame or not, the peer is gone
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            consumed += n;
            let Some(chunk) = scratch.get(..n) else {
                return false;
            };
            if !self.feed(chunk, deliver) {
                return false;
            }
        }
        // Budget spent; the socket stays registered and poll will report it
        // readable again if bytes remain.
        true
    }

    /// Runs `chunk` through the state machine. The loop checks frame
    /// *completion* before consuming bytes, so a zero-length payload (a
    /// frame that is all header) completes without needing another byte.
    fn feed(&mut self, mut chunk: &[u8], deliver: &mut dyn FnMut(Envelope) -> bool) -> bool {
        loop {
            match &mut self.state {
                FrameState::Header { buf, filled } => {
                    if *filled == FRAME_HEADER_LEN {
                        let Some((src, len)) = decode_frame_header(buf) else {
                            return false; // oversized length prefix: stream corruption
                        };
                        let payload = vec![0u8; len.min(MAX_FRAME_LEN)];
                        self.state = FrameState::Payload {
                            src,
                            payload,
                            filled: 0,
                        };
                        continue;
                    }
                    if chunk.is_empty() {
                        return true;
                    }
                    let take = chunk.len().min(FRAME_HEADER_LEN - *filled);
                    let (head, rest) = chunk.split_at(take);
                    let Some(dst) = buf.get_mut(*filled..*filled + take) else {
                        return false;
                    };
                    dst.copy_from_slice(head);
                    *filled += take;
                    chunk = rest;
                }
                FrameState::Payload {
                    src,
                    payload,
                    filled,
                } => {
                    if *filled == payload.len() {
                        let env = Envelope {
                            src: *src,
                            payload: std::mem::take(payload),
                        };
                        self.state = FrameState::header();
                        if !deliver(env) {
                            return false; // mailbox gone: endpoint tearing down
                        }
                        continue;
                    }
                    if chunk.is_empty() {
                        return true;
                    }
                    let take = chunk.len().min(payload.len() - *filled);
                    let (head, rest) = chunk.split_at(take);
                    let Some(dst) = payload.get_mut(*filled..*filled + take) else {
                        return false;
                    };
                    dst.copy_from_slice(head);
                    *filled += take;
                    chunk = rest;
                }
            }
        }
    }
}

/// The reactor loop: runs on one thread per endpoint until `closed` flips
/// (the endpoint's `close` nudges the listener with a throwaway connection
/// so the flip is noticed immediately). `live` mirrors the live-connection
/// count for [`TcpEndpoint::inbound_conns`](crate::TcpEndpoint::inbound_conns);
/// `received`/`metrics` are the endpoint's per-node and the process-wide
/// receive accounting.
pub(crate) fn run(
    listener: TcpListener,
    tx: Sender<Envelope>,
    closed: Arc<AtomicBool>,
    live: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
    metrics: FabricMetrics,
) {
    let rm = ReactorMetrics::resolve();
    if listener.set_nonblocking(true).is_err() {
        // Cannot multiplex a blocking listener; nothing inbound will be
        // served, but shutdown still works (the closed flag is checked
        // before anything else).
        return;
    }
    let mut conns: Vec<Conn> = Vec::new();
    // The pollfd set, rebuilt in place on every wakeup.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut deliver = |env: Envelope| {
        let n = env.payload.len() as u64;
        received.fetch_add(n, Ordering::Relaxed);
        metrics.received(n);
        tx.send(env).is_ok()
    };

    while !closed.load(Ordering::SeqCst) {
        // Rebuild the pollfd set: listener first, then one entry per
        // connection in `conns` order (the drain phase relies on the
        // `fds[i + 1] ↔ conns[i]` correspondence).
        fds.clear();
        fds.extend(
            std::iter::once(listener.as_raw_fd())
                .chain(conns.iter().map(|conn| conn.stream.as_raw_fd()))
                .map(|fd| sys::PollFd {
                    fd,
                    events: sys::POLLIN,
                    revents: 0,
                }),
        );
        let rc = sys::poll_fds(&mut fds, POLL_TIMEOUT_MS);
        rm.poll_wakeups.inc();
        if rc < 0 {
            continue; // transient (EINTR-class) failure: retry
        }
        if closed.load(Ordering::SeqCst) {
            break;
        }

        // Accept phase: take everything the backlog holds, shedding
        // over-budget connections instead of leaving them queued (a queued
        // connection keeps the listener readable and would spin the loop).
        if fds.first().is_some_and(|p| p.revents != 0) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if conns.len() >= CONN_BUDGET {
                            rm.rejected_budget.inc();
                            let _ = stream.shutdown(Shutdown::Both);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        rm.accepted.inc();
                        rm.conns.add(1);
                        live.fetch_add(1, Ordering::Relaxed);
                        conns.push(Conn::new(stream));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break, // EMFILE-class: poll's timeout paces the retry
                }
            }
        }

        // Drain phase, in reverse so `swap_remove` never disturbs an index
        // we have yet to visit (indices below `i` keep their pollfd
        // correspondence; the index moved in from the tail was already
        // processed this pass).
        let mut ready = 0u64;
        for i in (0..conns.len()).rev() {
            if fds.get(i + 1).map_or(0, |p| p.revents) == 0 {
                continue;
            }
            ready += 1;
            let keep = match conns.get_mut(i) {
                Some(conn) => conn.drain(&mut scratch, &mut deliver),
                None => continue,
            };
            if !keep {
                let conn = conns.swap_remove(i);
                let _ = conn.stream.shutdown(Shutdown::Both);
                rm.conns.add(-1);
                live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if ready > 0 {
            rm.ready_batch.observe(ready);
        }
    }

    // Teardown: every connection the reactor still owns closes here, so no
    // fd outlives the endpoint.
    for conn in conns.drain(..) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        rm.conns.add(-1);
        live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::encode_frame;

    fn fresh_conn() -> Conn {
        // The stream is irrelevant to the state-machine tests; bind a
        // loopback pair just to have a valid object.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Conn::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap())
    }

    fn feed_all(conn: &mut Conn, bytes: &[u8], step: usize) -> (Vec<Envelope>, bool) {
        let mut out = Vec::new();
        let mut deliver = |env: Envelope| {
            out.push(env);
            true
        };
        let mut ok = true;
        for chunk in bytes.chunks(step.max(1)) {
            if !conn.feed(chunk, &mut deliver) {
                ok = false;
                break;
            }
        }
        (out, ok)
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let mut conn = fresh_conn();
        let mut wire = encode_frame(NodeId(3), b"hello reactor").unwrap();
        wire.extend_from_slice(&encode_frame(NodeId(4), b"x").unwrap());
        let (envs, ok) = feed_all(&mut conn, &wire, 1);
        assert!(ok);
        assert_eq!(envs.len(), 2);
        assert_eq!(envs[0].src, NodeId(3));
        assert_eq!(envs[0].payload, b"hello reactor");
        assert_eq!(envs[1].src, NodeId(4));
        assert_eq!(envs[1].payload, b"x");
    }

    #[test]
    fn zero_length_payload_completes_without_more_bytes() {
        let mut conn = fresh_conn();
        let wire = encode_frame(NodeId(9), &[]).unwrap();
        assert_eq!(wire.len(), FRAME_HEADER_LEN);
        let (envs, ok) = feed_all(&mut conn, &wire, 4);
        assert!(ok);
        assert_eq!(envs.len(), 1);
        assert!(envs[0].payload.is_empty());
    }

    #[test]
    fn oversized_length_prefix_kills_the_connection() {
        let mut conn = fresh_conn();
        let mut wire = vec![0u8; FRAME_HEADER_LEN];
        wire[8..].copy_from_slice(&u32::MAX.to_le_bytes());
        let (envs, ok) = feed_all(&mut conn, &wire, FRAME_HEADER_LEN);
        assert!(!ok, "corrupt header must drop the connection");
        assert!(envs.is_empty());
    }

    #[test]
    fn interleaved_frames_across_chunk_boundaries() {
        let mut conn = fresh_conn();
        let mut wire = Vec::new();
        for i in 0..32usize {
            wire.extend_from_slice(&encode_frame(NodeId(i), &vec![i as u8; i * 7]).unwrap());
        }
        for step in [1, 5, 12, 13, 64, 1000] {
            let (envs, ok) = feed_all(&mut conn, &wire, step);
            assert!(ok, "step {step}");
            assert_eq!(envs.len(), 32, "step {step}");
            for (i, env) in envs.iter().enumerate() {
                assert_eq!(env.src, NodeId(i), "step {step}");
                assert_eq!(env.payload, vec![i as u8; i * 7], "step {step}");
            }
        }
    }

    #[test]
    fn dead_mailbox_drops_the_connection() {
        let mut conn = fresh_conn();
        let wire = encode_frame(NodeId(1), b"undeliverable").unwrap();
        let mut deliver = |_env: Envelope| false;
        assert!(!conn.feed(&wire, &mut deliver));
    }
}
