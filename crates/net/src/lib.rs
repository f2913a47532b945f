//! Pluggable network transports and wire encoding for the Prio server
//! cluster.
//!
//! The paper's evaluation runs five servers in five Amazon EC2 data
//! centers. This crate abstracts the fabric those servers talk over behind
//! the [`Transport`] trait — protocol code holds an [`Endpoint`] and never
//! learns which backend carries its bytes — with two implementations:
//!
//! * [`SimNetwork`] ([`TransportKind::Sim`]) — an in-process
//!   message-passing fabric over std channels. Deterministic and
//!   syscall-free, with the two properties the evaluation actually
//!   measures: **exact byte accounting** per node (Figure 6 reports
//!   per-server bytes transferred per client submission) and **real
//!   concurrency** (each simulated server runs on its own OS thread, so
//!   coordination costs are exercised for Figures 4 and 5). Use it for
//!   unit tests and CPU-bound measurement, where kernel noise would only
//!   blur the numbers.
//! * [`TcpTransport`] ([`TransportKind::Tcp`]) — every endpoint is a real
//!   localhost TCP listener and every message crosses the kernel loopback
//!   stack as a length-prefixed frame. Use it to validate the wire
//!   protocol end-to-end (framing, connection interleaving, shutdown) and
//!   as the stepping stone to multi-process/multi-host deployment: only
//!   the address registry is in-process.
//!
//! Both backends account *sent* traffic identically ([`NetStats`]: payload
//! bytes and message counts per node, recorded only on successful sends),
//! so bandwidth numbers are comparable across them. Two caveats are
//! inherent to real sockets: on TCP, `bytes_received` is counted as the
//! destination's reader drains the socket (eventually consistent, unlike
//! the sim fabric's synchronous count), and a successful send means the
//! kernel accepted the frame — a peer that is torn down mid-flight may
//! never read it, where the sim fabric would have reported
//! [`SendError::Closed`]. An optional per-link latency models WAN round
//! trips on either fabric. Message framing is
//! explicit ([`wire`]) — every byte that would cross a socket is
//! serialized for real, so the byte counters measure honest wire sizes
//! rather than in-memory struct sizes.
//!
//! # Inbound TCP I/O
//!
//! Every TCP endpoint serves its inbound side with one readiness-driven
//! thread (the `reactor` module): the listener and every accepted
//! connection sit behind a single `poll(2)` loop over non-blocking
//! sockets, each connection decodes frames incrementally, and a bounded
//! connection budget sheds floods instead of exhausting the process. That
//! is the shape the paper's deployment needs — servers fielding
//! submissions from very many short-lived client connections — and it
//! delivers into a mailbox with the same byte accounting as the sim
//! fabric, so everything above the socket is fabric-blind. The `fig4/conn_sweep`
//! bench group measures its accept rate under connection churn.
//!
//! # Platforms
//!
//! The workspace targets unix: the reactor's `poll(2)` binding is
//! unix-only, and building this crate anywhere else is a compile error
//! rather than a silently different I/O path.
//!
//! `unsafe` is denied crate-wide except for the reactor's ~10-line
//! `poll(2)` FFI shim, the workspace's only unsafe block (there are no
//! crates.io dependencies to provide it).

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!(
    "prio_net targets unix only: the TCP reactor drives inbound connections with poll(2)"
);

pub mod control;
pub mod faults;
pub(crate) mod reactor;
pub mod sim;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultyTransport, RetryPolicy, Retryable};
pub use sim::{SimEndpoint, SimNetwork};
pub use tcp::{BindError, TcpEndpoint, TcpTransport};
pub use transport::{
    Endpoint, Envelope, NetStats, NodeId, RecvError, RecvTimeoutError, SendError, Transport,
    TransportKind,
};
