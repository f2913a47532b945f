//! The full Prio pipeline (Figure 1 / Appendix H of the paper):
//!
//! 1. **Upload** — each client AFE-encodes its private value, splits the
//!    encoding and a SNIP proof into one share per server (PRG-compressed:
//!    all but one share is a 32-byte seed, Appendix I), and sends each
//!    server its share over a sealed channel.
//! 2. **Validate** — the servers jointly verify the SNIP (two broadcast
//!    rounds, four field elements per server) and reject malformed
//!    submissions.
//! 3. **Aggregate** — each server adds the truncated encoding share of
//!    every *accepted* submission into its local accumulator.
//! 4. **Publish** — the servers reveal their accumulators; their sum is the
//!    sum of encodings, which the AFE decoder turns into the statistic.
//!
//! Steps 2 and 3 are one sans-I/O core, [`verify`]: plain functions over
//! one server's view of one batch (unpack, round 1, combine, round 2,
//! decide, accumulate). Two drivers run it:
//!
//! * [`cluster::Cluster`] — a deterministic, single-threaded simulation of
//!   `s` servers that runs the core for every server and hands the round
//!   vectors over in memory, with exact byte accounting. Used by tests,
//!   examples, and the per-submission cost figures.
//! * [`deployment::Deployment`] — `s` real server threads, each running
//!   [`server_loop::run_server_loop`], which adds only the I/O around the
//!   core: framed messages over a pluggable [`prio_net`] transport
//!   (in-process sim fabric or real localhost TCP sockets, selected by
//!   [`DeploymentConfig::transport`]), gathers, deadlines and retry. Used
//!   by the throughput experiments (Figures 4 and 5, Table 9); the
//!   multi-process `prio-node` runs the same loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod driver;
pub mod deployment;
pub mod messages;
pub mod server;
pub mod server_loop;
pub mod verify;

pub use client::{Client, ClientConfig, ClientSubmission, ShareBlob};
pub use cluster::Cluster;
pub use deployment::{Deployment, DeploymentConfig, DeploymentReport};
pub use driver::{BatchDriver, BatchOutcome, DriverError};
pub use server::{Server, ServerConfig};
pub use server_loop::{run_server_loop, FramePolicy, ServerLoopOptions, ServerLoopReport};
pub use verify::PhaseTimings;
