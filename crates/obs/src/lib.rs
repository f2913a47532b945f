//! `prio_obs` — zero-dependency observability for the Prio
//! reproduction: a process-wide lock-free metrics registry, structured
//! leveled events with rate limiting, and scoped phase spans.
//!
//! A running `prio-node` is a long-lived service that anyone can feed
//! arbitrary bytes (the paper's §2/§7 deployment story), so its telemetry
//! has to satisfy two constraints at once: the hot path must never take a
//! lock or do I/O, and nothing an adversary controls may amplify into
//! output volume. The split here follows from that:
//!
//! - **Counters/gauges/histograms** ([`Registry`]) absorb per-frame and
//!   per-submission facts. Updates are single relaxed atomics on handles
//!   resolved once at setup. Snapshots travel the control plane (see
//!   `GetMetrics` in `prio_net::control`), merge across nodes, and diff
//!   across benchmark phases.
//! - **Events** ([`Events`]) narrate state changes for an operator. Every
//!   emission passes a per-`(target, name)` token bucket, so a flood of
//!   identical events degrades into a counter plus an occasional
//!   "suppressed N" line — never a stderr denial-of-service.
//! - **Spans** ([`Span`]) time a region once and feed both a latency
//!   histogram and the caller's wall-clock accumulator.
//!
//! # Naming conventions
//!
//! - Metric names are `snake_case`, prefixed with the subsystem
//!   (`net_…`, `server_…`), and listed as constants in [`names`] — never
//!   built with `format!`.
//! - Counters end in `_total`; latency histograms end in `_us` (whole
//!   microseconds); size histograms name their unit (`_bytes`) or count
//!   plain items (`server_batch_size`).
//! - Label keys and values are `&'static str` **by type**: a label value
//!   must come from code (a `reason`, a `phase`), never from payload
//!   data, peer identifiers, or anything else of unbounded cardinality.
//!   Unbounded detail goes in an event message, which is rate-limited,
//!   or nowhere.
//!
//! # Event vs counter vs span
//!
//! If it can happen per frame, it is a counter; emit an event alongside
//! it only at `warn`+ and only through the rate limiter. If it happens
//! per process lifecycle (startup, peer table installed, shutdown), it is
//! an `info` event. If it is a *timed region of a batch's life* whose
//! cause lives on another node (a protocol phase, a wait on a peer's
//! frame), it is a trace span ([`TraceRecorder`]): spans carry identity
//! and parentage so cross-node timelines can be reassembled, but they
//! occupy bounded ring slots — at most one per `(batch, node, kind,
//! phase)` — and overflow into `trace_spans_dropped_total`, never into
//! RAM. When in doubt: counters answer "how many", events answer "what
//! happened", spans answer "where did this batch spend its time, waiting
//! for whom" — and only counters may be adversary-paced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod span;
pub mod trace;

pub use event::{CaptureSink, Event, Events, JsonSink, Level, MockClock, RateLimit, Sink, StderrSink};
pub use metrics::{
    bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, Labels, Registry, Sample, Snapshot,
    Value, NUM_BUCKETS, SNAPSHOT_SCHEMA,
};
pub use span::Span;
pub use trace::{TraceCtx, TraceRecorder};

use std::sync::Arc;

/// The observability bundle threaded through subsystem options: one
/// registry to count into, one event hub to narrate through. Cheap to
/// clone; all state is shared.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    events: Events,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").finish_non_exhaustive()
    }
}

impl Obs {
    /// The process-wide bundle: the global registry plus rate-limited
    /// human-readable events on stderr at `warn` level.
    pub fn global() -> Obs {
        static EVENTS: std::sync::OnceLock<Events> = std::sync::OnceLock::new();
        Obs {
            registry: Registry::global().clone(),
            events: EVENTS
                .get_or_init(|| Events::new(Arc::new(StderrSink), Level::Warn))
                .clone(),
        }
    }

    /// An isolated bundle over the given parts (tests pin a fresh
    /// registry and a [`CaptureSink`] here).
    pub fn new(registry: Arc<Registry>, events: Events) -> Obs {
        Obs { registry, events }
    }

    /// An isolated bundle that counts into a fresh registry and drops all
    /// events (benchmark baselines, unit tests that don't assert events).
    pub fn disconnected() -> Obs {
        struct NullSink;
        impl Sink for NullSink {
            fn emit(&self, _event: &Event) {}
        }
        Obs {
            registry: Arc::new(Registry::new()),
            events: Events::new(Arc::new(NullSink), Level::Error),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The event hub.
    pub fn events(&self) -> &Events {
        &self.events
    }
}

impl Default for Obs {
    /// Defaults to the process-wide bundle, so `..Default::default()`
    /// option structs pick up real observability unless a test overrides
    /// it.
    fn default() -> Obs {
        Obs::global()
    }
}

/// The registered metric names, in one place so exposition consumers,
/// instrumentation sites, and tests cannot drift apart.
pub mod names {
    /// Frames successfully handed to the transport, per process.
    pub const NET_FRAMES_SENT: &str = "net_frames_sent_total";
    /// Payload bytes successfully handed to the transport.
    pub const NET_BYTES_SENT: &str = "net_bytes_sent_total";
    /// Frames received off the transport.
    pub const NET_FRAMES_RECEIVED: &str = "net_frames_received_total";
    /// Payload bytes received off the transport.
    pub const NET_BYTES_RECEIVED: &str = "net_bytes_received_total";
    /// Failed sends, labelled `reason = unknown_node | closed | too_large`.
    pub const NET_SEND_FAILURES: &str = "net_send_failures_total";
    /// TCP bind retries taken while racing for a listen address.
    pub const NET_BIND_RETRIES: &str = "net_bind_retries_total";
    /// Faults injected by a `FaultPlan`, labelled `kind = drop | delay |
    /// duplicate | truncate | disconnect`.
    pub const NET_FAULTS_INJECTED: &str = "net_faults_injected_total";
    /// Retries taken by a `RetryPolicy`, labelled `op = <operation>`.
    pub const RETRY_ATTEMPTS: &str = "retry_attempts_total";

    /// Live inbound connections held by TCP endpoints' reactors (gauge).
    pub const NET_REACTOR_CONNS: &str = "net_reactor_conns";
    /// Inbound connections a reactor has accepted.
    pub const NET_REACTOR_ACCEPTED: &str = "net_reactor_accepted_total";
    /// Inbound connections a reactor refused, labelled `reason = budget`.
    pub const NET_REACTOR_REJECTED: &str = "net_reactor_rejected_total";
    /// Times a reactor's poll(2) call returned (readiness or timeout).
    pub const NET_REACTOR_POLL_WAKEUPS: &str = "net_reactor_poll_wakeups_total";
    /// Readable sockets per poll wakeup (item-count histogram; only
    /// wakeups that found at least one ready connection are observed).
    pub const NET_REACTOR_READY_BATCH: &str = "net_reactor_ready_batch";

    /// Frames the server loop discarded, labelled `reason = unknown_sender
    /// | undecodable | wrong_length | stash_overflow | unexpected_kind`.
    pub const SERVER_FRAMES_DROPPED: &str = "server_frames_dropped_total";
    /// Client submissions that verified and were aggregated.
    pub const SERVER_SUBMISSIONS_ACCEPTED: &str = "server_submissions_accepted_total";
    /// Client submissions discarded, labelled `reason = malformed | verify`.
    pub const SERVER_SUBMISSIONS_REJECTED: &str = "server_submissions_rejected_total";
    /// Verification batch sizes (item-count histogram).
    pub const SERVER_BATCH_SIZE: &str = "server_batch_size";
    /// Per-phase latency histogram (µs), labelled `phase = unpack | round1
    /// | round2 | publish`.
    pub const SERVER_PHASE_US: &str = "server_phase_us";
    /// Current depth of the lenient-mode reorder stash (gauge).
    pub const SERVER_STASH_DEPTH: &str = "server_stash_depth";
    /// Duplicate client submissions discarded by the idempotent-ingest
    /// seen-set (a duplicated frame must not double-count).
    pub const SERVER_FRAMES_DEDUPED: &str = "server_frames_deduped_total";
    /// Batches a server abandoned mid-protocol because a round deadline
    /// expired (graceful degradation instead of a wedged loop).
    pub const SERVER_BATCHES_ABANDONED: &str = "server_batches_abandoned_total";
    /// Batch outcomes observed by the submission driver, labelled
    /// `outcome = complete | degraded | aborted`.
    pub const DRIVER_BATCH_OUTCOME: &str = "driver_batch_outcome_total";
    /// Trace spans dropped by a recorder's fixed-size ring once it was
    /// full (the overflow policy is drop-and-count, keep-first-N).
    pub const TRACE_SPANS_DROPPED: &str = "trace_spans_dropped_total";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn obs_bundle_is_cloneable_and_shares_state() {
        let obs = Obs::disconnected();
        let clone = obs.clone();
        obs.registry().counter("c_total", &[]).add(2);
        clone.registry().counter("c_total", &[]).add(3);
        assert_eq!(obs.registry().snapshot().counter("c_total", &[]), Some(5));
    }

    #[test]
    fn multithreaded_hammering_yields_exact_final_snapshot() {
        let registry = Arc::new(Registry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let registry = registry.clone();
                thread::spawn(move || {
                    let c = registry.counter("hammer_total", &[]);
                    let g = registry.gauge("hammer_depth", &[]);
                    let h = registry.histogram("hammer_us", &[]);
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.add(1);
                        g.add(-1);
                        h.observe(t as u64 * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
        let snap = registry.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counter("hammer_total", &[]), Some(total));
        assert_eq!(snap.gauge("hammer_depth", &[]), Some(0));
        let h = snap.histogram("hammer_us", &[]).expect("histogram registered");
        assert_eq!(h.count, total);
        // Sum of 0..THREADS*PER_THREAD is exact under concurrency.
        assert_eq!(h.sum, total * (total - 1) / 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), total);
    }

    #[test]
    fn global_obs_is_one_shared_instance() {
        let a = Obs::global();
        let b = Obs::default();
        a.registry().counter("global_smoke_total", &[]).inc();
        assert!(b
            .registry()
            .snapshot()
            .counter("global_smoke_total", &[])
            .is_some());
    }
}
