//! The transport-agnostic server event loop, shared by every deployment
//! flavour.
//!
//! [`run_server_loop`] is the I/O half of one server's side of the batched
//! verification protocol. The protocol steps themselves (unpack, round 1,
//! combine, round 2, decide, accumulate) live in [`crate::verify`], the
//! sans-I/O core that [`Cluster`](crate::Cluster) also runs; this loop only
//! moves their vectors as frames, and owns what that takes: gathers, the
//! out-of-phase stash, ingest dedup, gather deadlines, send retry and
//! trace spans. The in-process threaded [`Deployment`](crate::Deployment)
//! runs it on `s` threads over one shared fabric, and the `prio-node`
//! binary of the multi-process `prio_proc` subsystem runs the *same
//! function* over a per-process [`TcpTransport`](prio_net::TcpTransport)
//! whose peers were registered through the control plane, so the two
//! execution fabrics stay protocol-identical.
//!
//! The loop owns nothing: it borrows the [`Server`] (so the caller can
//! read accumulators and counters afterwards) and the [`Endpoint`], and
//! returns a [`ServerLoopReport`] with per-phase timings and the
//! verification-phase byte count (sampled when the publish request
//! arrives — the Figure-6 quantity).

use crate::messages::{blob_from_bytes, pack_decisions, unpack_decisions, ServerMsg};
use crate::server::Server;
use crate::verify::{self, Batch, PhaseClock, PhaseTimings};
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_net::{Endpoint, NodeId, RecvTimeoutError, RetryPolicy};
use prio_obs::trace::{SpanKind, TraceRecorder};
use prio_obs::{names, Obs, Span, TraceCtx};
use prio_snip::Round1Msg;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Event target for everything this module narrates.
const TARGET: &str = "core::server_loop";

/// The loop's metric handles, resolved once per [`run_server_loop`] call so
/// the per-frame paths touch only pre-registered atomics. Also carries the
/// event hub: every stderr line the loop used to print unconditionally now
/// rides the rate limiter here.
pub(crate) struct LoopMetrics {
    pub(crate) drop_unknown_sender: prio_obs::Counter,
    pub(crate) drop_undecodable: prio_obs::Counter,
    pub(crate) drop_wrong_length: prio_obs::Counter,
    pub(crate) drop_stash_overflow: prio_obs::Counter,
    pub(crate) drop_unexpected_kind: prio_obs::Counter,
    pub(crate) accepted: prio_obs::Counter,
    pub(crate) rejected_malformed: prio_obs::Counter,
    pub(crate) rejected_verify: prio_obs::Counter,
    pub(crate) deduped: prio_obs::Counter,
    pub(crate) batches_abandoned: prio_obs::Counter,
    pub(crate) batch_size: prio_obs::Histogram,
    pub(crate) stash_depth: prio_obs::Gauge,
    pub(crate) events: prio_obs::Events,
}

impl LoopMetrics {
    pub(crate) fn resolve(obs: &Obs) -> LoopMetrics {
        let reg = obs.registry();
        LoopMetrics {
            drop_unknown_sender: reg
                .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "unknown_sender")]),
            drop_undecodable: reg
                .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "undecodable")]),
            drop_wrong_length: reg
                .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "wrong_length")]),
            drop_stash_overflow: reg
                .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "stash_overflow")]),
            drop_unexpected_kind: reg
                .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "unexpected_kind")]),
            accepted: reg.counter(names::SERVER_SUBMISSIONS_ACCEPTED, &[]),
            rejected_malformed: reg
                .counter(names::SERVER_SUBMISSIONS_REJECTED, &[("reason", "malformed")]),
            rejected_verify: reg
                .counter(names::SERVER_SUBMISSIONS_REJECTED, &[("reason", "verify")]),
            deduped: reg.counter(names::SERVER_FRAMES_DEDUPED, &[]),
            batches_abandoned: reg.counter(names::SERVER_BATCHES_ABANDONED, &[]),
            batch_size: reg.histogram(names::SERVER_BATCH_SIZE, &[]),
            stash_depth: reg.gauge(names::SERVER_STASH_DEPTH, &[]),
            events: obs.events().clone(),
        }
    }
}

/// What the loop does with a frame it cannot decode, whose sender is not
/// part of the deployment, or whose round vector does not fit the batch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FramePolicy {
    /// Panic. Right for in-process deployments, where every sender is
    /// trusted protocol code and an undecodable message is a bug that
    /// should fail loudly instead of becoming an undiagnosable hang.
    Strict,
    /// Count the drop and emit a rate-limited warn event. Right for a
    /// network-facing `prio-node` process: anyone can connect to its data
    /// socket, and a garbage frame from a stranger must not crash
    /// verification for everyone else — nor flood stderr: every drop lands
    /// in `server_frames_dropped_total{reason=...}`, and only a trickle of
    /// warn events narrates it. The out-of-phase stash is also bounded in
    /// this mode so a frame flood cannot grow node memory without limit.
    ///
    /// Known limitation: the frame header's sender id is *not
    /// authenticated* — a local attacker who forges a known peer's id and
    /// a well-formed message can still disturb a batch (availability, not
    /// privacy: shares remain secret and tampered submissions are still
    /// rejected by the SNIP). Binding sender identity cryptographically
    /// (e.g. `prio_crypto::sealed` channels per link) is tracked in the
    /// ROADMAP.
    Lenient,
}

/// Options for one run of the server loop.
#[derive(Clone, Debug)]
pub struct ServerLoopOptions {
    /// Worker threads for batched round-1 verification (1 = inline).
    pub verify_threads: usize,
    /// Undecodable-frame handling.
    pub frame_policy: FramePolicy,
    /// Where the loop counts and narrates. Defaults to the process-wide
    /// bundle; tests pin [`Obs::new`] with a fresh registry and a capture
    /// sink to assert on exactly what one loop did.
    pub obs: Obs,
    /// Deadline on every mid-batch gather (round 1/2 vectors, the
    /// combined vector, decisions). `None` waits forever — correct on a
    /// perfect fabric, where a missing message means a peer bug that
    /// should hang visibly. Under fault injection (or any real WAN
    /// deployment) a deadline lets the loop *abandon* a wedged batch —
    /// no server accumulates it, so cross-server aggregate consistency
    /// holds on the batches that do complete — instead of stalling the
    /// whole deployment on one lost frame.
    pub batch_deadline: Option<std::time::Duration>,
    /// Retry policy for the loop's data-plane sends. Defaults to
    /// [`RetryPolicy::none`]: on a perfect fabric a failed send means
    /// the deployment is tearing down. Chaos deployments install a real
    /// policy so an injected drop ([`prio_net::SendError::Closed`]) is
    /// retransmitted instead of killing the loop.
    pub retry: RetryPolicy,
    /// Deadline on the *idle* receive between batches. `None` (the
    /// default) waits forever, which is right on a perfect fabric: the
    /// driver's `Shutdown` frame always arrives, so the loop never needs
    /// a timer to exit. Under fault injection that frame can be
    /// permanently dropped, and a server blocked in its idle receive
    /// would wedge the deployment's teardown join — so chaos deployments
    /// set a bound comfortably above the driver's worst inter-batch gap
    /// and treat its expiry as an orderly exit.
    pub idle_deadline: Option<std::time::Duration>,
    /// Span recorder for distributed per-batch tracing. `None` (the
    /// default) records nothing and keeps every data-plane frame
    /// byte-identical to the untraced encoding; with a recorder, the
    /// loop records unpack/round1/round2/publish/gather-wait spans and
    /// stamps outgoing protocol frames with a `TraceCtx` suffix so
    /// peers can parent their waits on the spans that fed them.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for ServerLoopOptions {
    fn default() -> Self {
        ServerLoopOptions {
            verify_threads: 1,
            frame_policy: FramePolicy::Strict,
            obs: Obs::global(),
            batch_deadline: None,
            retry: RetryPolicy::none(),
            idle_deadline: None,
            trace: None,
        }
    }
}

/// What one server-loop run observed, for the caller's report.
#[derive(Copy, Clone, Debug, Default)]
pub struct ServerLoopReport {
    /// Whether the loop exited through an orderly [`ServerMsg::Shutdown`]
    /// (`false` means the fabric closed under it).
    pub clean: bool,
    /// This endpoint's sent-byte counter when the publish request arrived —
    /// the verification-phase traffic, before the accumulator reveal.
    /// Zero if no publish request was seen.
    pub verify_bytes_sent: u64,
    /// Frames this loop discarded (unknown sender, undecodable, stash
    /// overflow, unexpected kind). Counted locally per loop run — the
    /// registry's `server_frames_dropped_total` aggregates across every
    /// loop in the process, which is the wrong denominator for a per-node
    /// report when several servers share one process.
    pub frames_dropped: u64,
    /// Duplicate `ClientBatch` frames the idempotent-ingest seen-set
    /// discarded (a duplicated upload must not double-count).
    pub frames_deduped: u64,
    /// Batches abandoned because a mid-batch gather deadline expired.
    pub batches_abandoned: u64,
    /// Wall-clock spent in each verification phase.
    pub timings: PhaseTimings,
}

/// Ceiling on stashed out-of-phase messages under [`FramePolicy::Lenient`]:
/// an honest deployment stashes at most a handful of messages per batch, so
/// anything past this is an injection flood and gets dropped instead of
/// growing node memory without bound. Strict (in-process) deployments keep
/// the unbounded stash — every sender there is trusted protocol code.
const MAX_LENIENT_STASH: usize = 4096;

/// Ceiling on the idempotent-ingest seen-set: remembers the last this many
/// batch context seeds. A duplicated frame arrives promptly (fault
/// injection or a lower-layer retransmit), so a window thousands of
/// batches deep is far beyond any realistic duplication horizon.
const MAX_SEEN_BATCHES: usize = 4096;

/// A received message: its sender, the message, and the trace context its
/// frame carried.
type Received<F> = (NodeId, ServerMsg<F>, Option<TraceCtx>);

/// Why a receive or a batch ended early.
enum Interrupt {
    /// The loop cannot go on: the fabric closed, a send failed for good,
    /// or the batch's verification context could not be derived.
    Stop,
    /// A gather deadline expired first.
    Deadline,
}

/// The batch in flight: its id (the context seed), its size, and the
/// deadline on its gathers.
struct InFlight {
    ctx: u64,
    count: usize,
    deadline: Option<Instant>,
}

/// The loop's receive side: the endpoint, the out-of-phase stash, the
/// frame policy with the senders it admits, and the tally of dropped
/// frames for the report.
///
/// The sim fabric funnels every sender into one queue, so messages arrive
/// in global send order — but over TCP each sender has its own connection
/// and there is no cross-sender ordering: the driver's `PublishRequest` or
/// next `ClientBatch` can overtake the leader's `Decisions`, and a
/// non-leader's `Round1` can overtake the driver's `ClientBatch` at the
/// leader. The stash makes the server loop transport-agnostic: a message
/// for a later phase waits its turn instead of tripping a protocol panic.
/// Stash entries carry the sender: gathers are *source-aware*, so a
/// fault-duplicated round vector from one peer can never be misattributed
/// as another peer's contribution.
struct Inbox<'a, F: FieldElement> {
    ep: &'a Endpoint,
    stash: VecDeque<Received<F>>,
    policy: FramePolicy,
    known: Vec<NodeId>,
    metrics: &'a LoopMetrics,
    dropped: u64,
}

impl<F: FieldElement> Inbox<'_, F> {
    /// Receives the next message matching `want`, stashing any other valid
    /// message for a later phase; an optional `deadline` bounds the wait.
    ///
    /// Under [`FramePolicy::Lenient`], frames from senders outside the
    /// deployment and frames that fail to decode are counted in
    /// `server_frames_dropped_total{reason=...}`, narrated through
    /// rate-limited warn events, and dropped — the node-process hardening
    /// path. A garbage-frame flood moves counters, not stderr.
    fn recv(
        &mut self,
        deadline: Option<Instant>,
        want: impl Fn(NodeId, &ServerMsg<F>) -> bool,
    ) -> Result<Received<F>, Interrupt> {
        if let Some(pos) = self.stash.iter().position(|(src, m, _)| want(*src, m)) {
            if let Some(found) = self.stash.remove(pos) {
                self.metrics.stash_depth.set(self.stash.len() as i64);
                return Ok(found);
            }
        }
        let metrics = self.metrics;
        loop {
            let env = match deadline {
                None => self.ep.recv().map_err(|_| Interrupt::Stop)?,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Interrupt::Deadline);
                    }
                    match self.ep.recv_timeout(deadline - now) {
                        Ok(env) => env,
                        Err(RecvTimeoutError::Timeout) => return Err(Interrupt::Deadline),
                        Err(RecvTimeoutError::Closed) => return Err(Interrupt::Stop),
                    }
                }
            };
            if self.policy == FramePolicy::Lenient && !self.known.contains(&env.src) {
                self.drop_frame(
                    &metrics.drop_unknown_sender,
                    "frame_dropped_unknown_sender",
                    format!(
                        "dropping frame from unknown sender {:?} ({} bytes)",
                        env.src,
                        env.payload.len()
                    ),
                );
                continue;
            }
            let (msg, ctx) = match from_traced_bytes::<ServerMsg<F>>(&env.payload) {
                Ok(pair) => pair,
                // An undecodable payload from a deployment member is a
                // protocol violation, not noise: honest peers never produce
                // one. The sender id is trivially forgeable, so even a
                // "known" source may be a stranger.
                Err(e) => {
                    self.drop_frame(
                        &metrics.drop_undecodable,
                        "frame_dropped_undecodable",
                        format!("undecodable frame from {:?}: {e}", env.src),
                    );
                    continue;
                }
            };
            if want(env.src, &msg) {
                return Ok((env.src, msg, ctx));
            }
            if self.policy == FramePolicy::Lenient && self.stash.len() >= MAX_LENIENT_STASH {
                self.drop_frame(
                    &metrics.drop_stash_overflow,
                    "frame_dropped_stash_overflow",
                    format!(
                        "stash full ({MAX_LENIENT_STASH}); dropping out-of-phase {} message",
                        msg_kind(&msg)
                    ),
                );
                continue;
            }
            self.stash.push_back((env.src, msg, ctx));
            metrics.stash_depth.set(self.stash.len() as i64);
        }
    }

    /// Gathers one `len`-entry vector of `kind` for the batch in flight
    /// from each sender in `from` (in arrival order), plus the earliest
    /// sender span the frames carried — the gather-wait span's parent,
    /// deterministic for a deterministic frame set.
    ///
    /// A vector of any other length is a protocol violation or a forgery:
    /// it takes the same [`FramePolicy`] branch as an undecodable frame and
    /// never stands in for its sender's contribution.
    fn gather<T>(
        &mut self,
        from: &[NodeId],
        at: &InFlight,
        kind: &'static str,
        len: usize,
        entries: fn(ServerMsg<F>) -> Option<Vec<T>>,
    ) -> Result<(Vec<Vec<T>>, Option<u64>), Interrupt> {
        let mut pending = from.to_vec();
        let mut vectors = Vec::with_capacity(from.len());
        let mut parent: Option<u64> = None;
        while !pending.is_empty() {
            let (src, msg, tctx) = self.recv(at.deadline, |src, m| {
                pending.contains(&src) && msg_kind(m) == kind && batch_of(m) == Some(at.ctx)
            })?;
            let Some(vector) = entries(msg) else { continue };
            if vector.len() != len {
                let metrics = self.metrics;
                self.drop_frame(
                    &metrics.drop_wrong_length,
                    "frame_dropped_wrong_length",
                    format!(
                        "{kind} vector of length {} from {src:?}; the batch needs {len}",
                        vector.len()
                    ),
                );
                continue;
            }
            pending.retain(|&p| p != src);
            if let Some(c) = tctx {
                parent = Some(parent.map_or(c.parent, |p| p.min(c.parent)));
            }
            vectors.push(vector);
        }
        Ok((vectors, parent))
    }

    /// The [`FramePolicy`] branch for a frame the loop cannot use. Strict
    /// panics: in an in-process deployment silently dropping it would turn
    /// a missing gather message into an undiagnosable hang. Lenient counts
    /// the drop in `counter` and the report, narrates it through a
    /// rate-limited warn event, and keeps serving.
    fn drop_frame(&mut self, counter: &prio_obs::Counter, event: &'static str, detail: String) {
        match self.policy {
            // lint:allow(no-panic, Strict is the in-process mode where every sender is trusted protocol code; a bad frame is a local bug that must fail loudly)
            FramePolicy::Strict => panic!("{detail}"),
            FramePolicy::Lenient => {
                counter.inc();
                self.dropped += 1;
                self.metrics.events.warn(TARGET, event, detail);
            }
        }
    }

    /// Clears every mid-protocol round message left in the stash at a
    /// batch boundary: stale vectors from a finished (or abandoned) batch
    /// must not be mistaken for the next batch's traffic. The boundary is
    /// sufficient, because the driver paces batches on the previous
    /// batch's decisions (or its deadline), after which any straggling or
    /// fault-duplicated round frame is by definition stale.
    fn clear_round_stash(&mut self) {
        self.stash.retain(|(_, m, _)| batch_of(m).is_none());
        self.metrics.stash_depth.set(self.stash.len() as i64);
    }
}

/// Short tag for log lines and gathers (avoids dumping whole field vectors
/// to stderr).
fn msg_kind<F: FieldElement>(msg: &ServerMsg<F>) -> &'static str {
    match msg {
        ServerMsg::Round1 { .. } => "Round1",
        ServerMsg::Round1Combined { .. } => "Round1Combined",
        ServerMsg::Round2 { .. } => "Round2",
        ServerMsg::Decisions { .. } => "Decisions",
        ServerMsg::PublishRequest => "PublishRequest",
        ServerMsg::Accumulator(_) => "Accumulator",
        ServerMsg::ClientBatch { .. } => "ClientBatch",
        ServerMsg::Shutdown => "Shutdown",
    }
}

/// The batch a mid-protocol round message belongs to; `None` for every
/// other kind.
fn batch_of<F: FieldElement>(msg: &ServerMsg<F>) -> Option<u64> {
    match msg {
        ServerMsg::Round1 { ctx, .. }
        | ServerMsg::Round1Combined { ctx, .. }
        | ServerMsg::Round2 { ctx, .. }
        | ServerMsg::Decisions { ctx, .. } => Some(*ctx),
        _ => None,
    }
}

/// One run of the loop: the server and its place in the deployment, the
/// options, and what the report accumulates.
struct Node<'a, F: FieldElement, A: Afe<F>> {
    server: &'a mut Server<F, A>,
    ids: &'a [NodeId],
    driver: NodeId,
    /// This server's index; `0` is the leader.
    index: usize,
    opts: &'a ServerLoopOptions,
    metrics: &'a LoopMetrics,
    inbox: Inbox<'a, F>,
    clock: PhaseClock,
    /// Idempotent ingest: the most recent batch context seeds, so a
    /// duplicated `ClientBatch` frame (fault injection, driver
    /// retransmit, a lower layer replaying) is discarded instead of
    /// double-counted. The driver derives one fresh seed per batch, so
    /// equal seed ⇔ same batch.
    seen: HashSet<u64>,
    seen_order: VecDeque<u64>,
    report: ServerLoopReport,
}

impl<F: FieldElement, A: Afe<F>> Node<'_, F, A> {
    fn serve(&mut self) {
        loop {
            let driver = self.driver;
            let idle = self.opts.idle_deadline.map(|d| Instant::now() + d);
            // Phase-entry messages are the driver's alone: a server id (or
            // a forged one) carrying a ClientBatch/PublishRequest/Shutdown
            // must not steer the loop.
            let Ok((_, msg, batch_ctx)) = self.inbox.recv(idle, |src, m| {
                src == driver
                    && matches!(
                        m,
                        ServerMsg::ClientBatch { .. }
                            | ServerMsg::PublishRequest
                            | ServerMsg::Shutdown
                    )
            }) else {
                return;
            };
            match msg {
                ServerMsg::ClientBatch {
                    ctx_seed,
                    labels,
                    blobs,
                } => {
                    if !self.first_sight(ctx_seed) {
                        continue;
                    }
                    // The driver's frame carries its batch-root span id.
                    let root = batch_ctx.map_or(0, |c| c.parent);
                    match self.verify_batch(ctx_seed, &labels, &blobs, root) {
                        Ok(()) => {}
                        Err(Interrupt::Deadline) => self.abandon_batch(),
                        Err(Interrupt::Stop) => return,
                    }
                }
                ServerMsg::PublishRequest => {
                    if self.publish().is_err() {
                        return;
                    }
                }
                ServerMsg::Shutdown => {
                    self.report.clean = true;
                    return;
                }
                // recv only returns the three phase-entry messages matched
                // above; anything else here means the match filter and this
                // arm drifted apart. Drop the message and keep serving.
                other => {
                    self.metrics.drop_unexpected_kind.inc();
                    self.inbox.dropped += 1;
                    self.metrics.events.warn(
                        TARGET,
                        "frame_dropped_unexpected_kind",
                        format!(
                            "unexpected {} message at server {}; dropping",
                            msg_kind(&other),
                            self.index
                        ),
                    );
                }
            }
        }
    }

    /// Whether `ctx_seed` names a batch this loop has not ingested yet;
    /// records it if so.
    fn first_sight(&mut self, ctx_seed: u64) -> bool {
        if !self.seen.insert(ctx_seed) {
            self.metrics.deduped.inc();
            self.report.frames_deduped += 1;
            self.metrics.events.warn(
                TARGET,
                "client_batch_deduped",
                format!("duplicate ClientBatch (ctx_seed {ctx_seed}); already processed"),
            );
            return false;
        }
        self.seen_order.push_back(ctx_seed);
        if self.seen_order.len() > MAX_SEEN_BATCHES {
            if let Some(evicted) = self.seen_order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }

    /// Runs one batch through the verification core. A deadline expiry in
    /// any gather returns [`Interrupt::Deadline`] before anything is
    /// accumulated; every server abandons symmetrically (the leader never
    /// sent `Decisions`, so non-leaders time out too), which keeps the
    /// accepted-subset aggregates bit-identical across servers.
    fn verify_batch(
        &mut self,
        ctx_seed: u64,
        labels: &[u64],
        blobs: &[Vec<u8>],
        root: u64,
    ) -> Result<(), Interrupt> {
        let deadline = self.opts.batch_deadline.map(|d| Instant::now() + d);
        let ctx = self.server.make_context(ctx_seed).map_err(|e| {
            self.metrics.events.error(
                TARGET,
                "context_derivation_failed",
                format!("cannot derive verification context: {e:?}"),
            );
            Interrupt::Stop
        })?;
        let count = blobs.len();
        self.clock.timings.submissions += count as u64;
        self.metrics.batch_size.observe(count as u64);

        // A blob that fails to parse — or has no label, possible on a
        // forged batch — fails locally and is voted "reject".
        let parsed = blobs.iter().enumerate().map(|(j, bytes)| {
            let label = *labels.get(j)?;
            Some((blob_from_bytes::<F>(bytes).ok()?, label))
        });
        let t = self.now();
        let shares = verify::unpack(self.server, parsed, &mut self.clock);
        let unpack_span = self.span(ctx_seed, root, SpanKind::Unpack, "", t);
        let t = self.now();
        let threads = self.opts.verify_threads;
        let (batch, round1) = verify::round1(self.server, &ctx, shares, threads, &mut self.clock);
        let round1_span = self.span(ctx_seed, unpack_span, SpanKind::Round1, "", t);

        let at = InFlight {
            ctx: ctx_seed,
            count,
            deadline,
        };
        let decisions = if self.index == 0 {
            self.lead(&batch, round1, &at, round1_span)?
        } else {
            self.follow(&batch, round1, &at, round1_span)?
        };
        // The batch is decided: any round message still stashed (a
        // fault-duplicated vector from a peer already counted) belongs to
        // it and must not leak into the next gather.
        self.inbox.clear_round_stash();
        let tally = verify::finish(self.server, batch, &decisions);
        self.metrics.accepted.add(tally.accepted);
        self.metrics.rejected_verify.add(tally.rejected_verify);
        self.metrics.rejected_malformed.add(tally.rejected_malformed);
        Ok(())
    }

    /// The leader's side of a batch: gather round 1, combine and
    /// redistribute, gather round 2, decide, and announce the decisions.
    /// Gathers take one vector per *distinct* peer, so a fault-duplicated
    /// vector waits in the stash instead of impersonating a missing peer.
    fn lead(
        &mut self,
        batch: &Batch<F>,
        round1: Vec<Round1Msg<F>>,
        at: &InFlight,
        round1_span: u64,
    ) -> Result<Vec<bool>, Interrupt> {
        let ids = self.ids;
        let peers = &ids[1..];
        let t = self.now();
        let (gathered, parent) = self.inbox.gather(peers, at, "Round1", at.count, |m| match m {
            ServerMsg::Round1 { msgs, .. } => Some(msgs),
            _ => None,
        })?;
        // A gather-wait span chains off the earliest sender span that fed
        // it, or off our own preceding span when no frame was traced.
        let gather1_span =
            self.span(at.ctx, parent.unwrap_or(round1_span), SpanKind::GatherWait, "round1", t);
        let mut vectors = vec![round1];
        vectors.extend(gathered);
        let combined = verify::combine(at.count, &vectors);
        let msg = ServerMsg::Round1Combined {
            ctx: at.ctx,
            msgs: combined.clone(),
        };
        self.send("round1_combined_send", peers, &msg, self.tctx(at.ctx, gather1_span))?;

        let t = self.now();
        let own = verify::round2(self.server, batch, &combined, &mut self.clock);
        let round2_span = self.span(at.ctx, round1_span, SpanKind::Round2, "", t);
        let t = self.now();
        let (gathered, parent) = self.inbox.gather(peers, at, "Round2", at.count, |m| match m {
            ServerMsg::Round2 { msgs, .. } => Some(msgs),
            _ => None,
        })?;
        let gather2_span =
            self.span(at.ctx, parent.unwrap_or(round2_span), SpanKind::GatherWait, "round2", t);
        let mut vectors = vec![own];
        vectors.extend(gathered);
        let decisions = verify::decide(at.count, &vectors);
        let msg = ServerMsg::Decisions {
            ctx: at.ctx,
            bits: pack_decisions(&decisions),
        };
        let to: Vec<NodeId> = peers.iter().copied().chain([self.driver]).collect();
        self.send("decisions_send", &to, &msg, self.tctx(at.ctx, gather2_span))?;
        Ok(decisions)
    }

    /// A non-leader's side of a batch: send round 1, take the leader's
    /// combined vector, send round 2, take the leader's decisions. Only
    /// the leader's word counts for either, and only for this batch.
    fn follow(
        &mut self,
        batch: &Batch<F>,
        round1: Vec<Round1Msg<F>>,
        at: &InFlight,
        round1_span: u64,
    ) -> Result<Vec<bool>, Interrupt> {
        let leader = [self.ids[0]];
        let msg = ServerMsg::Round1 {
            ctx: at.ctx,
            msgs: round1,
        };
        self.send("round1_send", &leader, &msg, self.tctx(at.ctx, round1_span))?;
        // Gather-waits chain off the leader's sender span carried on the
        // frame, or off our own preceding span for a traceless frame.
        let t = self.now();
        let (mut combined, parent) =
            self.inbox.gather(&leader, at, "Round1Combined", at.count, |m| match m {
                ServerMsg::Round1Combined { msgs, .. } => Some(msgs),
                _ => None,
            })?;
        let parent = parent.unwrap_or(round1_span);
        self.span(at.ctx, parent, SpanKind::GatherWait, "round1combined", t);
        let combined = combined.pop().unwrap_or_default();

        let t = self.now();
        let round2 = verify::round2(self.server, batch, &combined, &mut self.clock);
        let round2_span = self.span(at.ctx, round1_span, SpanKind::Round2, "", t);
        let msg = ServerMsg::Round2 {
            ctx: at.ctx,
            msgs: round2,
        };
        self.send("round2_send", &leader, &msg, self.tctx(at.ctx, round2_span))?;
        let t = self.now();
        let (mut bits, parent) =
            self.inbox.gather(&leader, at, "Decisions", at.count.div_ceil(8), |m| match m {
                ServerMsg::Decisions { bits, .. } => Some(bits),
                _ => None,
            })?;
        self.span(at.ctx, parent.unwrap_or(round2_span), SpanKind::GatherWait, "decisions", t);
        Ok(unpack_decisions(&bits.pop().unwrap_or_default(), at.count))
    }

    /// Answers the publish request with this server's accumulator.
    fn publish(&mut self) -> Result<(), Interrupt> {
        // Everything sent so far is verification-phase traffic; the
        // accumulator reveal below is the publish phase. Sampling here
        // gives every deployment flavour the same Figure-6 split without a
        // shared-fabric snapshot.
        self.report.verify_bytes_sent = self.inbox.ep.bytes_sent();
        let span = Span::start(&self.clock.publish);
        let t = self.now();
        let msg = ServerMsg::Accumulator(self.server.accumulator().to_vec());
        let sent = self.send("publish_send", &[self.driver], &msg, None);
        self.clock.timings.publish += span.finish();
        // Publish is not tied to any one batch; trace 0 groups the reveal
        // phase per node without inventing a batch id.
        self.span(0, 0, SpanKind::Publish, "", t);
        sent
    }

    /// Discards a batch a gather deadline killed: nothing was accumulated,
    /// and its round messages must not leak into the next batch.
    fn abandon_batch(&mut self) {
        self.inbox.clear_round_stash();
        self.metrics.batches_abandoned.inc();
        self.report.batches_abandoned += 1;
        self.metrics.events.warn(
            TARGET,
            "batch_abandoned",
            "mid-batch gather deadline expired; abandoning the batch without accumulating".to_string(),
        );
    }

    /// Sends `msg` to every node in `to`, retrying per the loop's policy;
    /// a send that still fails stops the loop.
    fn send(
        &self,
        op: &'static str,
        to: &[NodeId],
        msg: &ServerMsg<F>,
        tctx: Option<TraceCtx>,
    ) -> Result<(), Interrupt> {
        let bytes = to_traced_bytes(msg, tctx);
        for &dst in to {
            self.opts
                .retry
                .run(op, || self.inbox.ep.send(dst, bytes.clone()))
                .map_err(|_| Interrupt::Stop)?;
        }
        Ok(())
    }

    /// The trace context stamped on an outgoing frame: `None` when tracing
    /// is off, which keeps every frame byte-identical to the untraced
    /// encoding.
    fn tctx(&self, trace: u64, parent: u64) -> Option<TraceCtx> {
        self.opts.trace.as_ref().map(|_| TraceCtx { trace, parent })
    }

    /// The trace clock, or 0 when tracing is off.
    fn now(&self) -> u64 {
        self.opts.trace.as_deref().map_or(0, |r| r.now_us())
    }

    /// Records a span from `start` to now and returns its id; records
    /// nothing and returns 0 when tracing is off.
    fn span(&self, trace: u64, parent: u64, kind: SpanKind, phase: &'static str, start: u64) -> u64 {
        self.opts.trace.as_deref().map_or(0, |r| {
            r.record_span(trace, parent, self.index as u64, kind, phase, start, r.now_us())
        })
    }
}

/// The server event loop: drains `ClientBatch`es through the verification
/// core (leader-star topology), answers the publish request, and exits on
/// shutdown.
///
/// `ids` is the full server set in index order (`ids[0]` is the leader and
/// must contain `ep.id()`); `driver` is the node the leader reports
/// decisions to and every server publishes to.
pub fn run_server_loop<F: FieldElement, A: Afe<F>>(
    server: &mut Server<F, A>,
    ep: &Endpoint,
    ids: &[NodeId],
    driver: NodeId,
    opts: ServerLoopOptions,
) -> ServerLoopReport {
    let metrics = LoopMetrics::resolve(&opts.obs);
    let Some(index) = ids.iter().position(|&id| id == ep.id()) else {
        metrics.events.error(
            TARGET,
            "own_id_missing",
            "own endpoint id not in the deployment's server set".to_string(),
        );
        return ServerLoopReport::default();
    };
    let mut known = ids.to_vec();
    known.push(driver);
    let mut node = Node {
        server,
        ids,
        driver,
        index,
        opts: &opts,
        metrics: &metrics,
        inbox: Inbox {
            ep,
            stash: VecDeque::new(),
            policy: opts.frame_policy,
            known,
            metrics: &metrics,
            dropped: 0,
        },
        clock: PhaseClock::resolve(opts.obs.registry()),
        seen: HashSet::new(),
        seen_order: VecDeque::new(),
        report: ServerLoopReport::default(),
    };
    node.serve();
    ServerLoopReport {
        frames_dropped: node.inbox.dropped,
        timings: node.clock.timings,
        ..node.report
    }
}
