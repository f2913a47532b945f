//! The batch-verification core: one server's steps through one batch of
//! submissions (Figure 1, steps b–d), with no I/O.
//!
//! A batch runs `unpack → round1 → combine → round2 → decide → finish`.
//! Every server runs `unpack`, `round1`, `round2` and `finish`; the leader
//! also runs `combine` and `decide`. The steps exchange full-length
//! vectors, one entry per submission, which are exactly the payloads of
//! the `Round1`, `Round1Combined` and `Round2` messages. The callers own
//! the transport: [`run_server_loop`](crate::run_server_loop) moves the
//! vectors as frames over an endpoint, and [`Cluster`](crate::Cluster)
//! runs the steps for every server and hands the vectors over in memory.
//!
//! A submission that fails locally at one server (its blob does not parse
//! or unpack, or round 1 refuses it) keeps its slot in every vector: a
//! zero round-1 entry and a poisoned round-2 share, so the joint decision
//! rejects it without the servers agreeing on anything beforehand.

use crate::client::ShareBlob;
use crate::server::Server;
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_obs::{names, Histogram, Registry, Span};
use prio_snip::{Round1Msg, Round2Msg, ServerState, SnipProofShare, VerifierContext};
use std::borrow::Borrow;
use std::time::Duration;

/// Wall-clock time spent in each verification phase, accumulated across
/// batches. This is the per-phase breakdown behind the Figure-5 cost
/// curves: `unpack` is dominated by PRG share expansion, `round1` by the
/// circuit re-evaluation and polynomial work, `round2` by the
/// Beaver-triple finish.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Blob parsing + PRG expansion into `(x, π)` shares.
    pub unpack: Duration,
    /// SNIP round 1 (wire re-derivation, `f·g·h` evaluations).
    pub round1: Duration,
    /// SNIP round 2.
    pub round2: Duration,
    /// Accumulator reveal (the publish phase). Filled by the server loop;
    /// the single-threaded cluster's `aggregate` is a read-only fold that
    /// reports into the publish histogram instead.
    pub publish: Duration,
    /// Submissions these totals cover.
    pub submissions: u64,
}

impl PhaseTimings {
    /// Total *verification* time: unpack + round 1 + round 2. Publish is
    /// deliberately excluded — it reveals the already-verified aggregate
    /// and is not part of the Figure-5 per-submission cost.
    pub fn total(&self) -> Duration {
        self.unpack + self.round1 + self.round2
    }
}

/// The `server_phase_us` histograms and the [`PhaseTimings`] they feed.
/// Each phase is clocked once, by a span, and the same measurement lands
/// in the histogram and in `timings`.
pub(crate) struct PhaseClock {
    unpack: Histogram,
    round1: Histogram,
    round2: Histogram,
    pub(crate) publish: Histogram,
    pub(crate) timings: PhaseTimings,
}

impl PhaseClock {
    pub(crate) fn resolve(reg: &Registry) -> PhaseClock {
        PhaseClock {
            unpack: reg.histogram(names::SERVER_PHASE_US, &[("phase", "unpack")]),
            round1: reg.histogram(names::SERVER_PHASE_US, &[("phase", "round1")]),
            round2: reg.histogram(names::SERVER_PHASE_US, &[("phase", "round2")]),
            publish: reg.histogram(names::SERVER_PHASE_US, &[("phase", "publish")]),
            timings: PhaseTimings::default(),
        }
    }
}

/// This server's `(x, π)` shares of a batch, one slot per submission;
/// `None` marks a submission that failed locally.
type Shares<F> = Vec<Option<(Vec<F>, SnipProofShare<F>)>>;

/// One server's view of one batch between round 1 and [`finish`].
pub(crate) struct Batch<F: FieldElement> {
    shares: Shares<F>,
    /// Submissions that passed round 1 here, ascending.
    verified: Vec<usize>,
    /// Their round-1 states, in the order of `verified`.
    states: Vec<ServerState<F>>,
}

/// What [`finish`] did with a batch at one server.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) accepted: u64,
    /// Verified here, rejected by the joint decision.
    pub(crate) rejected_verify: u64,
    /// Failed locally: unparseable, unpackable, or refused by round 1.
    pub(crate) rejected_malformed: u64,
}

/// Expands this server's blob of every submission into its `(x, π)`
/// shares. `blobs` yields one `(blob, prg_label)` per submission, `None`
/// for one the caller could not parse.
pub(crate) fn unpack<F, A, B>(
    server: &Server<F, A>,
    blobs: impl Iterator<Item = Option<(B, u64)>>,
    clock: &mut PhaseClock,
) -> Shares<F>
where
    F: FieldElement,
    A: Afe<F>,
    B: Borrow<ShareBlob<F>>,
{
    let span = Span::start(&clock.unpack);
    let shares = blobs
        .map(|b| b.and_then(|(blob, label)| server.unpack(blob.borrow(), label).ok()))
        .collect();
    clock.timings.unpack += span.finish();
    shares
}

/// SNIP round 1 over every submission that unpacked, on `threads` verify
/// workers. Returns the batch for the later steps and this server's
/// round-1 vector, with a zero entry for every local failure.
pub(crate) fn round1<F: FieldElement, A: Afe<F>>(
    server: &Server<F, A>,
    ctx: &VerifierContext<F>,
    mut shares: Shares<F>,
    threads: usize,
    clock: &mut PhaseClock,
) -> (Batch<F>, Vec<Round1Msg<F>>) {
    let span = Span::start(&clock.round1);
    let (unpacked, items): (Vec<usize>, Vec<_>) = shares
        .iter()
        .enumerate()
        .filter_map(|(j, s)| s.as_ref().map(|(x, proof)| (j, (x.as_slice(), proof))))
        .unzip();
    let results = server.round1_batch(ctx, &items, threads);
    let zero = Round1Msg {
        d: F::zero(),
        e: F::zero(),
    };
    let mut round1 = vec![zero; shares.len()];
    let mut verified = Vec::with_capacity(unpacked.len());
    let mut states = Vec::with_capacity(unpacked.len());
    for (j, result) in unpacked.into_iter().zip(results) {
        match result {
            Ok((state, msg)) => {
                verified.push(j);
                states.push(state);
                round1[j] = msg;
            }
            Err(_) => shares[j] = None,
        }
    }
    clock.timings.round1 += span.finish();
    let batch = Batch {
        shares,
        verified,
        states,
    };
    (batch, round1)
}

/// Leader only: sums every server's round-1 vector entrywise into the
/// combined vector. Each vector has `count` entries.
pub(crate) fn combine<F: FieldElement>(
    count: usize,
    vectors: &[Vec<Round1Msg<F>>],
) -> Vec<Round1Msg<F>> {
    let zero = Round1Msg {
        d: F::zero(),
        e: F::zero(),
    };
    let mut sum = vec![zero; count];
    for vector in vectors {
        for (acc, m) in sum.iter_mut().zip(vector) {
            acc.d += m.d;
            acc.e += m.e;
        }
    }
    sum
}

/// SNIP round 2 from the combined round-1 vector. Returns this server's
/// round-2 vector; a local failure gets a poisoned share (`σ = out = 1`)
/// so the joint decision rejects it even if every other server verified
/// it.
pub(crate) fn round2<F: FieldElement, A: Afe<F>>(
    server: &Server<F, A>,
    batch: &Batch<F>,
    combined: &[Round1Msg<F>],
    clock: &mut PhaseClock,
) -> Vec<Round2Msg<F>> {
    let span = Span::start(&clock.round2);
    let combined: Vec<Round1Msg<F>> = batch.verified.iter().map(|&j| combined[j]).collect();
    let poison = Round2Msg {
        sigma: F::one(),
        out: F::one(),
    };
    let mut round2 = vec![poison; batch.shares.len()];
    for (&j, msg) in batch
        .verified
        .iter()
        .zip(server.round2_batch(&batch.states, &combined))
    {
        round2[j] = msg;
    }
    clock.timings.round2 += span.finish();
    round2
}

/// Leader only: the accept/reject decision per submission from every
/// server's round-2 vector. Each vector has `count` entries.
pub(crate) fn decide<F: FieldElement>(count: usize, vectors: &[Vec<Round2Msg<F>>]) -> Vec<bool> {
    let mut shares = Vec::with_capacity(vectors.len());
    (0..count)
        .map(|j| {
            shares.clear();
            shares.extend(vectors.iter().map(|v| v[j]));
            prio_snip::decide(&shares)
        })
        .collect()
}

/// Folds every accepted submission this server verified into its
/// accumulator and records every other one as rejected.
pub(crate) fn finish<F: FieldElement, A: Afe<F>>(
    server: &mut Server<F, A>,
    batch: Batch<F>,
    decisions: &[bool],
) -> Tally {
    let mut tally = Tally::default();
    for (share, &accepted) in batch.shares.iter().zip(decisions) {
        match share {
            Some((x, _)) if accepted => {
                server.accumulate(x);
                tally.accepted += 1;
            }
            Some(_) => {
                server.reject();
                tally.rejected_verify += 1;
            }
            None => {
                server.reject();
                tally.rejected_malformed += 1;
            }
        }
    }
    tally
}
