//! Layer probes: direct calls into each layer's public functions, made on
//! one batch's own inputs while the deployment is idle between batches.
//!
//! A probe replays the batch through the protocol one layer at a time on
//! the benchmark's thread, with the thinnest glue that connects the
//! layers (round 2's input is the element-wise sum of the servers'
//! round-1 outputs, a locally failed submission gets a poisoned round-2
//! share, and so on), and times each call from outside. Every frame kind
//! a batch sends is encoded, carried over a fabric of the workload's kind
//! and latency, and decoded, in the numbers a batch sends them. The
//! replay ends in decisions that must equal the deployment's.

use crate::alloc::thread_allocs;
use crate::oracle::Oracle;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{self, Aggregate, PoolBatch, Spec};
use prio_core::messages::{
    blob_from_bytes, blob_to_bytes, pack_decisions, unpack_decisions, ServerMsg,
};
use prio_core::{Server, ServerConfig, ShareBlob};
use prio_crypto::prg::Prg;
use prio_field::ntt::NttPlan;
use prio_field::FieldElement;
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_net::{Endpoint, Transport};
use prio_snip::{decide, HForm, Round1Msg, Round2Msg, ServerState, SnipProofShare, VerifyMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Forward NTTs per timing of `field.ntt_us`: one transform at the small
/// domains is far shorter than the clock's resolution.
const NTT_REPS: u32 = 64;

/// The blocking steps of one batch, in the order the unattributed
/// remainder's formula lists them.
pub const PATH_STEPS: [&str; 6] = [
    "encode",
    "transit",
    "decode",
    "context+unpack+round1",
    "round2",
    "accumulate",
];
const ENCODE: usize = 0;
const TRANSIT: usize = 1;
const DECODE: usize = 2;
const VERIFY: usize = 3;
const ROUND2: usize = 4;
const ACCUMULATE: usize = 5;

/// One frame's trip: how long `send` held the sender, and how long until
/// the receiver's `recv` returned it.
#[derive(Clone, Copy, Debug, Default)]
struct Hop {
    send: f64,
    total: f64,
}

/// Every probe time of one batch, in µs. Per-server vectors are indexed by
/// server (0 = leader); entries a server has no part in stay 0.
#[derive(Default)]
struct Times {
    enc_batch: Vec<f64>,
    hop_batch: Vec<Hop>,
    dec_batch: Vec<f64>,
    verify: Vec<f64>,
    enc_r1: Vec<f64>,
    hop_r1: Vec<Hop>,
    dec_r1: Vec<f64>,
    enc_comb: f64,
    hop_comb: Vec<Hop>,
    dec_comb: Vec<f64>,
    round2: Vec<f64>,
    enc_r2: Vec<f64>,
    hop_r2: Vec<Hop>,
    dec_r2: Vec<f64>,
    enc_dec: f64,
    /// Decisions to servers `1..s`, then to the driver.
    hop_dec: Vec<Hop>,
    dec_dec_driver: f64,
    accumulate: Vec<f64>,
}

/// A point on a batch's timeline with the time it took to get there,
/// split by step.
#[derive(Clone, Copy, Debug, Default)]
struct Path {
    at: f64,
    parts: [f64; 6],
}

impl Path {
    fn add(mut self, step: usize, dt: f64) -> Path {
        self.at += dt;
        self.parts[step] += dt;
        self
    }

    fn later(self, other: Path) -> Path {
        if other.at > self.at {
            other
        } else {
            self
        }
    }
}

/// A receiver that processes frames one at a time, in arrival order.
fn gather(mut at: Path, mut arrivals: Vec<(Path, f64)>) -> Path {
    arrivals.sort_by(|a, b| a.0.at.total_cmp(&b.0.at));
    for (arrival, decode) in arrivals {
        at = at.later(arrival).add(DECODE, decode);
    }
    at
}

impl Times {
    /// The longest chain of blocking steps from the driver's first encode
    /// to the driver decoding the leader's decisions, replayed from the
    /// probe times the way the protocol orders them: a sender is held only
    /// for its `send`, the receiver sees the frame after the hop's total,
    /// and the leader decodes gathered frames one at a time. The next
    /// batch waits for the slowest server's accumulate, so that closes the
    /// chain. Returns the chain's time per step.
    fn critical_path(&self, s: usize) -> [f64; 6] {
        let mut driver = Path::default();
        let mut ready = Vec::with_capacity(s);
        for i in 0..s {
            driver = driver.add(ENCODE, self.enc_batch[i]);
            let arrive = driver.add(TRANSIT, self.hop_batch[i].total);
            driver = driver.add(TRANSIT, self.hop_batch[i].send);
            ready.push(
                arrive
                    .add(DECODE, self.dec_batch[i])
                    .add(VERIFY, self.verify[i]),
            );
        }
        let r1 = (1..s)
            .map(|i| {
                (
                    ready[i]
                        .add(ENCODE, self.enc_r1[i])
                        .add(TRANSIT, self.hop_r1[i].total),
                    self.dec_r1[i],
                )
            })
            .collect();
        let mut leader = gather(ready[0], r1).add(ENCODE, self.enc_comb);
        let mut r2 = Vec::with_capacity(s);
        for i in 1..s {
            let arrive = leader.add(TRANSIT, self.hop_comb[i].total);
            leader = leader.add(TRANSIT, self.hop_comb[i].send);
            let sent = arrive
                .add(DECODE, self.dec_comb[i])
                .add(ROUND2, self.round2[i])
                .add(ENCODE, self.enc_r2[i])
                .add(TRANSIT, self.hop_r2[i].total);
            r2.push((sent, self.dec_r2[i]));
        }
        leader = gather(leader.add(ROUND2, self.round2[0]), r2).add(ENCODE, self.enc_dec);
        let (to_driver, to_servers) = self
            .hop_dec
            .split_last()
            .expect("decisions reach the driver");
        for hop in to_servers {
            leader = leader.add(TRANSIT, hop.send);
        }
        let slowest_accumulate = self.accumulate.iter().copied().fold(0.0, f64::max);
        leader
            .add(TRANSIT, to_driver.total)
            .add(DECODE, self.dec_dec_driver)
            .add(ACCUMULATE, slowest_accumulate)
            .parts
    }
}

/// Per-batch probe samples, collected over the traced batches of a run.
#[derive(Default)]
pub struct Samples {
    submit_us: Vec<f64>,
    /// Allocator calls of the first probed batch, which the seed fixes:
    /// client per submission, wire per batch, unpack per submission.
    allocs: Option<[f64; 3]>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    wire_bytes: Vec<f64>,
    transit_us: Vec<f64>,
    unpack_seed_us: Vec<f64>,
    unpack_explicit_us: Vec<f64>,
    prg_mb_per_s: Vec<f64>,
    context_us: Vec<f64>,
    round1_us: Vec<f64>,
    round2_us: Vec<f64>,
    ntt_us: Vec<f64>,
    accumulate_us: Vec<f64>,
    path: [Vec<f64>; 6],
    /// Batches probed.
    pub batches: u64,
}

/// Probe-side copies of the servers and a fabric of the workload's kind.
pub struct Kit<F: FieldElement, A: Aggregate<F>> {
    afe: A,
    servers: Vec<Server<F, A>>,
    // Held so the probe fabric outlives its endpoints' use.
    _net: Arc<dyn Transport>,
    driver: Endpoint,
    eps: Vec<Endpoint>,
    /// Plaintext `σ` of every batch whose probe decisions were right: the
    /// probe servers' accumulators must sum to it.
    expected_sigma: Vec<u128>,
    /// Samples so far.
    pub samples: Samples,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Where a probe's spans go: the batch's trace id and the parent span.
#[derive(Clone, Copy)]
struct At {
    trace: u64,
    parent: u64,
}

/// Runs `f` as one leaf span and returns its result, wall time in µs and
/// allocator calls on this thread.
fn timed<T>(spans: &mut Spans, name: &'static str, at: At, f: impl FnOnce() -> T) -> (T, f64, u64) {
    let allocs = thread_allocs();
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let end = Instant::now();
    let allocs = thread_allocs() - allocs;
    spans.leaf(name, at.trace, at.parent, start, end);
    (out, us(end - start), allocs)
}

/// Per-batch wire totals: every encode, decode and frame a batch sends.
#[derive(Default)]
struct WireTotals {
    encode_us: f64,
    decode_us: f64,
    transit_us: f64,
    bytes: u64,
    allocs: u64,
}

/// One frame's `Endpoint::send` → `recv`, timed as a leaf span.
fn hop(
    spans: &mut Spans,
    at: At,
    from: &Endpoint,
    to: &Endpoint,
    frame: &[u8],
    w: &mut WireTotals,
) -> (Vec<u8>, Hop) {
    let payload = frame.to_vec();
    let start = Instant::now();
    from.send(to.id(), payload).expect("probe fabric send");
    let sent = Instant::now();
    let got = to.recv().expect("probe fabric recv").payload;
    let end = Instant::now();
    spans.leaf("net.transit", at.trace, at.parent, start, end);
    let hop = Hop {
        send: us(sent - start),
        total: us(end - start),
    };
    w.transit_us += hop.total;
    w.bytes += frame.len() as u64;
    (got, hop)
}

impl<F: FieldElement, A: Aggregate<F>> Kit<F, A> {
    /// Probe servers configured as the deployment's, and a fresh fabric of
    /// the workload's kind and latency with one endpoint per node.
    pub fn new(afe: &A, spec: &Spec) -> Kit<F, A> {
        let s = spec.servers;
        let servers = (0..s)
            .map(|index| {
                Server::new(
                    afe.clone(),
                    ServerConfig {
                        index,
                        num_servers: s,
                        verify_mode: VerifyMode::FixedPoint,
                        h_form: HForm::PointValue,
                    },
                )
            })
            .collect();
        let net = spec.transport.build(spec.latency);
        let driver = net.endpoint();
        let eps: Vec<Endpoint> = (0..s).map(|_| net.endpoint()).collect();
        // Open every connection a probe uses before any timing.
        let mut edges: Vec<(&Endpoint, &Endpoint)> = eps.iter().map(|e| (&driver, e)).collect();
        for e in &eps[1..] {
            edges.push((e, &eps[0]));
            edges.push((&eps[0], e));
        }
        edges.push((&eps[0], &driver));
        for (from, to) in edges {
            from.send(to.id(), vec![0]).expect("probe fabric send");
            to.recv().expect("probe fabric recv");
        }
        Kit {
            afe: afe.clone(),
            servers,
            _net: net,
            driver,
            eps,
            expected_sigma: vec![0; afe.trunc_len()],
            samples: Samples::default(),
        }
    }

    /// Probes one batch. `deployed` are the deployment's decisions for it.
    pub fn probe(
        &mut self,
        pb: &PoolBatch<F, A::Input>,
        deployed: &[bool],
        spans: &mut Spans,
        trace: u64,
        parent: u64,
        oracle: &mut Oracle,
    ) {
        let s = self.servers.len();
        let n = pb.subs.len();
        let ctx_seed = trace;
        let at = At { trace, parent };
        let mut w = WireTotals::default();
        let mut t = Times {
            enc_batch: vec![0.0; s],
            hop_batch: vec![Hop::default(); s],
            dec_batch: vec![0.0; s],
            verify: vec![0.0; s],
            enc_r1: vec![0.0; s],
            hop_r1: vec![Hop::default(); s],
            dec_r1: vec![0.0; s],
            hop_comb: vec![Hop::default(); s],
            dec_comb: vec![0.0; s],
            round2: vec![0.0; s],
            enc_r2: vec![0.0; s],
            hop_r2: vec![Hop::default(); s],
            dec_r2: vec![0.0; s],
            accumulate: vec![0.0; s],
            ..Times::default()
        };
        // Encodes and decodes are timed through these two, which also keep
        // the per-batch wire totals.
        let encode = |spans: &mut Spans, w: &mut WireTotals, name, msg: &ServerMsg<F>| {
            let (frame, dt, a) = timed(spans, name, at, || to_traced_bytes(msg, None));
            w.encode_us += dt;
            w.allocs += a;
            (frame, dt)
        };
        let decode = |spans: &mut Spans, w: &mut WireTotals, name, frame: &[u8]| {
            let (msg, dt, a) = timed(spans, name, at, || {
                from_traced_bytes::<ServerMsg<F>>(frame)
                    .ok()
                    .map(|(m, _)| m)
            });
            w.decode_us += dt;
            w.allocs += a;
            (msg, dt)
        };

        // Client: re-encode the batch from its inputs and encoding seed.
        let client = spans.open("probe.client", trace, parent);
        let mut submit = Vec::with_capacity(n);
        let mut client_allocs = 0;
        let again = workload::encode(
            &self.afe,
            s,
            &pb.inputs,
            pb.encode_seed,
            &pb.tamper,
            |dt, a| {
                submit.push(us(dt));
                client_allocs += a;
            },
        );
        spans.close(client);
        let same = again.len() == n
            && again
                .iter()
                .zip(&pb.subs)
                .all(|(a, b)| a.prg_label == b.prg_label && a.blobs == b.blobs);
        oracle.check(same, || {
            "client probe: re-encoding differs from the submitted batch".into()
        });

        // Driver: one ClientBatch per server, encoded and sent in order,
        // as `BatchDriver::run_batch_outcome` does (blob serialisation
        // included).
        let mut received = Vec::with_capacity(s);
        for i in 0..s {
            let (frame, dt, a) = timed(spans, "wire.encode.client_batch", at, || {
                let msg: ServerMsg<F> = ServerMsg::ClientBatch {
                    ctx_seed,
                    labels: pb.subs.iter().map(|sub| sub.prg_label).collect(),
                    blobs: pb
                        .subs
                        .iter()
                        .map(|sub| blob_to_bytes(&sub.blobs[i]))
                        .collect(),
                };
                to_traced_bytes(&msg, None)
            });
            t.enc_batch[i] = dt;
            w.encode_us += dt;
            w.allocs += a;
            let (got, hop) = hop(spans, at, &self.driver, &self.eps[i], &frame, &mut w);
            t.hop_batch[i] = hop;
            received.push(got);
        }

        // Each server on its own frame: decode (blob parsing included),
        // context, unpack, round 1.
        let (mut seed_us, mut seed_n, mut explicit_us, mut explicit_n) = (0.0, 0u64, 0.0, 0u64);
        let (mut prg_bytes, mut prg_us) = (0u64, 0.0);
        let (mut context_sum, mut round1_sum, mut round1_n) = (0.0, 0.0, 0u64);
        let mut unpack_allocs = 0u64;
        let mut states: Vec<Vec<Option<ServerState<F>>>> = Vec::with_capacity(s);
        let mut round1: Vec<Vec<Round1Msg<F>>> = Vec::with_capacity(s);
        let mut xs: Vec<Vec<Vec<F>>> = Vec::with_capacity(s);
        let mut local_ok: Vec<Vec<bool>> = Vec::with_capacity(s);
        for (i, frame) in received.iter().enumerate() {
            let ((labels, blobs), dt, a) =
                timed(
                    spans,
                    "wire.decode.client_batch",
                    at,
                    || match from_traced_bytes::<ServerMsg<F>>(frame) {
                        Ok((ServerMsg::ClientBatch { labels, blobs, .. }, _)) => {
                            let blobs: Vec<Option<ShareBlob<F>>> =
                                blobs.iter().map(|b| blob_from_bytes(b).ok()).collect();
                            (labels, blobs)
                        }
                        _ => (Vec::new(), Vec::new()),
                    },
                );
            t.dec_batch[i] = dt;
            w.decode_us += dt;
            w.allocs += a;
            if labels.len() != n || blobs.len() != n {
                oracle.check(false, || {
                    format!("wire probe: ClientBatch for server {i} did not decode")
                });
                return;
            }
            let server = &self.servers[i];
            let (ctx, t_ctx, _) =
                timed(spans, "snip.context", at, || server.make_context(ctx_seed));
            let Ok(ctx) = ctx else {
                oracle.check(false, || {
                    format!("snip probe: server {i} could not derive its context")
                });
                return;
            };
            let (unpacked, t_unpack, a) = timed(spans, "unpack", at, || {
                blobs
                    .iter()
                    .zip(&labels)
                    .map(|(b, &label)| b.as_ref().and_then(|b| server.unpack(b, label).ok()))
                    .collect::<Vec<Option<(Vec<F>, SnipProofShare<F>)>>>()
            });
            unpack_allocs += a;
            let seeds: Vec<(&prio_crypto::prg::Seed, u64)> = blobs
                .iter()
                .zip(&labels)
                .filter_map(|(b, &l)| match b {
                    Some(ShareBlob::Seed(seed)) => Some((seed, l)),
                    _ => None,
                })
                .collect();
            if seeds.is_empty() {
                explicit_us += t_unpack;
                explicit_n += n as u64;
            } else {
                seed_us += t_unpack;
                seed_n += n as u64;
                let len = server.layout().flat_len() * F::ENCODED_LEN;
                let mut buf = vec![0u8; len];
                let ((), dt, _) = timed(spans, "crypto.prg", at, || {
                    for (seed, label) in &seeds {
                        Prg::new(seed, *label).fill_bytes(&mut buf);
                    }
                });
                prg_bytes += (len * seeds.len()) as u64;
                prg_us += dt;
            }
            let ok_idx: Vec<usize> = (0..n).filter(|&j| unpacked[j].is_some()).collect();
            let items: Vec<(&[F], &SnipProofShare<F>)> = unpacked
                .iter()
                .flatten()
                .map(|(x, p)| (x.as_slice(), p))
                .collect();
            let (results, t_r1, _) = timed(spans, "snip.round1", at, || {
                server.round1_batch(&ctx, &items, 1)
            });
            drop(items);
            let mut st = vec![None; n];
            let mut r1 = vec![
                Round1Msg {
                    d: F::zero(),
                    e: F::zero()
                };
                n
            ];
            let mut ok: Vec<bool> = unpacked.iter().map(Option::is_some).collect();
            for (&j, result) in ok_idx.iter().zip(results) {
                match result {
                    Ok((state, msg)) => {
                        st[j] = Some(state);
                        r1[j] = msg;
                    }
                    Err(_) => ok[j] = false,
                }
            }
            context_sum += t_ctx;
            round1_sum += t_r1;
            round1_n += ok_idx.len() as u64;
            t.verify[i] = t_ctx + t_unpack + t_r1;
            xs.push(
                unpacked
                    .into_iter()
                    .map(|u| u.map(|(x, _)| x).unwrap_or_default())
                    .collect(),
            );
            states.push(st);
            round1.push(r1);
            local_ok.push(ok);
        }

        // Round 1: non-leaders send their vectors; the leader decodes each.
        let mut all_r1 = vec![std::mem::take(&mut round1[0])];
        for (i, msgs) in round1.iter_mut().enumerate().skip(1) {
            let msg = ServerMsg::Round1 {
                ctx: ctx_seed,
                msgs: std::mem::take(msgs),
            };
            let (frame, dt) = encode(spans, &mut w, "wire.encode.round1", &msg);
            t.enc_r1[i] = dt;
            let (got, hop) = hop(spans, at, &self.eps[i], &self.eps[0], &frame, &mut w);
            t.hop_r1[i] = hop;
            let (msg, dt) = decode(spans, &mut w, "wire.decode.round1", &got);
            t.dec_r1[i] = dt;
            all_r1.push(match msg {
                Some(ServerMsg::Round1 { msgs, .. }) => msgs,
                _ => Vec::new(),
            });
        }
        if all_r1.iter().any(|v| v.len() != n) {
            oracle.check(false, || {
                "wire probe: a round-1 vector did not decode".into()
            });
            return;
        }

        // The leader sums the vectors and sends the sums to every non-leader.
        let combined: Vec<Round1Msg<F>> = (0..n)
            .map(|j| Round1Msg {
                d: all_r1.iter().map(|v| v[j].d).sum(),
                e: all_r1.iter().map(|v| v[j].e).sum(),
            })
            .collect();
        let msg = ServerMsg::Round1Combined {
            ctx: ctx_seed,
            msgs: combined.clone(),
        };
        let (frame, dt) = encode(spans, &mut w, "wire.encode.round1_combined", &msg);
        t.enc_comb = dt;
        let mut views = vec![combined];
        for i in 1..s {
            let (got, hop) = hop(spans, at, &self.eps[0], &self.eps[i], &frame, &mut w);
            t.hop_comb[i] = hop;
            let (msg, dt) = decode(spans, &mut w, "wire.decode.round1_combined", &got);
            t.dec_comb[i] = dt;
            views.push(match msg {
                Some(ServerMsg::Round1Combined { msgs, .. }) => msgs,
                _ => Vec::new(),
            });
        }

        // Round 2 at every server on its view of the sums.
        let (mut round2_sum, mut round2_n) = (0.0, 0u64);
        let mut round2: Vec<Vec<Round2Msg<F>>> = Vec::with_capacity(s);
        for i in 0..s {
            let ok_idx: Vec<usize> = (0..n)
                .filter(|&j| states[i][j].is_some() && j < views[i].len())
                .collect();
            let sts: Vec<ServerState<F>> = ok_idx
                .iter()
                .filter_map(|&j| states[i][j].clone())
                .collect();
            let combs: Vec<Round1Msg<F>> = ok_idx.iter().map(|&j| views[i][j]).collect();
            let server = &self.servers[i];
            let (compact, dt, _) = timed(spans, "snip.round2", at, || {
                server.round2_batch(&sts, &combs)
            });
            let mut out = vec![
                Round2Msg {
                    sigma: F::one(),
                    out: F::one()
                };
                n
            ];
            for (&j, m) in ok_idx.iter().zip(compact) {
                out[j] = m;
            }
            t.round2[i] = dt;
            round2_sum += dt;
            round2_n += ok_idx.len() as u64;
            round2.push(out);
        }

        // Round 2: non-leaders send their vectors; the leader decodes each.
        let mut all_r2 = vec![std::mem::take(&mut round2[0])];
        for (i, msgs) in round2.iter_mut().enumerate().skip(1) {
            let msg = ServerMsg::Round2 {
                ctx: ctx_seed,
                msgs: std::mem::take(msgs),
            };
            let (frame, dt) = encode(spans, &mut w, "wire.encode.round2", &msg);
            t.enc_r2[i] = dt;
            let (got, hop) = hop(spans, at, &self.eps[i], &self.eps[0], &frame, &mut w);
            t.hop_r2[i] = hop;
            let (msg, dt) = decode(spans, &mut w, "wire.decode.round2", &got);
            t.dec_r2[i] = dt;
            all_r2.push(match msg {
                Some(ServerMsg::Round2 { msgs, .. }) => msgs,
                _ => Vec::new(),
            });
        }
        if all_r2.iter().any(|v| v.len() != n) {
            oracle.check(false, || {
                "wire probe: a round-2 vector did not decode".into()
            });
            return;
        }

        // The leader decides; the decisions must be the deployment's.
        let decisions: Vec<bool> = (0..n)
            .map(|j| decide(&all_r2.iter().map(|v| v[j]).collect::<Vec<_>>()))
            .collect();
        oracle.check(decisions == deployed, || {
            format!(
                "probe decisions for trace {trace} differ from the deployment's for the same batch"
            )
        });
        let wrong = oracle.decisions("probe", &decisions, &pb.expected);

        // Decisions go to every non-leader, then to the driver.
        let msg = ServerMsg::<F>::Decisions {
            ctx: ctx_seed,
            bits: pack_decisions(&decisions),
        };
        let (frame, dt) = encode(spans, &mut w, "wire.encode.decisions", &msg);
        t.enc_dec = dt;
        for to in self.eps[1..].iter().chain(std::iter::once(&self.driver)) {
            let (got, hop) = hop(spans, at, &self.eps[0], to, &frame, &mut w);
            t.hop_dec.push(hop);
            let (msg, dt) = decode(spans, &mut w, "wire.decode.decisions", &got);
            // The last hop is the driver's; its decode ends the batch.
            t.dec_dec_driver = dt;
            let bits = match msg {
                Some(ServerMsg::Decisions { bits, .. }) => unpack_decisions(&bits, n),
                _ => Vec::new(),
            };
            oracle.check(bits == decisions, || {
                "wire probe: decisions did not round-trip".into()
            });
        }

        // Accumulate the accepted submissions into each probe server.
        let (mut acc_sum, mut acc_n) = (0.0, 0u64);
        for i in 0..s {
            let server = &mut self.servers[i];
            let take: Vec<&Vec<F>> = (0..n)
                .filter(|&j| decisions[j] && local_ok[i][j])
                .map(|j| &xs[i][j])
                .collect();
            let ((), dt, _) = timed(spans, "server.accumulate", at, || {
                for x in &take {
                    server.accumulate(x);
                }
            });
            t.accumulate[i] = dt;
            acc_sum += dt;
            acc_n += take.len() as u64;
        }
        if wrong == 0 {
            for (e, v) in self.expected_sigma.iter_mut().zip(&pb.sigma) {
                *e += v;
            }
        }

        // Forward NTTs at the circuit's domain size, on the batch's data.
        let size = self.servers[0].layout().dom.n;
        let data = xs
            .iter()
            .flatten()
            .find(|x| !x.is_empty())
            .cloned()
            .unwrap_or_default();
        let mut buf: Vec<F> = (0..size)
            .map(|k| data.get(k % data.len().max(1)).copied().unwrap_or(F::one()))
            .collect();
        let plan = NttPlan::<F>::get(size);
        let ((), ntt, _) = timed(spans, "field.ntt", at, || {
            for _ in 0..NTT_REPS {
                plan.forward(&mut buf);
            }
        });

        let path = t.critical_path(s);
        let smp = &mut self.samples;
        smp.batches += 1;
        smp.ntt_us.push(ntt / f64::from(NTT_REPS));
        smp.allocs.get_or_insert([
            client_allocs as f64 / n as f64,
            w.allocs as f64,
            unpack_allocs as f64 / (n * s) as f64,
        ]);
        smp.submit_us.extend(submit);
        smp.encode_us.push(w.encode_us);
        smp.decode_us.push(w.decode_us);
        smp.transit_us.push(w.transit_us);
        smp.wire_bytes.push(w.bytes as f64);
        if seed_n > 0 {
            smp.unpack_seed_us.push(seed_us / seed_n as f64);
        }
        if explicit_n > 0 {
            smp.unpack_explicit_us.push(explicit_us / explicit_n as f64);
        }
        if prg_us > 0.0 {
            smp.prg_mb_per_s.push(prg_bytes as f64 / prg_us);
        }
        smp.context_us.push(context_sum / s as f64);
        if round1_n > 0 {
            smp.round1_us.push(round1_sum / round1_n as f64);
        }
        if round2_n > 0 {
            smp.round2_us.push(round2_sum / round2_n as f64);
        }
        if acc_n > 0 {
            smp.accumulate_us.push(acc_sum / acc_n as f64);
        }
        for (k, v) in path.into_iter().enumerate() {
            smp.path[k].push(v);
        }
    }

    /// Checks that the probe servers' accumulators sum to the plaintext
    /// aggregate of the batches they accepted.
    pub fn check_accumulators(&self, oracle: &mut Oracle) {
        let mut total = vec![F::zero(); self.afe.trunc_len()];
        for server in &self.servers {
            for (t, &v) in total.iter_mut().zip(server.accumulator()) {
                *t += v;
            }
        }
        let ok = total
            .iter()
            .zip(&self.expected_sigma)
            .all(|(t, &e)| t.try_to_u128() == Some(e));
        oracle.check(ok, || {
            "accumulate probe: probe servers' sum != plaintext aggregate".into()
        });
    }
}

impl Samples {
    /// Medians of the blocking steps, in [`PATH_STEPS`] order.
    pub fn path_medians(&self) -> [f64; 6] {
        std::array::from_fn(|k| median(&self.path[k]))
    }

    /// Median wire bytes per batch (identical in every batch of a workload).
    pub fn wire_bytes(&self) -> f64 {
        median(&self.wire_bytes)
    }

    /// The probe-derived per-layer metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let [client_allocs, wire_allocs, unpack_allocs] = self.allocs.unwrap_or_default();
        vec![
            ("client.submit_us", median(&self.submit_us), "us"),
            ("client.allocs_per_sub", client_allocs, "allocs"),
            ("wire.encode_us_per_batch", median(&self.encode_us), "us"),
            ("wire.decode_us_per_batch", median(&self.decode_us), "us"),
            ("wire.bytes_per_batch", self.wire_bytes(), "B"),
            ("wire.allocs_per_batch", wire_allocs, "allocs"),
            ("net.transit_us_per_batch", median(&self.transit_us), "us"),
            ("unpack.seed_us_per_sub", median(&self.unpack_seed_us), "us"),
            (
                "unpack.explicit_us_per_sub",
                median(&self.unpack_explicit_us),
                "us",
            ),
            ("unpack.allocs_per_sub", unpack_allocs, "allocs"),
            ("crypto.prg_mb_per_s", median(&self.prg_mb_per_s), "MB/s"),
            ("snip.context_us_per_batch", median(&self.context_us), "us"),
            ("snip.round1_us_per_sub", median(&self.round1_us), "us"),
            ("snip.round2_us_per_sub", median(&self.round2_us), "us"),
            ("field.ntt_us", median(&self.ntt_us), "us"),
            (
                "server.accumulate_us_per_sub",
                median(&self.accumulate_us),
                "us",
            ),
        ]
    }
}
