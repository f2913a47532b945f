//! One run of one workload: generate the inputs, then measure closed
//! loops for the requested time and check everything against the oracle.
//!
//! A closed loop has one driver thread and one batch in flight: the next
//! batch is sent only after the previous one's decisions arrived.
//!
//! With tracing off the run reports the end-to-end metrics. A shared host
//! changes speed for seconds at a time as other tenants' load comes and
//! goes, so the window is cut into slices of about a second, each with its
//! own client-encode sample, set-up, closed loop and checked finish. Every
//! timing metric is read per slice under one rule: the run reports the
//! quartile of the slice values on the metric's better side, which
//! discards slow spells covering up to three quarters of the run, while a
//! change to the program moves every slice and still shows in full. Client
//! encode takes the fastest slice instead, and set-up time the median of
//! the slices' set-ups.
//!
//! With tracing on, one deployment runs the whole window, cut into phases
//! of the same length that alternate between untraced (a plain closed
//! loop) and traced (spans around every batch, and the layer probes on the
//! inputs of every second batch). Both kinds of phase read `batch_p50_ms`
//! under the end-to-end rule, so the traced and untraced figures compare
//! like with like, and host drift falls on both alike.

use crate::oracle::Oracle;
use crate::probes::{self, Kit};
use crate::spans::Spans;
use crate::stats::{better_quartile, median, percentile, quantile};
use crate::workload::{self, stream_seed, Aggregate, PoolBatch, Spec, DUP_PERMILLE};
use prio_core::{BatchOutcome, Deployment, DeploymentConfig};
use prio_field::FieldElement;
use prio_net::{FaultPlan, NetStats, NodeId};
use prio_obs::{names, Registry, Snapshot};
use std::time::{Duration, Instant};

/// Batches after `Deployment::start` that fill lazy caches (NTT plans,
/// kernels, TCP connections) before a deployment counts as set up.
const WARMUP_BATCHES: usize = 3;
/// Minimum time each slice spends timing `Client::submit`.
const ENCODE_SAMPLE: Duration = Duration::from_millis(30);
/// Target length of one slice of an end-to-end run.
const SLICE: Duration = Duration::from_secs(1);

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes for the self-test: batches of 8, one set-up.
    pub tiny: bool,
    /// Self-test hook: flip one expected decision bit, so the oracle fails.
    pub flip_expected_bit: bool,
}

/// One reported metric.
pub struct Metric {
    /// Name as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What else to print beside it.
    pub note: String,
}

/// What a run produced.
pub struct Report {
    /// The metrics of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// Submissions sent in the timed window.
    pub attempted: u64,
    /// Of those, submissions dropped with a degraded or aborted batch or
    /// decided against the expected mask.
    pub failed: u64,
    /// Oracle outcome.
    pub oracle: Oracle,
    /// Extra lines for the human-readable output.
    pub notes: Vec<String>,
    /// The Chrome trace export of a traced run.
    pub chrome_trace: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// A deployment plus what the oracle expects it to publish.
struct Live<F: FieldElement> {
    dep: Deployment<F>,
    sent: u64,
    expected_accepted: u64,
    sigma: Vec<u128>,
}

impl<F: FieldElement> Live<F> {
    /// Starts a deployment; `fault_seed` seeds the adversarial
    /// workload's fault plan.
    fn start<A: Aggregate<F>>(afe: &A, spec: &Spec, fault_seed: u64) -> Live<F> {
        let mut cfg = DeploymentConfig::new(spec.servers)
            .with_transport(spec.transport)
            .with_verify_threads(1);
        if let Some(latency) = spec.latency {
            cfg = cfg.with_latency(latency);
        }
        if spec.adversarial {
            let plan = FaultPlan::seeded(fault_seed).with_dup_permille(DUP_PERMILLE);
            cfg = cfg
                .with_fault_plan(plan)
                .with_server_faults()
                .with_batch_deadline(Duration::from_secs(2));
        }
        Live {
            dep: Deployment::start(afe.clone(), cfg),
            sent: 0,
            expected_accepted: 0,
            sigma: vec![0; afe.trunc_len()],
        }
    }

    /// Feeds one batch and checks its decisions. Returns the batch's
    /// latency, its decisions if it completed, and how many of its
    /// submissions failed.
    fn feed<I>(
        &mut self,
        pb: &PoolBatch<F, I>,
        oracle: &mut Oracle,
    ) -> Result<(Duration, Option<Vec<bool>>, u64), String> {
        let n = pb.subs.len() as u64;
        let start = Instant::now();
        let outcome = self.dep.run_batch_outcome(&pb.subs);
        let latency = start.elapsed();
        self.sent += n;
        match outcome {
            Ok(BatchOutcome::Complete { decisions }) => {
                let wrong = oracle.decisions("deployment", &decisions, &pb.expected);
                self.expected_accepted += pb.accepted;
                for (s, v) in self.sigma.iter_mut().zip(&pb.sigma) {
                    *s += v;
                }
                Ok((latency, Some(decisions), wrong))
            }
            Ok(BatchOutcome::Degraded { .. } | BatchOutcome::Aborted) => Ok((latency, None, n)),
            Err(e) => Err(format!("deployment failed a batch: {e}")),
        }
    }

    /// Publishes, shuts down, and checks the ledger and the aggregate.
    fn finish<A: Aggregate<F>>(self, afe: &A, oracle: &mut Oracle) -> Duration {
        let start = Instant::now();
        let report = self.dep.finish_lossy();
        let took = start.elapsed();
        oracle.ledger(
            report.accepted,
            report.rejected,
            report.dropped,
            self.sent,
            self.expected_accepted,
        );
        oracle.aggregate(afe, &report.sigma, &self.sigma, report.accepted);
        took
    }
}

/// Counters read at the window's edges.
struct Edge {
    net: NetStats,
    obs: Snapshot,
    outcomes: (u64, u64, u64),
    walls: usize,
}

impl Edge {
    fn read<F: FieldElement>(dep: &Deployment<F>) -> Edge {
        Edge {
            net: dep.network().stats(),
            obs: Registry::global().snapshot(),
            outcomes: dep.outcome_counts(),
            walls: dep.batch_wall().len(),
        }
    }
}

fn sent_by(stats: &NetStats, ids: &[NodeId]) -> u64 {
    ids.iter()
        .map(|id| stats.bytes_sent.get(id).copied().unwrap_or(0))
        .sum()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one slice of an end-to-end run measured.
#[derive(Default)]
struct Slice {
    encode_us: Vec<f64>,
    setup_s: f64,
    latency_ms: Vec<f64>,
    loop_s: f64,
    decided: u64,
    server_bytes: u64,
}

/// Inputs shared by every part of a run.
struct Setting<'a, F: FieldElement, A: Aggregate<F>> {
    spec: &'a Spec,
    afe: &'a A,
    batches: &'a [PoolBatch<F, A::Input>],
    seed: u64,
}

impl<F: FieldElement, A: Aggregate<F>> Setting<'_, F, A> {
    /// Starts a deployment and runs the warm-up batches; returns it with
    /// its set-up time.
    fn set_up(&self, fault_seed: u64, oracle: &mut Oracle) -> (Live<F>, f64) {
        let start = Instant::now();
        let mut live = Live::start(self.afe, self.spec, fault_seed);
        for k in 0..WARMUP_BATCHES {
            if let Err(e) = live.feed(&self.batches[k % self.batches.len()], oracle) {
                oracle.check(false, || e);
            }
        }
        (live, start.elapsed().as_secs_f64())
    }

    /// One slice: a client-encode sample, a set-up, a closed loop until
    /// `until`, and a checked finish.
    fn slice(
        &self,
        index: usize,
        until: Instant,
        oracle: &mut Oracle,
        attempted: &mut u64,
        failed: &mut u64,
    ) -> Slice {
        let mut out = Slice::default();
        let encoding = Instant::now();
        for pb in self.batches.iter().cycle().skip(index) {
            workload::encode(
                self.afe,
                self.spec.servers,
                &pb.inputs,
                pb.encode_seed,
                &pb.tamper,
                |dt, _| out.encode_us.push(dt.as_secs_f64() * 1e6),
            );
            if encoding.elapsed() >= ENCODE_SAMPLE {
                break;
            }
        }
        let (mut live, setup_s) = self.set_up(stream_seed(self.seed, index, 3), oracle);
        out.setup_s = setup_s;
        let before = live.dep.network().stats();
        let start = Instant::now();
        let mut k = WARMUP_BATCHES;
        while Instant::now() < until {
            let pb = &self.batches[k % self.batches.len()];
            k += 1;
            let (latency, decisions, wrong) = match live.feed(pb, oracle) {
                Ok(fed) => fed,
                Err(e) => {
                    oracle.check(false, || e);
                    break;
                }
            };
            *attempted += pb.subs.len() as u64;
            *failed += wrong;
            if decisions.is_some() {
                out.decided += pb.subs.len() as u64 - wrong;
            }
            out.latency_ms.push(ms(latency));
        }
        out.loop_s = start.elapsed().as_secs_f64();
        let net = live.dep.network().stats().diff(&before);
        out.server_bytes = sent_by(&net, live.dep.server_ids());
        live.finish(self.afe, oracle);
        out
    }
}

/// Runs one workload.
pub fn run<F: FieldElement, A: Aggregate<F>>(spec: &Spec, afe: A, args: &Args) -> Report {
    let batch = if args.tiny { 8 } else { spec.batch };
    let pool_len = if args.tiny { 2 } else { spec.pool };
    let mut batches = workload::generate(&afe, spec, args.seed, batch, pool_len);
    if args.flip_expected_bit {
        batches[0].expected[0] ^= true;
    }
    let setting = Setting {
        spec,
        afe: &afe,
        batches: &batches,
        seed: args.seed,
    };
    let mut report = if args.trace {
        layers(&setting, args)
    } else {
        e2e(&setting, args)
    };
    report
        .notes
        .push(format!("pool of {} batches of {batch}", batches.len()));
    report
}

/// Slices of about [`SLICE`] in `window`; at least two.
fn slice_count(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(2)
}

/// The end-to-end run: sliced closed loops, each timing metric read at its
/// better quartile over the slices (client encode: the fastest slice;
/// set-up time: their median).
fn e2e<F: FieldElement, A: Aggregate<F>>(set: &Setting<'_, F, A>, args: &Args) -> Report {
    let mut oracle = Oracle::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Duration::from_secs_f64(args.seconds);
    let count = slice_count(window);
    let start = Instant::now();
    let slices: Vec<Slice> = (0..count)
        .map(|i| {
            let until = start + window.mul_f64((i + 1) as f64 / count as f64);
            set.slice(i, until, &mut oracle, &mut attempted, &mut failed)
        })
        .collect();

    let per = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let throughput = per(&|s| s.decided as f64 / s.loop_s);
    let p50 = per(&|s| median(&s.latency_ms));
    let tail_pct = set.spec.tail_pct;
    let tails = per(&|s| percentile(&s.latency_ms, tail_pct).0);
    let beyond = per(&|s| percentile(&s.latency_ms, tail_pct).1 as f64);
    let encode = per(&|s| median(&s.encode_us));
    let setups = per(&|s| s.setup_s);
    let timing = |name, xs: &[f64], higher, unit| Metric {
        name,
        value: better_quartile(xs, higher),
        unit,
        note: format!(
            "better quartile of {} slices {:.4}..{:.4}",
            xs.len(),
            quantile(xs, 0.0),
            quantile(xs, 1.0)
        ),
    };

    let subs: Vec<_> = set.batches.iter().flat_map(|b| &b.subs).collect();
    let upload: usize = subs.iter().map(|s| s.upload_bytes()).sum();
    let server_bytes: u64 = slices.iter().map(|s| s.server_bytes).sum();
    let all_batches: usize = slices.iter().map(|s| s.latency_ms.len()).sum();
    let failed_fraction = failed as f64 / attempted.max(1) as f64;
    let mut tail = timing("batch_tail_ms", &tails, false, "ms");
    tail.note = format!(
        "p{tail_pct} per slice ({:.0} of a median {:.0} batches beyond it); {}",
        median(&beyond),
        median(&per(&|s| s.latency_ms.len() as f64)),
        tail.note
    );
    let metrics = vec![
        timing("throughput_sub_per_s", &throughput, true, "sub/s"),
        timing("batch_p50_ms", &p50, false, "ms"),
        tail,
        // One thread on a small working set: its speed on this kind of
        // shared host flips between two levels ~1.6x apart for seconds at
        // a time, and the slow one often holds most of a run, so the
        // better quartile flips with it. The fastest slice does not.
        Metric {
            name: "client_encode_us",
            value: quantile(&encode, 0.0),
            unit: "us",
            note: format!(
                "fastest of {} slices {:.4}..{:.4}",
                encode.len(),
                quantile(&encode, 0.0),
                quantile(&encode, 1.0)
            ),
        },
        metric(
            "upload_bytes_per_sub",
            upload as f64 / subs.len() as f64,
            "B",
        ),
        metric(
            "server_bytes_per_sub",
            server_bytes as f64 / attempted.max(1) as f64,
            "B",
        ),
        Metric {
            name: "ok_fraction",
            value: 1.0 - failed_fraction,
            unit: "ratio",
            note: format!("failed_fraction = {failed_fraction} ({failed} of {attempted})"),
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
            note: format!("median of {} set-ups", setups.len()),
        },
        metric("peak_rss_mb", crate::host::peak_rss_mib(), "MiB"),
    ];
    let notes = vec![format!(
        "window: {count} slices, {all_batches} batches in {:.3} s",
        start.elapsed().as_secs_f64()
    )];
    Report {
        metrics,
        attempted,
        failed,
        oracle,
        notes,
        chrome_trace: None,
    }
}

/// The traced run: one deployment, phases alternating between untraced
/// and traced, layer probes after every second traced batch.
fn layers<F: FieldElement, A: Aggregate<F>>(set: &Setting<'_, F, A>, args: &Args) -> Report {
    let (spec, batches) = (set.spec, set.batches);
    let mut oracle = Oracle::default();
    let mut notes = Vec::new();
    let (mut live, _) = set.set_up(stream_seed(set.seed, 0, 3), &mut oracle);
    let mut kit = Kit::new(set.afe, spec);
    let mut spans = Spans::new();
    // Per phase, the median batch latency.
    let mut untraced_p50 = Vec::new();
    let mut traced_p50 = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let before = Edge::read(&live.dep);
    let window_start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let phases = slice_count(window);
    let mut k = 0usize;
    'window: for phase in 0..phases {
        let until = window_start + window.mul_f64((phase + 1) as f64 / phases as f64);
        let traced = phase % 2 == 1;
        let mut latency_ms = Vec::new();
        let mut j = 0usize;
        while Instant::now() < until {
            let pb = &batches[(WARMUP_BATCHES + k) % batches.len()];
            let trace_id = k as u64 + 1;
            let root = traced.then(|| spans.open("batch", trace_id, 0));
            let span = root.map(|r| spans.open("run_batch", trace_id, r.id));
            let fed = live.feed(pb, &mut oracle);
            if let Some(span) = span {
                spans.close(span);
            }
            let (latency, decisions, wrong) = match fed {
                Ok(fed) => fed,
                Err(e) => {
                    oracle.check(false, || e);
                    break 'window;
                }
            };
            attempted += pb.subs.len() as u64;
            failed += wrong;
            // An untraced phase's first batch may follow a probe pass.
            if traced || j > 0 {
                latency_ms.push(ms(latency));
            }
            if let (Some(root), Some(decisions)) = (root, decisions) {
                if j.is_multiple_of(2) {
                    let span = spans.open("probes", trace_id, root.id);
                    kit.probe(pb, &decisions, &mut spans, trace_id, span.id, &mut oracle);
                    spans.close(span);
                }
            }
            if let Some(root) = root {
                spans.close(root);
            }
            k += 1;
            j += 1;
        }
        if !latency_ms.is_empty() {
            (if traced {
                &mut traced_p50
            } else {
                &mut untraced_p50
            })
            .push(median(&latency_ms));
        }
    }
    let elapsed = window_start.elapsed().as_secs_f64();
    let after = Edge::read(&live.dep);
    let walls: Vec<f64> = live.dep.batch_wall()[before.walls..]
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let finish_span = spans.open("finish", 0, 0);
    let finish_ms = ms(live.finish(set.afe, &mut oracle));
    spans.close(finish_span);
    kit.check_accumulators(&mut oracle);

    let net = after.net.diff(&before.net);
    let obs = after.obs.diff(&before.obs);
    let window_batches = k.max(1) as f64;
    let frames = net.total_msgs();
    // `batch_p50_ms` as `--trace 0` reads it, from the untraced phases.
    let p50 = better_quartile(&untraced_p50, false);
    if !spec.adversarial {
        // Honest fabrics carry exactly the frames the probes replay.
        let frames_expected = 5.0 * spec.servers as f64 - 3.0;
        let per_batch = net.total_sent() as f64 / window_batches;
        oracle.check(per_batch == kit.samples.wire_bytes(), || {
            format!(
                "wire probe: {} bytes per batch, deployment sent {per_batch}",
                kit.samples.wire_bytes()
            )
        });
        oracle.check(frames as f64 == frames_expected * window_batches, || {
            format!("net: {frames} frames in {k} batches, expected {frames_expected} per batch")
        });
    }
    let mut metrics: Vec<Metric> = kit
        .samples
        .metrics()
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect();
    metrics.push(metric(
        "net.frames_per_batch",
        frames as f64 / window_batches,
        "count",
    ));
    metrics.push(metric(
        "net.retry_attempts_per_frame",
        obs.counter_sum(names::RETRY_ATTEMPTS) as f64 / frames.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "net.faults_injected",
        obs.counter_sum(names::NET_FAULTS_INJECTED) as f64,
        "count",
    ));
    metrics.push(metric("deployment.batch_wall_us", median(&walls), "us"));
    metrics.push(metric("deployment.finish_ms", finish_ms, "ms"));
    metrics.push(metric(
        "driver.batches_complete",
        (after.outcomes.0 - before.outcomes.0) as f64,
        "count",
    ));
    metrics.push(metric(
        "driver.batches_degraded",
        (after.outcomes.1 - before.outcomes.1) as f64,
        "count",
    ));
    metrics.push(metric(
        "driver.batches_aborted",
        (after.outcomes.2 - before.outcomes.2) as f64,
        "count",
    ));
    metrics.push(metric(
        "server.dedup_total",
        obs.counter_sum(names::SERVER_FRAMES_DEDUPED) as f64,
        "count",
    ));
    let steps = kit.samples.path_medians();
    let attributed: f64 = steps.iter().sum();
    let remainder = p50 * 1e3 - attributed;
    let terms: Vec<String> = probes::PATH_STEPS
        .iter()
        .zip(steps)
        .map(|(name, v)| format!("{name} {v:.1}"))
        .collect();
    metrics.push(Metric {
        name: "deployment.unattributed_us_per_batch",
        value: remainder,
        unit: "us",
        note: format!(
            "= batch_p50_us {:.1} (lower quartile of {} untraced phase medians) - critical path [{}] (medians over {} probed batches; {attributed:.1} + {remainder:.1} = {:.1})",
            p50 * 1e3,
            untraced_p50.len(),
            terms.join(" + "),
            kit.samples.batches,
            attributed + remainder
        ),
    });
    let traced = better_quartile(&traced_p50, false);
    metrics.push(Metric {
        name: "trace.overhead_pct",
        value: (traced / p50 - 1.0) * 100.0,
        unit: "%",
        note: format!(
            "batch_p50_ms traced {traced:.4} ({} phases) vs untraced {p50:.4} ({} phases)",
            traced_p50.len(),
            untraced_p50.len()
        ),
    });
    notes.push(format!(
        "window: {k} batches in {phases} phases, {elapsed:.3} s, {} probed; spans recorded: {}",
        kit.samples.batches,
        spans.len()
    ));
    Report {
        metrics,
        attempted,
        failed,
        oracle,
        notes,
        chrome_trace: Some(spans.to_chrome_json()),
    }
}
