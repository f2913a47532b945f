//! Scenario execution: turns a [`Scenario`] description into a measured
//! [`Record`].
//!
//! All randomness flows through the workspace's deterministic `rand` shim,
//! seeded from the scenario, so two runs of the same registry measure the
//! exact same work (only the wall-clock numbers vary).

use crate::json::Json;
use crate::scenario::{AfeKind, Backend, FieldKind, Group, Scenario};
use crate::stats::{time_once, Summary};
use prio_afe::linreg::{Example, LinRegAfe};
use prio_afe::mostpop::MostPopularAfe;
use prio_afe::sum::SumAfe;
use prio_afe::{freq::FrequencyAfe, Afe};
use prio_baselines::nizk::{client_submission, NizkCluster};
use prio_core::{Client, ClientConfig, Cluster, Deployment, DeploymentConfig};
use prio_field::{Field128, Field64, FieldElement};
use prio_net::FaultPlan;
use prio_proc::spec::encode_submissions;
use prio_proc::{AfeSpec, FieldSpec, ProcConfig, ProcDeployment, ProcReport};
use prio_snip::HForm;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// One measured scenario: its identity, parameters, and metrics.
#[derive(Clone, Debug)]
pub struct Record {
    /// Scenario name (unique within a registry).
    pub name: String,
    /// Experiment family.
    pub group: Group,
    /// The scenario parameters, serialized.
    pub params: Json,
    /// Measured metrics (shape varies by group).
    pub metrics: Json,
}

impl Record {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("group", Json::Str(self.group.tag().into())),
            ("params", self.params.clone()),
            ("metrics", self.metrics.clone()),
        ])
    }
}

/// Runs one scenario to completion.
pub fn run_scenario(sc: &Scenario) -> Record {
    run_scenario_traced(sc).0
}

/// Runs one scenario and also returns the merged trace timeline, when the
/// scenario family records one (`sc.traced` throughput runs on the
/// deployment or proc backends). The same timeline is embedded in the
/// record's `trace` metrics block; the structured copy is for consumers
/// that need exact span ids — the Chrome exporter behind
/// `prio-bench --trace`.
pub fn run_scenario_traced(sc: &Scenario) -> (Record, Option<prio_obs::trace::MergedTrace>) {
    let before = prio_obs::Registry::global().snapshot();
    let (mut metrics, trace) = match sc.group {
        Group::Throughput => run_throughput(sc),
        Group::EncodeVerify => (run_encode_verify(sc), None),
        Group::Bandwidth => (run_bandwidth(sc), None),
        Group::Baseline => (run_baseline(sc), None),
        Group::BatchVerify => (run_batch_verify(sc), None),
        Group::ConnSweep => (run_conn_sweep(sc), None),
        Group::Robustness => (run_robustness(sc), None),
    };
    // Registry-derived observability block: what this scenario did to the
    // process-wide metrics (phase-latency percentiles, drop and reject
    // counters). Proc-backend runners attach their own block built from
    // the node processes' scraped registries; everyone else gets the
    // local-registry delta.
    if metrics.get("obs").is_none() {
        let delta = prio_obs::Registry::global().snapshot().diff(&before);
        attach_obs(&mut metrics, obs_block(&delta));
    }
    let record = Record {
        name: sc.name.clone(),
        group: sc.group,
        params: sc.params_json(),
        metrics,
    };
    (record, trace)
}

/// Appends an `obs` entry to a metrics object (no-op on non-objects).
fn attach_obs(metrics: &mut Json, block: Json) {
    if let Json::Obj(pairs) = metrics {
        pairs.push(("obs".into(), block));
    }
}

/// Builds the `obs` metrics block from a registry snapshot: per-phase
/// latency percentiles out of the `server_phase_us` histograms plus the
/// drop/reject counters — the same numbers an operator would read off a
/// live `GetMetrics` scrape, so bench output and monitoring agree.
fn obs_block(snap: &prio_obs::Snapshot) -> Json {
    use prio_obs::names;
    let phase = |name: &str| -> Json {
        match snap.histogram(names::SERVER_PHASE_US, &[("phase", name)]) {
            Some(h) if h.count > 0 => Json::obj(vec![
                ("p50_us", Json::Num(h.quantile(0.50) as f64)),
                ("p95_us", Json::Num(h.quantile(0.95) as f64)),
                ("p99_us", Json::Num(h.quantile(0.99) as f64)),
                ("count", Json::Num(h.count as f64)),
            ]),
            _ => Json::Null,
        }
    };
    Json::obj(vec![
        (
            "phase_us",
            Json::obj(vec![
                ("unpack", phase("unpack")),
                ("round1", phase("round1")),
                ("round2", phase("round2")),
                ("publish", phase("publish")),
            ]),
        ),
        (
            "frames_dropped",
            Json::Num(snap.counter_sum(names::SERVER_FRAMES_DROPPED) as f64),
        ),
        (
            "submissions_accepted",
            Json::Num(snap.counter_sum(names::SERVER_SUBMISSIONS_ACCEPTED) as f64),
        ),
        (
            "submissions_rejected",
            Json::Num(snap.counter_sum(names::SERVER_SUBMISSIONS_REJECTED) as f64),
        ),
        (
            "net_send_failures",
            Json::Num(snap.counter_sum(names::NET_SEND_FAILURES) as f64),
        ),
    ])
}

/// Builds the `trace` metrics block from a merged timeline: the schema
/// tag, the full span list, and the critical-path attribution. Span /
/// trace / parent ids are full-range 64-bit FNV values — beyond f64's
/// exact-integer range — so they are emitted as decimal strings; every
/// other field fits a JSON number exactly.
fn trace_block(merged: &prio_obs::trace::MergedTrace) -> Json {
    let cp = prio_obs::trace::critical_path(&merged.spans);
    let id = |v: u64| Json::Str(v.to_string());
    let spans = merged
        .spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", id(s.id)),
                ("parent", id(s.parent)),
                ("trace", id(s.trace)),
                ("node", Json::Num(s.node as f64)),
                ("kind", Json::Str(s.kind.name().into())),
                ("phase", Json::Str(s.phase.into())),
                ("ts_us", Json::Num(s.start_us as f64)),
                ("end_us", Json::Num(s.end_us as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str(prio_obs::trace::TRACE_SCHEMA.into())),
        ("batches", Json::Num(cp.batches as f64)),
        ("dropped", Json::Num(merged.dropped as f64)),
        ("spans", Json::Arr(spans)),
        (
            "critical_path",
            Json::obj(vec![
                ("compute_us", Json::Num(cp.compute_us as f64)),
                ("network_wait_us", Json::Num(cp.network_wait_us as f64)),
                ("batch_wall_us", Json::Num(cp.batch_wall_us as f64)),
                (
                    "per_node",
                    Json::Arr(
                        cp.per_node
                            .iter()
                            .map(|nc| {
                                Json::obj(vec![
                                    ("node", Json::Num(nc.node as f64)),
                                    ("compute_us", Json::Num(nc.compute_us as f64)),
                                    ("wait_us", Json::Num(nc.wait_us as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// Appends a `trace` entry to a metrics object (no-op on non-objects).
fn attach_trace(metrics: &mut Json, merged: &prio_obs::trace::MergedTrace) {
    if let Json::Obj(pairs) = metrics {
        pairs.push(("trace".into(), trace_block(merged)));
    }
}

fn sum_inputs(bits: usize, n: usize, rng: &mut StdRng) -> Vec<u64> {
    let max = 1u64 << bits;
    (0..n).map(|_| rng.random_range(0..max)).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Figure 4: throughput vs. number of servers (threaded deployment).
// ---------------------------------------------------------------------------

fn run_throughput(sc: &Scenario) -> (Json, Option<prio_obs::trace::MergedTrace>) {
    if sc.backend == Backend::Proc {
        return run_throughput_proc(sc);
    }
    let Backend::Deployment(transport) = sc.backend else {
        panic!("throughput scenarios run on the threaded deployment");
    };
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let afe = SumAfe::new(sc.size as u32);
    let mut cfg = DeploymentConfig::new(sc.servers)
        .with_verify_mode(sc.verify_mode)
        .with_transport(transport);
    if let Some(latency) = sc.latency {
        cfg = cfg.with_latency(latency);
    }
    if sc.traced {
        cfg = cfg.with_trace();
    }
    let mut deployment: Deployment<Field64> = Deployment::start(afe.clone(), cfg);
    let mut client = Client::new(afe, ClientConfig::new(sc.servers));
    let subs: Vec<_> = sum_inputs(sc.size, sc.submissions, &mut rng)
        .iter()
        .map(|v| client.submit(v, &mut rng).expect("honest input"))
        .collect();

    let summary = sc.runner.measure(|_| {
        let decisions = deployment.run_batch(&subs);
        assert!(decisions.iter().all(|&d| d), "honest batch rejected");
    });
    let report = deployment.finish();
    let runs = (sc.runner.warmup + sc.runner.iters) as u64;
    assert_eq!(report.accepted, sc.submissions as u64 * runs);

    let (leader, non_leader) = report.leader_vs_non_leader_bytes();
    let throughput = sc.submissions as f64 / (summary.median_ms / 1e3);
    let mut metrics = Json::obj(vec![
        ("batch_wall", summary.to_json()),
        ("throughput_sub_per_s", Json::Num(throughput)),
        ("upload_bytes_per_sub", Json::Num(subs[0].upload_bytes() as f64)),
        ("leader_bytes_sent", Json::Num(leader as f64)),
        ("max_non_leader_bytes_sent", Json::Num(non_leader as f64)),
    ]);
    if let Some(merged) = &report.trace {
        attach_trace(&mut metrics, merged);
    }
    (metrics, report.trace)
}

// ---------------------------------------------------------------------------
// Multi-process backend (prio_proc): the same fig4/fig6 experiments with
// every server as a real OS process and submissions from a prio-submit
// driver process.
// ---------------------------------------------------------------------------

fn proc_config(sc: &Scenario) -> ProcConfig {
    assert!(sc.latency.is_none(), "the proc backend has no latency model");
    let afe = AfeSpec::parse(sc.afe.tag(), sc.size as u64).expect("afe tag maps to a spec");
    let field = FieldSpec::parse(sc.field.tag()).expect("field tag maps to a spec");
    let mut cfg = ProcConfig::new(sc.servers, afe, field, sc.submissions)
        .with_batch(sc.batch)
        .with_runs(sc.runner.warmup + sc.runner.iters)
        .with_seed(sc.seed)
        .with_verify_mode(sc.verify_mode)
        .with_verify_threads(sc.verify_threads);
    if sc.traced {
        cfg = cfg.with_trace();
    }
    cfg
}

/// The proc backend's obs block: the node processes have their own
/// registries, so the local delta sees nothing — merge the per-node
/// snapshots the orchestrator scraped over `GetMetrics` instead.
fn proc_obs_block(report: &ProcReport) -> Json {
    let merged = report
        .node_metrics
        .iter()
        .fold(prio_obs::Snapshot::default(), |acc, s| acc.merge(s));
    obs_block(&merged)
}

fn run_proc(sc: &Scenario) -> ProcReport {
    let runs = (sc.runner.warmup + sc.runner.iters) as u64;
    let report = ProcDeployment::launch(proc_config(sc))
        .and_then(ProcDeployment::run)
        .unwrap_or_else(|e| panic!("proc deployment failed for {}: {e}", sc.name));
    assert_eq!(report.accepted, sc.submissions as u64 * runs, "honest batch rejected");
    assert!(report.clean_exit, "child processes must exit cleanly");
    report
}

/// Client-side upload size per submission (blob bytes across all servers)
/// — the same quantity the in-process fig4 records, independent of the
/// submitted value for a fixed AFE.
fn proc_upload_bytes_per_sub(sc: &Scenario) -> usize {
    let afe = AfeSpec::parse(sc.afe.tag(), sc.size as u64).expect("afe tag maps to a spec");
    match sc.field {
        FieldKind::F64 => {
            encode_submissions::<Field64>(afe, sc.servers, HForm::PointValue, 1, sc.seed, 0)
                .expect("honest encode")[0]
                .upload_bytes()
        }
        FieldKind::F128 => {
            encode_submissions::<Field128>(afe, sc.servers, HForm::PointValue, 1, sc.seed, 0)
                .expect("honest encode")[0]
                .upload_bytes()
        }
    }
}

fn run_throughput_proc(sc: &Scenario) -> (Json, Option<prio_obs::trace::MergedTrace>) {
    let report = run_proc(sc);
    // The driver reports one wall-clock entry per run_batch call; group
    // them back into per-run (full submission set) durations and drop the
    // warmup runs, mirroring Runner::measure.
    let chunks_per_run = sc.submissions.div_ceil(sc.batch);
    let per_run: Vec<Duration> = report
        .batch_wall
        .chunks(chunks_per_run)
        .map(|chunk| chunk.iter().sum())
        .collect();
    assert_eq!(per_run.len(), sc.runner.warmup + sc.runner.iters);
    let summary = Summary::from_durations(&per_run[sc.runner.warmup..]);
    let throughput = sc.submissions as f64 / (summary.median_ms / 1e3);
    // Lifetime totals (incl. the accumulator reveal), matching what the
    // in-process rows put under the same keys — NOT the verify-phase-only
    // split ProcReport::leader_vs_non_leader_bytes() reports for fig6.
    let totals = report.server_total_bytes();
    let leader = totals.first().copied().unwrap_or(0);
    let non_leader = totals.get(1..).unwrap_or(&[]).iter().copied().max().unwrap_or(0);
    let mut metrics = Json::obj(vec![
        ("batch_wall", summary.to_json()),
        ("throughput_sub_per_s", Json::Num(throughput)),
        (
            "upload_bytes_per_sub",
            Json::Num(proc_upload_bytes_per_sub(sc) as f64),
        ),
        ("leader_bytes_sent", Json::Num(leader as f64)),
        ("max_non_leader_bytes_sent", Json::Num(non_leader as f64)),
        ("processes", Json::Num(sc.servers as f64 + 1.0)),
        ("obs", proc_obs_block(&report)),
    ]);
    let trace = report.merged_trace();
    if let Some(merged) = &trace {
        attach_trace(&mut metrics, merged);
    }
    (metrics, trace)
}

fn run_bandwidth_proc(sc: &Scenario) -> Json {
    let report = run_proc(sc);
    let n = (sc.submissions * (sc.runner.warmup + sc.runner.iters)) as f64;
    let per_server = report.server_verify_bytes();
    let leader = per_server[0];
    let max_non_leader = per_server[1..].iter().copied().max().unwrap_or(0);
    let ratio = leader as f64 / max_non_leader.max(1) as f64;
    // Publish traffic: the nodes' accumulator reveals (everything they
    // sent after the publish request arrived) plus the driver's publish
    // request and shutdown frames — the same attribution the in-process
    // backends derive from their publish-phase snapshot diff, so this key
    // is comparable across all three fabrics.
    let publish_total: u64 = report
        .node_stats
        .iter()
        .map(|s| s.total_bytes_sent - s.verify_bytes_sent)
        .sum::<u64>()
        + report.driver_publish_bytes;
    Json::obj(vec![
        ("upload_bytes_per_sub", Json::Num(report.upload_bytes as f64 / n)),
        (
            "verify_bytes_per_server_per_sub",
            Json::Arr(per_server.iter().map(|&b| Json::Num(b as f64 / n)).collect()),
        ),
        ("leader_bytes_per_sub", Json::Num(leader as f64 / n)),
        (
            "max_non_leader_bytes_per_sub",
            Json::Num(max_non_leader as f64 / n),
        ),
        ("leader_over_non_leader", Json::Num(ratio)),
        ("publish_bytes_total", Json::Num(publish_total as f64)),
        ("processes", Json::Num(sc.servers as f64 + 1.0)),
        ("obs", proc_obs_block(&report)),
    ])
}

// ---------------------------------------------------------------------------
// Figure 5: client encode / server verify cost vs. submission length.
// ---------------------------------------------------------------------------

fn run_encode_verify(sc: &Scenario) -> Json {
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let n = sc.submissions;
    match (sc.field, sc.afe) {
        (FieldKind::F64, AfeKind::Sum) => {
            let inputs = sum_inputs(sc.size, n, &mut rng);
            encode_verify::<Field64, _>(SumAfe::new(sc.size as u32), &inputs, sc)
        }
        (FieldKind::F128, AfeKind::Sum) => {
            let inputs = sum_inputs(sc.size, n, &mut rng);
            encode_verify::<Field128, _>(SumAfe::new(sc.size as u32), &inputs, sc)
        }
        (FieldKind::F64, AfeKind::Freq) => {
            let inputs: Vec<usize> = (0..n).map(|_| rng.random_range(0..sc.size)).collect();
            encode_verify::<Field64, _>(FrequencyAfe::new(sc.size), &inputs, sc)
        }
        (FieldKind::F128, AfeKind::Freq) => {
            let inputs: Vec<usize> = (0..n).map(|_| rng.random_range(0..sc.size)).collect();
            encode_verify::<Field128, _>(FrequencyAfe::new(sc.size), &inputs, sc)
        }
        (FieldKind::F64, AfeKind::LinReg) => {
            let inputs = linreg_inputs(sc.size, n, &mut rng);
            encode_verify::<Field64, _>(LinRegAfe::new(sc.size, 8), &inputs, sc)
        }
        (FieldKind::F128, AfeKind::LinReg) => {
            let inputs = linreg_inputs(sc.size, n, &mut rng);
            encode_verify::<Field128, _>(LinRegAfe::new(sc.size, 8), &inputs, sc)
        }
        (FieldKind::F64, AfeKind::MostPop) => {
            let inputs = sum_inputs(sc.size.min(63), n, &mut rng);
            encode_verify::<Field64, _>(MostPopularAfe::new(sc.size as u32), &inputs, sc)
        }
        (FieldKind::F128, AfeKind::MostPop) => {
            let inputs = sum_inputs(sc.size.min(63), n, &mut rng);
            encode_verify::<Field128, _>(MostPopularAfe::new(sc.size as u32), &inputs, sc)
        }
    }
}

fn linreg_inputs(dim: usize, n: usize, rng: &mut StdRng) -> Vec<Example> {
    (0..n)
        .map(|_| Example {
            features: (0..dim).map(|_| rng.random_range(0..256u64)).collect(),
            y: rng.random_range(0..256u64),
        })
        .collect()
}

fn encode_verify<F: FieldElement, A: Afe<F> + Clone>(
    afe: A,
    inputs: &[A::Input],
    sc: &Scenario,
) -> Json {
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 1);
    let mut cluster: Cluster<F, A> = Cluster::with_options(
        afe.clone(),
        sc.servers,
        sc.verify_mode,
        HForm::PointValue,
        sc.batch,
    );
    let encoded_len = afe.encoded_len();
    let mut client = Client::new(afe, ClientConfig::new(sc.servers));
    let n = inputs.len() as u32;

    let mut encode_samples = Vec::with_capacity(sc.runner.iters);
    let mut verify_samples = Vec::with_capacity(sc.runner.iters);
    let mut upload_bytes = 0;
    let mut non_leader_bytes_before = 0;
    for run in 0..sc.runner.warmup + sc.runner.iters {
        let (subs, encode_wall) = time_once(|| {
            inputs
                .iter()
                .map(|input| client.submit(input, &mut rng).expect("honest input"))
                .collect::<Vec<_>>()
        });
        upload_bytes = subs[0].upload_bytes();
        if run == sc.runner.warmup {
            cluster.reset_timings();
            // Byte counters have no reset; remember the warmup baseline so
            // the per-sub byte metric covers the same runs as the timings.
            non_leader_bytes_before = cluster.verification_bytes_sent()[1];
        }
        let (ok, verify_wall) =
            time_once(|| subs.iter().filter(|sub| cluster.process(sub)).count());
        assert_eq!(ok, inputs.len(), "honest submission rejected");
        if run >= sc.runner.warmup {
            encode_samples.push(encode_wall / n);
            verify_samples.push(verify_wall / n);
        }
    }

    let timings = cluster.timings();
    let per_sub = |d: Duration| ms(d) / timings.submissions as f64;
    Json::obj(vec![
        ("encoded_len", Json::Num(encoded_len as f64)),
        ("upload_bytes_per_sub", Json::Num(upload_bytes as f64)),
        ("encode_ms_per_sub", Summary::from_durations(&encode_samples).to_json()),
        ("verify_ms_per_sub", Summary::from_durations(&verify_samples).to_json()),
        (
            "verify_phase_ms_per_sub",
            Json::obj(vec![
                ("unpack", Json::Num(per_sub(timings.unpack))),
                ("round1", Json::Num(per_sub(timings.round1))),
                ("round2", Json::Num(per_sub(timings.round2))),
            ]),
        ),
        (
            "non_leader_verify_bytes_per_sub",
            Json::Num(
                (cluster.verification_bytes_sent()[1] - non_leader_bytes_before) as f64
                    / timings.submissions as f64,
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Figure 6: per-node bandwidth and the leader/non-leader asymmetry.
// ---------------------------------------------------------------------------

fn run_bandwidth(sc: &Scenario) -> Json {
    if sc.backend == Backend::Proc {
        return run_bandwidth_proc(sc);
    }
    let Backend::Deployment(transport) = sc.backend else {
        panic!("bandwidth scenarios run on the threaded deployment");
    };
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let afe = SumAfe::new(sc.size as u32);
    let cfg = DeploymentConfig::new(sc.servers)
        .with_verify_mode(sc.verify_mode)
        .with_transport(transport);
    let mut deployment: Deployment<Field64> = Deployment::start(afe.clone(), cfg);
    let mut client = Client::new(afe, ClientConfig::new(sc.servers));
    let subs: Vec<_> = sum_inputs(sc.size, sc.submissions, &mut rng)
        .iter()
        .map(|v| client.submit(v, &mut rng).expect("honest input"))
        .collect();

    // Phase attribution via fabric snapshots: everything between the two
    // snapshots is the batch phase (upload + SNIP verification); everything
    // after is the publish phase (accumulator reveal).
    let server_ids = deployment.server_ids().to_vec();
    let before = deployment.network().snapshot();
    let decisions = deployment.run_batch(&subs);
    assert!(decisions.iter().all(|&d| d));
    let after_batch = deployment.network().snapshot();
    let report = deployment.finish();

    let batch_phase = after_batch.diff(&before);
    let publish_phase = report.stats.diff(&after_batch);
    let n = sc.submissions as f64;
    // The driver plays the clients: its sent bytes are the upload traffic.
    let upload: u64 = batch_phase
        .bytes_sent
        .iter()
        .filter(|(id, _)| !server_ids.contains(id))
        .map(|(_, &v)| v)
        .sum();
    let per_server: Vec<u64> = server_ids
        .iter()
        .map(|id| batch_phase.bytes_sent.get(id).copied().unwrap_or(0))
        .collect();
    let leader = per_server[0];
    let max_non_leader = per_server[1..].iter().copied().max().unwrap_or(0);
    let ratio = leader as f64 / max_non_leader.max(1) as f64;
    Json::obj(vec![
        ("upload_bytes_per_sub", Json::Num(upload as f64 / n)),
        (
            "verify_bytes_per_server_per_sub",
            Json::Arr(per_server.iter().map(|&b| Json::Num(b as f64 / n)).collect()),
        ),
        ("leader_bytes_per_sub", Json::Num(leader as f64 / n)),
        (
            "max_non_leader_bytes_per_sub",
            Json::Num(max_non_leader as f64 / n),
        ),
        ("leader_over_non_leader", Json::Num(ratio)),
        ("publish_bytes_total", Json::Num(publish_phase.total_bytes() as f64)),
        ("batch_msgs_total", Json::Num(batch_phase.total_msgs() as f64)),
    ])
}

// ---------------------------------------------------------------------------
// Appendix-I batching: verify throughput vs. batch size × thread count.
// ---------------------------------------------------------------------------

/// Measures server verify throughput over a fixed pre-encoded submission
/// set. `batch = 1` gives every submission its own verification context
/// (kernel precompute + setup) via [`Cluster::process`] or a one-submission
/// `run_batch` call. Larger batches share one context per `batch`
/// submissions (scratch reuse, optional verify pool). Both run the same
/// batch-verification core with the same decisions; only the amortization
/// changes.
fn run_batch_verify(sc: &Scenario) -> Json {
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let afe = SumAfe::new(sc.size as u32);
    let mut client = Client::new(afe.clone(), ClientConfig::new(sc.servers));
    let subs: Vec<_> = sum_inputs(sc.size, sc.submissions, &mut rng)
        .iter()
        .map(|v| client.submit(v, &mut rng).expect("honest input"))
        .collect();
    let runs = (sc.runner.warmup + sc.runner.iters) as u64;

    let (summary, phases) = match sc.backend {
        Backend::Cluster => {
            let mut cluster: Cluster<Field64, _> = Cluster::with_options(
                afe,
                sc.servers,
                sc.verify_mode,
                HForm::PointValue,
                sc.batch,
            )
            .with_verify_threads(sc.verify_threads);
            let summary = sc.runner.measure(|_| {
                let decisions: Vec<bool> = if sc.batch == 1 {
                    subs.iter().map(|sub| cluster.process(sub)).collect()
                } else {
                    cluster.process_batch(&subs)
                };
                assert!(decisions.iter().all(|&d| d), "honest batch rejected");
            });
            assert_eq!(cluster.accepted(), sc.submissions as u64 * runs);
            let t = cluster.timings();
            let per_sub = |d: Duration| ms(d) / t.submissions as f64;
            let phases = Json::obj(vec![
                ("unpack", Json::Num(per_sub(t.unpack))),
                ("round1", Json::Num(per_sub(t.round1))),
                ("round2", Json::Num(per_sub(t.round2))),
            ]);
            (summary, phases)
        }
        Backend::Deployment(transport) => {
            let cfg = DeploymentConfig::new(sc.servers)
                .with_verify_mode(sc.verify_mode)
                .with_transport(transport)
                .with_verify_threads(sc.verify_threads);
            let mut deployment: Deployment<Field64> = Deployment::start(afe, cfg);
            let summary = sc.runner.measure(|_| {
                for chunk in subs.chunks(sc.batch) {
                    let decisions = deployment.run_batch(chunk);
                    assert!(decisions.iter().all(|&d| d), "honest batch rejected");
                }
            });
            let report = deployment.finish();
            assert_eq!(report.accepted, sc.submissions as u64 * runs);
            (summary, Json::Null)
        }
        Backend::Proc => panic!("batch-verify scenarios run in-process"),
    };

    let throughput = sc.submissions as f64 / (summary.median_ms / 1e3);
    Json::obj(vec![
        ("verify_wall_ms", summary.to_json()),
        ("throughput_sub_per_s", Json::Num(throughput)),
        ("batch", Json::Num(sc.batch as f64)),
        ("threads", Json::Num(sc.verify_threads as f64)),
        ("verify_phase_ms_per_sub", phases),
    ])
}

// ---------------------------------------------------------------------------
// Figure-4 companion: connection churn against one TCP endpoint.
// ---------------------------------------------------------------------------

/// Dials the churn endpoint, riding out transient refusals while the
/// listener's backlog (128 on Linux) drains under load.
fn connect_with_retry(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
            Ok(stream) => return stream,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "connect to churn endpoint keeps failing: {e}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Connection churn against one raw TCP endpoint: `sc.submissions` client
/// connections are opened concurrently (8 dialer threads), held until the
/// server has accepted every one of them, and then each sends a single
/// 64-byte frame and closes. No protocol runs — this isolates what the
/// endpoint's inbound reactor costs for accept, per-connection state, and
/// teardown, and checks that every delivered payload byte is counted.
fn run_conn_sweep(sc: &Scenario) -> Json {
    use prio_net::tcp::encode_frame;
    use prio_net::{Endpoint, NodeId, TcpTransport};
    use std::io::Write as _;
    use std::sync::Barrier;

    const DIALERS: usize = 8;
    const PAYLOAD_LEN: usize = 64;

    let conns = sc.submissions;
    let before = prio_obs::Registry::global().snapshot();
    let net = TcpTransport::new();
    let Endpoint::Tcp(mut server) = net
        .try_endpoint_with_id(NodeId(0))
        .expect("churn endpoint binds an ephemeral port")
    else {
        unreachable!("a TCP transport yields TCP endpoints")
    };
    let addr = server.local_addr();
    let bytes_before = server.bytes_received();

    let mut peak_conns = 0u64;
    let summary = sc.runner.measure(|_| {
        // Dialers + the draining main thread meet at the barrier once every
        // connection is up, so the endpoint really holds `conns` live
        // connections at the peak before the short-lived send/close churn.
        let barrier = Barrier::new(DIALERS + 1);
        std::thread::scope(|scope| {
            for w in 0..DIALERS {
                let barrier = &barrier;
                let share = conns / DIALERS + usize::from(w < conns % DIALERS);
                scope.spawn(move || {
                    let mut streams = Vec::with_capacity(share);
                    for _ in 0..share {
                        streams.push(connect_with_retry(addr));
                    }
                    barrier.wait();
                    let frame = encode_frame(NodeId(1000 + w), &[0xA5; PAYLOAD_LEN])
                        .expect("payload fits in a frame");
                    for stream in &mut streams {
                        stream.write_all(&frame).expect("churn frame write");
                    }
                    // Dropping the streams closes them: the churn half.
                });
            }
            // Wait until the server side has accepted everything the
            // dialers opened — that moment is the concurrency peak.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while server.inbound_conns() < conns as u64 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "endpoint accepted only {}/{conns} connections",
                    server.inbound_conns()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            peak_conns = peak_conns.max(server.inbound_conns());
            barrier.wait();
            for _ in 0..conns {
                let env = server
                    .recv_timeout(Duration::from_secs(30))
                    .expect("every churn frame is delivered");
                assert_eq!(env.payload.len(), PAYLOAD_LEN);
            }
        });
    });
    let bytes_received = server.bytes_received() - bytes_before;
    server.close();

    let iters = sc.runner.iters as u64;
    assert_eq!(bytes_received, (conns * PAYLOAD_LEN) as u64 * iters);
    assert!(peak_conns >= conns as u64, "never reached the concurrency peak");

    // Reactor-loop counters out of the global registry.
    let delta = prio_obs::Registry::global().snapshot().diff(&before);
    let conns_per_s = conns as f64 / (summary.median_ms / 1e3);
    Json::obj(vec![
        ("churn_wall", summary.to_json()),
        ("conns", Json::Num(conns as f64)),
        ("conns_per_s", Json::Num(conns_per_s)),
        ("peak_inbound_conns", Json::Num(peak_conns as f64)),
        ("frames_received_total", Json::Num((conns as u64 * iters) as f64)),
        ("bytes_received_total", Json::Num(bytes_received as f64)),
        (
            "reactor_accepted_total",
            Json::Num(delta.counter_sum(prio_obs::names::NET_REACTOR_ACCEPTED) as f64),
        ),
        (
            "reactor_poll_wakeups_total",
            Json::Num(delta.counter_sum(prio_obs::names::NET_REACTOR_POLL_WAKEUPS) as f64),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Figure 7 (§7 availability): the pipeline under seeded fault injection.
// ---------------------------------------------------------------------------

/// The robustness family's exactness ledger: every count that must balance
/// and, on the sim backend, replay bit-identically under the same fault
/// seed. Wall-clock numbers live *outside* this object so a replay
/// comparison can diff it verbatim.
fn ledger_json(
    sent: u64,
    accepted: u64,
    rejected: u64,
    dropped: u64,
    outcomes: (u64, u64, u64),
    obs: &prio_obs::Snapshot,
) -> Json {
    assert_eq!(
        accepted + rejected + dropped,
        sent,
        "exactness ledger out of balance: {accepted} + {rejected} + {dropped} != {sent}"
    );
    let (complete, degraded, aborted) = outcomes;
    Json::obj(vec![
        ("sent", Json::Num(sent as f64)),
        ("accepted", Json::Num(accepted as f64)),
        ("rejected", Json::Num(rejected as f64)),
        ("dropped", Json::Num(dropped as f64)),
        ("batches_complete", Json::Num(complete as f64)),
        ("batches_degraded", Json::Num(degraded as f64)),
        ("batches_aborted", Json::Num(aborted as f64)),
        (
            "faults_injected",
            Json::Num(obs.counter_sum(prio_obs::names::NET_FAULTS_INJECTED) as f64),
        ),
        (
            "retry_attempts",
            Json::Num(obs.counter_sum(prio_obs::names::RETRY_ATTEMPTS) as f64),
        ),
        (
            "frames_deduped",
            Json::Num(obs.counter_sum(prio_obs::names::SERVER_FRAMES_DEDUPED) as f64),
        ),
        (
            "batches_abandoned",
            Json::Num(obs.counter_sum(prio_obs::names::SERVER_BATCHES_ABANDONED) as f64),
        ),
    ])
}

/// Runs the full sum pipeline under the scenario's fault plan and reports
/// the exactness ledger plus wall clock. Driver and server endpoints are
/// all faulted; on the sim fabric the resulting ledger is bit-replayable
/// under the same fault seed (the CI chaos gate asserts this).
fn run_robustness(sc: &Scenario) -> Json {
    if sc.backend == Backend::Proc {
        return run_robustness_proc(sc);
    }
    let Backend::Deployment(transport) = sc.backend else {
        panic!("robustness scenarios need a fabric");
    };
    assert!(
        sc.drop_permille + sc.dup_permille > 0,
        "a robustness scenario must inject something"
    );
    let before = prio_obs::Registry::global().snapshot();
    let plan = FaultPlan::seeded(sc.fault_seed)
        .with_drop_permille(sc.drop_permille)
        .with_dup_permille(sc.dup_permille);
    // Server round traffic is faulted too: drop is sender-visible (and
    // retried) and duplicates are killed by dedup + batch-ctx filtering,
    // so each link's outbound frame sequence — and with it the seeded
    // fault rolls and the whole ledger — stays deterministic even with
    // the servers on their own threads.
    let cfg = DeploymentConfig::new(sc.servers)
        .with_verify_mode(sc.verify_mode)
        .with_transport(transport)
        .with_fault_plan(plan)
        .with_server_faults()
        .with_batch_deadline(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let afe = SumAfe::new(sc.size as u32);
    let mut deployment: Deployment<Field64> = Deployment::start(afe.clone(), cfg);
    let mut client = Client::new(afe, ClientConfig::new(sc.servers));
    let subs: Vec<_> = sum_inputs(sc.size, sc.submissions, &mut rng)
        .iter()
        .map(|v| client.submit(v, &mut rng).expect("honest input"))
        .collect();

    let summary = sc.runner.measure(|_| {
        for chunk in subs.chunks(sc.batch) {
            // Degraded is an expected outcome here; only a dead fabric
            // (driver endpoint closed) is an error.
            deployment.run_batch_outcome(chunk).expect("fabric alive");
        }
    });
    // Lossy finish: at aggressive drop rates even the final publish
    // exchange can lose a frame past the retry budget, which degrades
    // the aggregate but must not kill the bench — the ledger is the
    // artifact here, and it is complete before publish starts.
    let report = deployment.finish_lossy();

    let runs = (sc.runner.warmup + sc.runner.iters) as u64;
    let sent = sc.submissions as u64 * runs;
    let (complete, degraded, aborted) = report.batch_outcomes;
    assert_eq!(
        complete + degraded + aborted,
        sc.submissions.div_ceil(sc.batch) as u64 * runs,
        "every batch must end in a typed outcome"
    );
    let delta = prio_obs::Registry::global().snapshot().diff(&before);
    assert!(
        delta.counter_sum(prio_obs::names::NET_FAULTS_INJECTED) > 0,
        "the fault plan never fired"
    );
    Json::obj(vec![
        (
            "ledger",
            ledger_json(
                sent,
                report.accepted,
                report.rejected,
                report.dropped,
                report.batch_outcomes,
                &delta,
            ),
        ),
        ("run_wall", summary.to_json()),
        (
            "delivered_fraction",
            Json::Num((report.accepted + report.rejected) as f64 / sent as f64),
        ),
    ])
}

/// The same availability experiment across real process boundaries: every
/// node *and* the submit driver injects the plan's faults on its outbound
/// sends, and the ledger is assembled from the orchestrator's report plus
/// the nodes' scraped registries.
fn run_robustness_proc(sc: &Scenario) -> Json {
    let plan = FaultPlan::seeded(sc.fault_seed)
        .with_drop_permille(sc.drop_permille)
        .with_dup_permille(sc.dup_permille);
    let runs = sc.runner.warmup + sc.runner.iters;
    let cfg = proc_config(sc)
        .with_fault_plan(plan)
        .with_batch_deadline(Duration::from_secs(2))
        .with_timeout(Duration::from_secs(20));
    let report = ProcDeployment::launch(cfg)
        .and_then(ProcDeployment::run)
        .unwrap_or_else(|e| panic!("proc deployment failed for {}: {e}", sc.name));
    assert!(report.clean_exit, "child processes must exit cleanly");

    let sent = (sc.submissions * runs) as u64;
    let merged = report
        .node_metrics
        .iter()
        .fold(prio_obs::Snapshot::default(), |acc, s| acc.merge(s));
    assert!(
        merged.counter_sum(prio_obs::names::NET_FAULTS_INJECTED) > 0,
        "the fault plan never fired on the node side"
    );
    let wall: Duration = report.batch_wall.iter().sum();
    Json::obj(vec![
        (
            "ledger",
            ledger_json(
                sent,
                report.accepted,
                report.rejected,
                report.dropped,
                report.batch_outcomes,
                &merged,
            ),
        ),
        ("run_wall_ms", Json::Num(ms(wall))),
        (
            "delivered_fraction",
            Json::Num((report.accepted + report.rejected) as f64 / sent as f64),
        ),
        ("processes", Json::Num(sc.servers as f64 + 1.0)),
        ("obs", proc_obs_block(&report)),
    ])
}

// ---------------------------------------------------------------------------
// Section 6 baseline: Prio (mostpop AFE) vs. discrete-log NIZK.
// ---------------------------------------------------------------------------

fn run_baseline(sc: &Scenario) -> Json {
    let bits = sc.size;
    let mut rng = StdRng::seed_from_u64(sc.seed);

    // Prio side: b independent bit counters via the most-popular AFE.
    let afe = MostPopularAfe::new(bits as u32);
    let mut cluster: Cluster<Field64, _> = Cluster::new(afe.clone(), sc.servers, sc.verify_mode);
    let mut client = Client::new(afe, ClientConfig::new(sc.servers));
    let inputs = sum_inputs(bits.min(63), sc.submissions, &mut rng);

    let mut prio_encode = Vec::new();
    let mut prio_verify = Vec::new();
    let mut prio_upload = 0;
    for _ in 0..sc.runner.warmup + sc.runner.iters {
        let (subs, enc) = time_once(|| {
            inputs
                .iter()
                .map(|v| client.submit(v, &mut rng).expect("honest input"))
                .collect::<Vec<_>>()
        });
        prio_upload = subs[0].upload_bytes();
        let (ok, ver) = time_once(|| subs.iter().filter(|sub| cluster.process(sub)).count());
        assert_eq!(ok, inputs.len());
        prio_encode.push(enc / inputs.len() as u32);
        prio_verify.push(ver / inputs.len() as u32);
    }

    // NIZK side: the same bit vectors through Pedersen + OR-proofs.
    let mut nizk = NizkCluster::new(sc.servers, bits);
    let h = nizk.h();
    let bit_vecs: Vec<Vec<bool>> = inputs
        .iter()
        .map(|&v| (0..bits).map(|i| (v >> (i % 64)) & 1 == 1).collect())
        .collect();
    let mut nizk_encode = Vec::new();
    let mut nizk_verify = Vec::new();
    let mut nizk_upload = 0;
    for _ in 0..sc.runner.warmup + sc.runner.iters {
        let (subs, enc) = time_once(|| {
            bit_vecs
                .iter()
                .map(|bv| client_submission(bv, sc.servers, &h, &mut rng))
                .collect::<Vec<_>>()
        });
        nizk_upload = subs[0].upload_bytes();
        let (ok, ver) = time_once(|| subs.iter().filter(|sub| nizk.process(sub)).count());
        assert_eq!(ok, bit_vecs.len());
        nizk_encode.push(enc / bit_vecs.len() as u32);
        nizk_verify.push(ver / bit_vecs.len() as u32);
    }
    assert!(nizk.publish().is_some(), "NIZK homomorphic check failed");

    let prio_verify_summary = Summary::from_durations(&prio_verify);
    let nizk_verify_summary = Summary::from_durations(&nizk_verify);
    let slowdown = nizk_verify_summary.median_ms / prio_verify_summary.median_ms.max(1e-9);
    Json::obj(vec![
        ("bits", Json::Num(bits as f64)),
        ("prio_encode_ms_per_sub", Summary::from_durations(&prio_encode).to_json()),
        ("prio_verify_ms_per_sub", prio_verify_summary.to_json()),
        ("prio_upload_bytes", Json::Num(prio_upload as f64)),
        ("nizk_encode_ms_per_sub", Summary::from_durations(&nizk_encode).to_json()),
        ("nizk_verify_ms_per_sub", nizk_verify_summary.to_json()),
        ("nizk_upload_bytes", Json::Num(nizk_upload as f64)),
        ("nizk_over_prio_verify", Json::Num(slowdown)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, Mode};

    #[test]
    fn encode_verify_record_has_expected_shape() {
        let sc = registry(Mode::Smoke)
            .into_iter()
            .find(|sc| sc.group == Group::EncodeVerify && sc.afe == AfeKind::Sum)
            .unwrap();
        let record = run_scenario(&sc);
        assert_eq!(record.group, Group::EncodeVerify);
        let m = &record.metrics;
        assert!(m.get("encoded_len").and_then(Json::as_num).unwrap() >= sc.size as f64);
        assert!(m.get("encode_ms_per_sub").unwrap().get("median_ms").is_some());
        assert!(m.get("verify_ms_per_sub").unwrap().get("median_ms").is_some());
        let phases = m.get("verify_phase_ms_per_sub").unwrap();
        for phase in ["unpack", "round1", "round2"] {
            assert!(phases.get(phase).and_then(Json::as_num).unwrap() >= 0.0);
        }
    }

    #[test]
    fn batch_verify_record_has_expected_shape() {
        let mut sc = registry(Mode::Smoke)
            .into_iter()
            .find(|sc| sc.group == Group::BatchVerify && sc.backend == Backend::Cluster)
            .unwrap();
        // Shrink for test speed; shape is what's under test.
        sc.submissions = 16;
        sc.batch = 8;
        sc.runner = crate::stats::Runner::new(0, 1);
        let record = run_scenario(&sc);
        let m = &record.metrics;
        assert!(m.get("throughput_sub_per_s").and_then(Json::as_num).unwrap() > 0.0);
        assert_eq!(m.get("batch").and_then(Json::as_num), Some(8.0));
        assert_eq!(m.get("threads").and_then(Json::as_num), Some(1.0));
        assert!(m.get("verify_wall_ms").unwrap().get("median_ms").is_some());
        for phase in ["unpack", "round1", "round2"] {
            assert!(
                m.get("verify_phase_ms_per_sub")
                    .unwrap()
                    .get(phase)
                    .and_then(Json::as_num)
                    .unwrap()
                    >= 0.0
            );
        }
        assert_eq!(record.params.get("threads").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn tcp_and_sim_backends_agree_on_bandwidth_accounting() {
        // Both fabrics count payload bytes on successful sends, and the
        // protocol is deterministic given the scenario seed — so the same
        // scenario must report byte-identical traffic on either backend.
        let scenarios = registry(Mode::Smoke);
        let find = |name: &str| {
            scenarios
                .iter()
                .find(|sc| sc.name == name)
                .unwrap_or_else(|| panic!("registry lacks {name}"))
        };
        let sim = run_scenario(find("fig6/bandwidth/sum/s=3"));
        let tcp = run_scenario(find("fig6/bandwidth/sum/s=3/tcp"));
        assert_eq!(
            tcp.params.get("backend").and_then(Json::as_str),
            Some("deployment_tcp")
        );
        for key in [
            "upload_bytes_per_sub",
            "leader_bytes_per_sub",
            "max_non_leader_bytes_per_sub",
            "publish_bytes_total",
            "batch_msgs_total",
        ] {
            assert_eq!(
                sim.metrics.get(key).and_then(Json::as_num),
                tcp.metrics.get(key).and_then(Json::as_num),
                "{key} diverges between sim and tcp backends"
            );
        }
    }

    #[test]
    fn traced_throughput_record_embeds_a_trace_block() {
        let mut sc = registry(Mode::Smoke)
            .into_iter()
            .find(|sc| {
                sc.group == Group::Throughput
                    && sc.backend == Backend::Deployment(prio_net::TransportKind::Sim)
                    && sc.traced
            })
            .expect("smoke registry has a traced sim throughput scenario");
        // Shrink for test speed; the trace-block shape is what's under test.
        sc.submissions = 8;
        sc.runner = crate::stats::Runner::new(0, 1);
        let record = run_scenario(&sc);
        let trace = record
            .metrics
            .get("trace")
            .expect("traced scenario embeds a trace block");
        assert_eq!(
            trace.get("schema").and_then(Json::as_str),
            Some(prio_obs::trace::TRACE_SCHEMA)
        );
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "a traced run records spans");
        // Ids ride as decimal strings (u64 exceeds f64's exact range) and
        // must parse back to nonzero values; durations are non-negative.
        for s in spans {
            let id: u64 = s.get("id").and_then(Json::as_str).unwrap().parse().unwrap();
            assert_ne!(id, 0);
            let ts = s.get("ts_us").and_then(Json::as_num).unwrap();
            let end = s.get("end_us").and_then(Json::as_num).unwrap();
            assert!(end >= ts, "span ends before it starts");
        }
        let cp = trace.get("critical_path").unwrap();
        assert!(cp.get("batch_wall_us").and_then(Json::as_num).unwrap() > 0.0);
        let sum = cp.get("compute_us").and_then(Json::as_num).unwrap()
            + cp.get("network_wait_us").and_then(Json::as_num).unwrap();
        assert!(sum >= 0.0);
        assert_eq!(trace.get("dropped").and_then(Json::as_num), Some(0.0));
    }

    #[test]
    fn bandwidth_record_shows_leader_asymmetry() {
        let sc = registry(Mode::Smoke)
            .into_iter()
            .find(|sc| sc.group == Group::Bandwidth && sc.servers == 5)
            .unwrap();
        let record = run_scenario(&sc);
        let ratio = record
            .metrics
            .get("leader_over_non_leader")
            .and_then(Json::as_num)
            .unwrap();
        // s = 5: the leader talks to 4 non-leaders; asymmetry must show.
        assert!(ratio > 1.2, "leader ratio {ratio} too small for s=5");
    }
}
