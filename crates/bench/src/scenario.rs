//! The scenario registry: parameterized experiment descriptions covering
//! the paper's three evaluation figures plus the NIZK baseline comparison.
//!
//! A [`Scenario`] is pure data — AFE type × field size × submission length
//! × server count × verify mode × latency × backend — so the registry can
//! be listed, filtered by name, and serialized into the report without
//! running anything. Execution lives in [`crate::exec`].

use crate::json::Json;
use crate::stats::Runner;
use prio_net::TransportKind;
use prio_snip::VerifyMode;
use std::time::Duration;

/// Which figure/experiment family a scenario belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Group {
    /// Figure 4: whole-system throughput vs. number of servers, on the
    /// threaded [`prio_core::Deployment`].
    Throughput,
    /// Figure 5: client encode and server verify cost vs. submission
    /// length, per AFE, on the single-threaded [`prio_core::Cluster`].
    EncodeVerify,
    /// Figure 6: per-node bandwidth and the leader/non-leader asymmetry,
    /// from transport snapshots ([`prio_net::Transport::snapshot`]).
    Bandwidth,
    /// Section 6 baselines: Prio vs. the discrete-log NIZK scheme.
    Baseline,
    /// Appendix-I batching: server verify throughput, sweeping submissions
    /// per context (`batch`) × verify-pool threads, against the
    /// per-submission path (`batch = 1`) on the same hardware.
    BatchVerify,
    /// Figure-4 companion: connection churn against a raw TCP endpoint,
    /// sweeping concurrent short-lived client connections through its
    /// readiness-driven reactor. Every delivered payload byte must be
    /// accounted; the wall clock and connection rate are the result.
    ConnSweep,
    /// Section-7 availability: the full pipeline under seeded
    /// drop/duplicate fault injection, sweeping fault rates × fabric
    /// (sim, tcp, proc). Every scenario must end with a balanced
    /// exactness ledger (`accepted + rejected + dropped = sent`, every
    /// batch complete/degraded/aborted) — the headline is how much of the
    /// workload survives, not how fast it runs. Faults are sender-visible
    /// and seeded per link, so sim-backend ledgers are bit-identical
    /// across replays of the same seed (the CI chaos gate asserts this).
    Robustness,
}

impl Group {
    /// Stable lowercase tag used in names and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Group::Throughput => "throughput",
            Group::EncodeVerify => "encode_verify",
            Group::Bandwidth => "bandwidth",
            Group::Baseline => "baseline",
            Group::BatchVerify => "batch_verify",
            Group::ConnSweep => "conn_sweep",
            Group::Robustness => "robustness",
        }
    }
}

/// Which AFE a scenario exercises. `size` in [`Scenario`] is interpreted
/// per kind: bits for sum/most-popular, buckets for frequency, feature
/// dimension for linear regression.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AfeKind {
    /// `b`-bit integer sum (`size` = b).
    Sum,
    /// Histogram over `size` buckets.
    Freq,
    /// `size`-dimensional least-squares regression on 8-bit data.
    LinReg,
    /// Most-popular `size`-bit string.
    MostPop,
}

impl AfeKind {
    /// Stable lowercase tag used in names and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            AfeKind::Sum => "sum",
            AfeKind::Freq => "freq",
            AfeKind::LinReg => "linreg",
            AfeKind::MostPop => "mostpop",
        }
    }
}

/// Which Prio field the scenario runs over.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// 64-bit field (the default deployment field).
    F64,
    /// 128-bit field.
    F128,
}

impl FieldKind {
    /// Stable tag used in names and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            FieldKind::F64 => "f64",
            FieldKind::F128 => "f128",
        }
    }
}

/// Which driver runs the protocol, and over which transport.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic single-threaded [`prio_core::Cluster`] (in-process,
    /// no fabric at all).
    Cluster,
    /// Threaded [`prio_core::Deployment`] over the given transport fabric
    /// (in-process sim channels or real localhost TCP sockets).
    Deployment(TransportKind),
    /// Multi-process `prio_proc::ProcDeployment`: each server is a real
    /// `prio-node` OS process, submissions come from a `prio-submit`
    /// process, and every message crosses process boundaries over TCP.
    /// Measures what the fork/exec + cross-process fabric costs on top of
    /// `deployment_tcp`.
    Proc,
}

impl Backend {
    /// Stable tag used in JSON: names both the driver and the fabric, so
    /// every `BENCH_prio.json` entry records what produced its numbers.
    pub fn tag(&self) -> &'static str {
        match self {
            Backend::Cluster => "cluster",
            Backend::Deployment(TransportKind::Sim) => "deployment_sim",
            Backend::Deployment(TransportKind::Tcp) => "deployment_tcp",
            Backend::Proc => "deployment_proc",
        }
    }

    /// The transport family for `--backend sim|tcp|proc` filtering. The
    /// single-threaded cluster counts as `sim`: it never touches a socket.
    pub fn transport_tag(&self) -> &'static str {
        match self {
            Backend::Cluster => TransportKind::Sim.tag(),
            Backend::Deployment(kind) => kind.tag(),
            Backend::Proc => "proc",
        }
    }
}

/// One parameterized experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique name, e.g. `fig4/throughput/sum/s=3`. `--filter` matches on
    /// substrings of this.
    pub name: String,
    /// Experiment family.
    pub group: Group,
    /// AFE under test.
    pub afe: AfeKind,
    /// AFE size parameter (see [`AfeKind`]).
    pub size: usize,
    /// Field to run over.
    pub field: FieldKind,
    /// Number of servers `s`.
    pub servers: usize,
    /// SNIP verification strategy.
    pub verify_mode: VerifyMode,
    /// Optional uniform link latency (Deployment backend only).
    pub latency: Option<Duration>,
    /// Protocol driver.
    pub backend: Backend,
    /// Submissions per measured run.
    pub submissions: usize,
    /// Submissions sharing one verification context. `1` is the
    /// per-submission path (context + setup per submission); Cluster
    /// backends refresh every `batch` submissions, Deployment backends
    /// feed `run_batch` in `batch`-sized chunks (one context per call).
    pub batch: usize,
    /// Verify-pool worker threads per server (`1` = inline verification).
    pub verify_threads: usize,
    /// Seeded drop probability in permille (robustness family only).
    pub drop_permille: u32,
    /// Seeded duplicate probability in permille (robustness family only).
    pub dup_permille: u32,
    /// Seed for the fault plan's per-link randomness streams.
    pub fault_seed: u64,
    /// Warmup/iteration control.
    pub runner: Runner,
    /// Deterministic RNG seed for client inputs and shares.
    pub seed: u64,
    /// Record per-batch trace spans on the measured run and embed the
    /// merged timeline + critical-path breakdown as a `trace` block in the
    /// scenario's bench record (Deployment and Proc backends only).
    pub traced: bool,
}

impl Scenario {
    /// The scenario's parameters as a JSON object (for the report).
    pub fn params_json(&self) -> Json {
        Json::obj(vec![
            ("group", Json::Str(self.group.tag().into())),
            ("afe", Json::Str(self.afe.tag().into())),
            ("size", Json::Num(self.size as f64)),
            ("field", Json::Str(self.field.tag().into())),
            ("servers", Json::Num(self.servers as f64)),
            (
                "verify_mode",
                Json::Str(
                    match self.verify_mode {
                        VerifyMode::FixedPoint => "fixed_point",
                        VerifyMode::Interpolate => "interpolate",
                    }
                    .into(),
                ),
            ),
            (
                "latency_us",
                match self.latency {
                    Some(d) => Json::Num(d.as_micros() as f64),
                    None => Json::Null,
                },
            ),
            ("backend", Json::Str(self.backend.tag().into())),
            ("submissions", Json::Num(self.submissions as f64)),
            ("batch", Json::Num(self.batch as f64)),
            ("threads", Json::Num(self.verify_threads as f64)),
            ("drop_permille", Json::Num(self.drop_permille as f64)),
            ("dup_permille", Json::Num(self.dup_permille as f64)),
            ("fault_seed", Json::Num(self.fault_seed as f64)),
            ("warmup", Json::Num(self.runner.warmup as f64)),
            ("iters", Json::Num(self.runner.iters as f64)),
            ("traced", Json::Bool(self.traced)),
        ])
    }
}

/// Benchmark depth.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized: every experiment family covered, total runtime well under
    /// 30 s, small submission counts.
    Smoke,
    /// Paper-sized parameter sweeps (minutes).
    Full,
}

impl Mode {
    /// Stable tag used in JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }
}

fn base(name: String, group: Group, afe: AfeKind, size: usize) -> Scenario {
    Scenario {
        name,
        group,
        afe,
        size,
        field: FieldKind::F64,
        servers: 2,
        verify_mode: VerifyMode::FixedPoint,
        latency: None,
        backend: Backend::Cluster,
        submissions: 4,
        batch: 1024,
        verify_threads: 1,
        drop_permille: 0,
        dup_permille: 0,
        fault_seed: 0,
        runner: Runner::new(1, 3),
        seed: 0x5052_494f,
        traced: false,
    }
}

/// Builds the scenario list for a mode. Names are unique.
pub fn registry(mode: Mode) -> Vec<Scenario> {
    let mut out = Vec::new();
    let full = mode == Mode::Full;

    // Figure 4: throughput vs. number of servers (threaded deployment,
    // 8-bit sums like the paper's "browser telemetry"-sized payloads).
    let server_counts: &[usize] = if full { &[2, 3, 5, 7, 10] } else { &[2, 3, 5] };
    for &s in server_counts {
        let mut sc = base(
            format!("fig4/throughput/sum/s={s}"),
            Group::Throughput,
            AfeKind::Sum,
            8,
        );
        sc.servers = s;
        sc.backend = Backend::Deployment(TransportKind::Sim);
        sc.submissions = if full { 128 } else { 24 };
        sc.batch = sc.submissions; // one context per run_batch call
        sc.runner = if full { Runner::new(1, 5) } else { Runner::new(1, 2) };
        // The throughput rows double as the tracing gate: every committed
        // smoke document carries per-batch timelines for all three fabrics.
        sc.traced = true;
        out.push(sc);
    }
    // The same throughput pipeline over real localhost TCP sockets, so the
    // trajectory tracks what the kernel's loopback stack costs on top of
    // the in-process fabric.
    for &s in if full { &[3usize, 5][..] } else { &[3usize][..] } {
        let mut sc = base(
            format!("fig4/throughput/sum/s={s}/tcp"),
            Group::Throughput,
            AfeKind::Sum,
            8,
        );
        sc.servers = s;
        sc.backend = Backend::Deployment(TransportKind::Tcp);
        sc.submissions = if full { 128 } else { 24 };
        sc.batch = sc.submissions;
        sc.runner = if full { Runner::new(1, 5) } else { Runner::new(1, 2) };
        sc.traced = true;
        out.push(sc);
    }
    // The same throughput pipeline as 4+ real OS processes: the node
    // binary per server plus a submit-driver process. The delta against
    // the `/tcp` rows above is pure multi-process overhead (process
    // isolation, per-process fabrics, control plane) — the wire traffic is
    // byte-identical.
    for &s in if full { &[3usize, 5][..] } else { &[3usize][..] } {
        let mut sc = base(
            format!("fig4/throughput/sum/s={s}/proc"),
            Group::Throughput,
            AfeKind::Sum,
            8,
        );
        sc.servers = s;
        sc.backend = Backend::Proc;
        sc.submissions = if full { 128 } else { 24 };
        sc.batch = sc.submissions;
        sc.runner = if full { Runner::new(1, 5) } else { Runner::new(1, 2) };
        sc.traced = true;
        out.push(sc);
    }

    // Figure-4 companion: connection churn against one raw TCP endpoint,
    // sweeping the number of concurrent short-lived connections. The
    // reactor must hold ≥ 1k concurrent connections inside the smoke
    // budget, and every delivered payload byte must be accounted.
    let conn_counts: &[usize] = if full { &[256, 1024, 2048] } else { &[256, 1024] };
    for &c in conn_counts {
        let mut sc = base(
            format!("fig4/conn_sweep/c={c}"),
            Group::ConnSweep,
            AfeKind::Sum,
            8,
        );
        sc.servers = 1; // one endpoint under churn; no protocol runs
        sc.backend = Backend::Deployment(TransportKind::Tcp);
        sc.submissions = c; // one 64-byte frame per connection
        sc.batch = 1;
        sc.runner = Runner::new(0, 1);
        out.push(sc);
    }

    // One WAN point: uniform link latency through the fabric.
    {
        let lat = if full { 1000 } else { 200 };
        let mut sc = base(
            format!("fig4/throughput/sum/s=3/latency={lat}us"),
            Group::Throughput,
            AfeKind::Sum,
            8,
        );
        sc.servers = 3;
        sc.backend = Backend::Deployment(TransportKind::Sim);
        sc.latency = Some(Duration::from_micros(lat));
        sc.submissions = 8;
        sc.batch = sc.submissions;
        sc.runner = Runner::new(0, if full { 3 } else { 1 });
        out.push(sc);
    }

    // Figure 5: encode + verify cost vs. submission length, per AFE.
    let sizes: &[(AfeKind, &[usize])] = if full {
        &[
            (AfeKind::Sum, &[4, 8, 16, 24, 31]),
            (AfeKind::Freq, &[8, 32, 128, 512]),
            (AfeKind::LinReg, &[1, 2, 4, 8]),
            (AfeKind::MostPop, &[8, 32, 64]),
        ]
    } else {
        &[
            (AfeKind::Sum, &[4, 16, 31]),
            (AfeKind::Freq, &[8, 32, 128]),
            (AfeKind::LinReg, &[1, 2, 4]),
            (AfeKind::MostPop, &[8, 32, 64]),
        ]
    };
    for &(afe, szs) in sizes {
        for &size in szs {
            let mut sc = base(
                format!("fig5/encode_verify/{}/L={size}", afe.tag()),
                Group::EncodeVerify,
                afe,
                size,
            );
            sc.servers = 2;
            sc.submissions = if full { 16 } else { 2 };
            sc.runner = if full { Runner::new(2, 7) } else { Runner::new(1, 3) };
            out.push(sc);
        }
    }
    // The same pipeline over the 128-bit field and in Interpolate mode, so
    // the field-size and verify-mode dimensions stay on the trajectory.
    {
        let mut sc = base(
            "fig5/encode_verify/sum/L=16/f128".into(),
            Group::EncodeVerify,
            AfeKind::Sum,
            16,
        );
        sc.field = FieldKind::F128;
        sc.submissions = if full { 16 } else { 2 };
        out.push(sc);

        let mut sc = base(
            "fig5/encode_verify/sum/L=16/interpolate".into(),
            Group::EncodeVerify,
            AfeKind::Sum,
            16,
        );
        sc.verify_mode = VerifyMode::Interpolate;
        sc.submissions = if full { 16 } else { 2 };
        out.push(sc);
    }

    // Figure 6: per-node bandwidth, leader vs. non-leader asymmetry.
    for &s in if full { &[2usize, 3, 5, 10][..] } else { &[3usize, 5][..] } {
        let mut sc = base(
            format!("fig6/bandwidth/sum/s={s}"),
            Group::Bandwidth,
            AfeKind::Sum,
            16,
        );
        sc.servers = s;
        sc.backend = Backend::Deployment(TransportKind::Sim);
        sc.submissions = if full { 64 } else { 16 };
        sc.batch = sc.submissions;
        sc.runner = Runner::new(0, 1);
        out.push(sc);
    }
    // Bandwidth over TCP: both backends count payload bytes identically,
    // so this doubles as a cross-backend accounting check.
    {
        let mut sc = base(
            "fig6/bandwidth/sum/s=3/tcp".into(),
            Group::Bandwidth,
            AfeKind::Sum,
            16,
        );
        sc.servers = 3;
        sc.backend = Backend::Deployment(TransportKind::Tcp);
        sc.submissions = if full { 64 } else { 16 };
        sc.batch = sc.submissions;
        sc.runner = Runner::new(0, 1);
        out.push(sc);
    }

    // Bandwidth across real process boundaries: per-node verification
    // bytes come from each node's own counters (reported over the control
    // plane at flush time), so the leader/non-leader ratio is measured
    // without any shared-fabric snapshot.
    for &s in if full { &[3usize, 5][..] } else { &[3usize][..] } {
        let mut sc = base(
            format!("fig6/bandwidth/sum/s={s}/proc"),
            Group::Bandwidth,
            AfeKind::Sum,
            16,
        );
        sc.servers = s;
        sc.backend = Backend::Proc;
        sc.submissions = if full { 64 } else { 16 };
        sc.batch = sc.submissions;
        sc.runner = Runner::new(0, 1);
        out.push(sc);
    }

    // Appendix-I batching: verify throughput, sweeping submissions per
    // context (batch) × verify-pool threads. `batch=1` is the
    // per-submission baseline (context construction, kernel precompute,
    // and buffer setup paid for every submission); the batched entries
    // amortize all of it. The acceptance bar for the perf trajectory:
    // cluster-backend batch ≥ 256 at ≥ 2× the batch=1 throughput.
    {
        let cluster_subs = if full { 1024 } else { 256 };
        let batches: &[usize] = if full { &[1, 64, 256, 1024] } else { &[1, 64, 256] };
        for &batch in batches {
            let mut sc = base(
                format!("fig5/batch_verify/sum/L=16/cluster/batch={batch}/threads=1"),
                Group::BatchVerify,
                AfeKind::Sum,
                16,
            );
            sc.submissions = cluster_subs;
            sc.batch = batch;
            sc.runner = if full { Runner::new(1, 5) } else { Runner::new(1, 3) };
            out.push(sc);
        }
        for &threads in if full { &[2usize, 4][..] } else { &[2usize][..] } {
            let mut sc = base(
                format!("fig5/batch_verify/sum/L=16/cluster/batch=256/threads={threads}"),
                Group::BatchVerify,
                AfeKind::Sum,
                16,
            );
            sc.submissions = cluster_subs;
            sc.batch = 256;
            sc.verify_threads = threads;
            sc.runner = if full { Runner::new(1, 5) } else { Runner::new(1, 3) };
            out.push(sc);
        }

        let dep_subs = if full { 512 } else { 256 };
        let dep_batches: &[usize] = if full { &[1, 128, 512] } else { &[1, 256] };
        for &batch in dep_batches {
            let mut sc = base(
                format!("fig5/batch_verify/sum/L=16/deployment/batch={batch}/threads=1"),
                Group::BatchVerify,
                AfeKind::Sum,
                16,
            );
            sc.backend = Backend::Deployment(TransportKind::Sim);
            sc.submissions = dep_subs;
            sc.batch = batch;
            sc.runner = if full { Runner::new(1, 3) } else { Runner::new(0, 2) };
            out.push(sc);
        }
        for &threads in if full { &[2usize, 4][..] } else { &[2usize][..] } {
            let mut sc = base(
                format!(
                    "fig5/batch_verify/sum/L=16/deployment/batch={dep_subs}/threads={threads}"
                ),
                Group::BatchVerify,
                AfeKind::Sum,
                16,
            );
            sc.backend = Backend::Deployment(TransportKind::Sim);
            sc.submissions = dep_subs;
            sc.batch = dep_subs;
            sc.verify_threads = threads;
            sc.runner = if full { Runner::new(1, 3) } else { Runner::new(0, 2) };
            out.push(sc);
        }
    }

    // Figure-7 (§7 availability): the full pipeline under seeded
    // drop/duplicate fault injection, sweeping fault rate × fabric. Each
    // scenario runs `submissions` through `batch`-sized chunks with a
    // per-batch abandon deadline; the metrics are the exactness ledger
    // (accepted/rejected/dropped, batch outcomes, faults injected), not a
    // latency headline. Sim points fault the driver side only so their
    // ledgers replay bit-identically under the same fault seed.
    {
        let sim_points: &[(u32, u32)] = if full {
            &[(50, 0), (0, 60), (50, 30), (120, 0), (20, 10), (400, 0)]
        } else {
            &[(50, 0), (0, 60), (50, 30), (400, 0)]
        };
        for &(drop, dup) in sim_points {
            let mut sc = base(
                format!("fig7/robustness/sum/drop={drop}/dup={dup}/sim"),
                Group::Robustness,
                AfeKind::Sum,
                8,
            );
            sc.servers = 3;
            sc.backend = Backend::Deployment(TransportKind::Sim);
            sc.submissions = 24;
            sc.batch = 4;
            sc.drop_permille = drop;
            sc.dup_permille = dup;
            sc.fault_seed = 0xFA17;
            sc.runner = Runner::new(0, 1);
            out.push(sc);
        }
        let tcp_points: &[(u32, u32)] = if full {
            &[(50, 30), (120, 50), (20, 0)]
        } else {
            &[(50, 30), (120, 50)]
        };
        for &(drop, dup) in tcp_points {
            let mut sc = base(
                format!("fig7/robustness/sum/drop={drop}/dup={dup}/tcp"),
                Group::Robustness,
                AfeKind::Sum,
                8,
            );
            sc.servers = 3;
            sc.backend = Backend::Deployment(TransportKind::Tcp);
            sc.submissions = 24;
            sc.batch = 4;
            sc.drop_permille = drop;
            sc.dup_permille = dup;
            sc.fault_seed = 0xFA17;
            sc.runner = Runner::new(0, 1);
            out.push(sc);
        }
        for &(drop, dup) in if full { &[(50u32, 30u32), (120, 50)][..] } else { &[(50u32, 30u32)][..] } {
            let mut sc = base(
                format!("fig7/robustness/sum/drop={drop}/dup={dup}/proc"),
                Group::Robustness,
                AfeKind::Sum,
                8,
            );
            sc.servers = 3;
            sc.backend = Backend::Proc;
            sc.submissions = 24;
            sc.batch = 4;
            sc.drop_permille = drop;
            sc.dup_permille = dup;
            sc.fault_seed = 0xFA17;
            sc.runner = Runner::new(0, 1);
            out.push(sc);
        }
    }

    // NIZK baseline: Prio's mostpop AFE (b independent bits, the workload
    // the discrete-log scheme also supports) vs. Pedersen + OR-proofs.
    for &bits in if full { &[4usize, 16][..] } else { &[4usize][..] } {
        let mut sc = base(
            format!("baseline/nizk-vs-prio/bits={bits}"),
            Group::Baseline,
            AfeKind::MostPop,
            bits,
        );
        sc.submissions = if full { 8 } else { 2 };
        sc.runner = Runner::new(0, if full { 3 } else { 1 });
        out.push(sc);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for mode in [Mode::Smoke, Mode::Full] {
            let scenarios = registry(mode);
            let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate scenario names in {mode:?}");
        }
    }

    #[test]
    fn smoke_covers_acceptance_matrix() {
        let scenarios = registry(Mode::Smoke);
        // Throughput for s ∈ {2, 3, 5}.
        for s in [2, 3, 5] {
            assert!(scenarios
                .iter()
                .any(|sc| sc.group == Group::Throughput && sc.servers == s));
        }
        // ≥ 4 AFE kinds at ≥ 3 sizes each in the encode/verify family.
        for afe in [AfeKind::Sum, AfeKind::Freq, AfeKind::LinReg, AfeKind::MostPop] {
            let sizes: std::collections::BTreeSet<usize> = scenarios
                .iter()
                .filter(|sc| sc.group == Group::EncodeVerify && sc.afe == afe)
                .map(|sc| sc.size)
                .collect();
            assert!(sizes.len() >= 3, "{afe:?} has sizes {sizes:?}");
        }
        // Bandwidth and baseline present.
        assert!(scenarios.iter().any(|sc| sc.group == Group::Bandwidth));
        assert!(scenarios.iter().any(|sc| sc.group == Group::Baseline));
    }

    #[test]
    fn both_modes_cover_the_tcp_backend() {
        for mode in [Mode::Smoke, Mode::Full] {
            let scenarios = registry(mode);
            // At least one TCP-backend throughput scenario (acceptance
            // criterion) and one TCP bandwidth scenario per mode.
            for group in [Group::Throughput, Group::Bandwidth] {
                assert!(
                    scenarios.iter().any(|sc| sc.group == group
                        && sc.backend == Backend::Deployment(TransportKind::Tcp)),
                    "{mode:?} lacks a TCP {group:?} scenario"
                );
            }
            // And the sim-backend scenarios are still there alongside.
            assert!(scenarios.iter().any(|sc| sc.group == Group::Throughput
                && sc.backend == Backend::Deployment(TransportKind::Sim)));
        }
    }

    #[test]
    fn backend_tags_name_the_fabric() {
        assert_eq!(Backend::Cluster.tag(), "cluster");
        assert_eq!(Backend::Deployment(TransportKind::Sim).tag(), "deployment_sim");
        assert_eq!(Backend::Deployment(TransportKind::Tcp).tag(), "deployment_tcp");
        assert_eq!(Backend::Proc.tag(), "deployment_proc");
        assert_eq!(Backend::Cluster.transport_tag(), "sim");
        assert_eq!(Backend::Deployment(TransportKind::Tcp).transport_tag(), "tcp");
        assert_eq!(Backend::Proc.transport_tag(), "proc");
    }

    #[test]
    fn both_modes_cover_the_proc_backend() {
        // Acceptance: fig4 and fig6 each carry a multi-process scenario in
        // every mode, and proc scenarios never ask for a latency model the
        // node binary doesn't implement.
        for mode in [Mode::Smoke, Mode::Full] {
            let scenarios = registry(mode);
            for group in [Group::Throughput, Group::Bandwidth] {
                assert!(
                    scenarios
                        .iter()
                        .any(|sc| sc.group == group && sc.backend == Backend::Proc),
                    "{mode:?} lacks a proc {group:?} scenario"
                );
            }
            for sc in scenarios.iter().filter(|sc| sc.backend == Backend::Proc) {
                assert!(sc.latency.is_none(), "{} models latency on proc", sc.name);
            }
        }
    }

    #[test]
    fn traced_scenarios_cover_all_three_fabrics() {
        // Acceptance: every mode's throughput family runs traced on sim,
        // tcp, and proc, so the committed smoke document carries timeline
        // blocks for all three — and tracing never leaks onto the cluster
        // backend, which has no frames to propagate a ctx over.
        for mode in [Mode::Smoke, Mode::Full] {
            let scenarios = registry(mode);
            for backend in [
                Backend::Deployment(TransportKind::Sim),
                Backend::Deployment(TransportKind::Tcp),
                Backend::Proc,
            ] {
                assert!(
                    scenarios.iter().any(|sc| sc.traced && sc.backend == backend),
                    "{mode:?} lacks a traced scenario on {backend:?}"
                );
            }
            for sc in &scenarios {
                assert!(
                    !(sc.traced && sc.backend == Backend::Cluster),
                    "{} traces the cluster backend",
                    sc.name
                );
            }
        }
    }

    #[test]
    fn batch_verify_sweep_covers_acceptance() {
        // Both modes must carry, on both backends: the per-submission
        // baseline (batch = 1), a batch ≥ 256 point (the acceptance bar),
        // and a multi-threaded verify-pool point.
        for mode in [Mode::Smoke, Mode::Full] {
            let scenarios = registry(mode);
            for on_cluster in [true, false] {
                let family: Vec<_> = scenarios
                    .iter()
                    .filter(|sc| {
                        sc.group == Group::BatchVerify
                            && (sc.backend == Backend::Cluster) == on_cluster
                    })
                    .collect();
                assert!(
                    family.iter().any(|sc| sc.batch == 1),
                    "{mode:?}/cluster={on_cluster} lacks the per-submission baseline"
                );
                assert!(
                    family.iter().any(|sc| sc.batch >= 256 && sc.verify_threads == 1),
                    "{mode:?}/cluster={on_cluster} lacks a batch >= 256 point"
                );
                assert!(
                    family.iter().any(|sc| sc.verify_threads >= 2),
                    "{mode:?}/cluster={on_cluster} lacks a verify-pool point"
                );
            }
        }
    }

    #[test]
    fn conn_sweep_reaches_1k_within_reactor_budget() {
        // Acceptance: every mode carries a c >= 1024 point, and every
        // conn-sweep scenario stays under the reactor's 4096-connection
        // budget (no accept shedding in the bench).
        for mode in [Mode::Smoke, Mode::Full] {
            let sweep: Vec<_> = registry(mode)
                .into_iter()
                .filter(|sc| sc.group == Group::ConnSweep)
                .collect();
            assert!(
                sweep.iter().any(|sc| sc.submissions >= 1024),
                "{mode:?} lacks a c>=1024 conn-sweep point"
            );
            for sc in &sweep {
                assert!(sc.submissions <= 4096, "{} exceeds the reactor budget", sc.name);
            }
        }
    }

    #[test]
    fn robustness_sweep_covers_acceptance() {
        // Acceptance: ≥ 6 robustness scenarios in every mode, sweeping the
        // fault rates across all three fabrics, with a nonzero fault plan
        // and self-describing fault params on every entry.
        for mode in [Mode::Smoke, Mode::Full] {
            let family: Vec<_> = registry(mode)
                .into_iter()
                .filter(|sc| sc.group == Group::Robustness)
                .collect();
            assert!(family.len() >= 6, "{mode:?} has only {} robustness points", family.len());
            for backend_tag in ["sim", "tcp", "proc"] {
                assert!(
                    family.iter().any(|sc| sc.backend.transport_tag() == backend_tag),
                    "{mode:?} lacks a {backend_tag} robustness point"
                );
            }
            for sc in &family {
                assert!(
                    sc.drop_permille + sc.dup_permille > 0,
                    "{} injects nothing",
                    sc.name
                );
                let params = sc.params_json();
                assert_eq!(
                    params.get("drop_permille").and_then(Json::as_num),
                    Some(sc.drop_permille as f64)
                );
                assert_eq!(
                    params.get("dup_permille").and_then(Json::as_num),
                    Some(sc.dup_permille as f64)
                );
                assert!(params.get("fault_seed").and_then(Json::as_num).is_some());
            }
        }
    }

    #[test]
    fn every_scenario_records_batch_and_threads() {
        for sc in registry(Mode::Smoke) {
            let params = sc.params_json();
            assert!(params.get("batch").and_then(Json::as_num).unwrap() >= 1.0, "{}", sc.name);
            assert!(
                params.get("threads").and_then(Json::as_num).unwrap() >= 1.0,
                "{}",
                sc.name
            );
        }
    }

    #[test]
    fn params_serialize() {
        let sc = &registry(Mode::Smoke)[0];
        let params = sc.params_json();
        assert_eq!(params.get("servers").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            params.get("backend").and_then(Json::as_str),
            Some("deployment_sim")
        );
    }
}
