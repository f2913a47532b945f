//! The process orchestrator: spawns a `prio-node` cluster and a
//! `prio-submit` driver, wires them together with the ephemeral-port
//! handshake, and collects a [`ProcReport`] mirroring the in-process
//! [`DeploymentReport`](prio_core::DeploymentReport).
//!
//! Lifecycle of one [`ProcDeployment::launch`] + [`ProcDeployment::run`]:
//!
//! 1. spawn `s` `prio-node` processes, each loading a wire-serialized
//!    [`NodeConfig`] from stdin and reporting its ephemeral data/control
//!    ports on stdout (no fixed ports anywhere — collisions surface as
//!    typed [`BindError`](prio_net::BindError)s, not panics);
//! 2. distribute the full data-plane address map (`Peers`) and pass the
//!    readiness barrier (`Ready`);
//! 3. spawn `prio-submit`, register its driver endpoint at every node
//!    (`Ingest`), release it with `GO`, and parse its `PRIO-RESULT` line;
//! 4. gather per-node [`NodeStats`] (`FlushAggregate`), shut everything
//!    down (`Shutdown`/`Bye`), and check every child's exit status.
//!
//! Every step is bounded by the configured timeout, every failure is a
//! typed [`ProcError`], and dropping the deployment kills any child that
//! is still alive — a failed run never leaks processes or hangs the
//! caller.

use crate::spec::{h_form_tag, verify_mode_tag, AfeSpec, FieldSpec};
use prio_net::control::{read_ctrl, write_ctrl, CtrlMsg, NodeConfig, NodeStats};
use prio_net::wire::Wire;
use prio_net::FaultPlan;
use prio_snip::{HForm, VerifyMode};
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Configuration for one multi-process deployment.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Number of server processes `s ≥ 2`.
    pub num_servers: usize,
    /// Workload AFE.
    pub afe: AfeSpec,
    /// Field.
    pub field: FieldSpec,
    /// SNIP verification strategy.
    pub verify_mode: VerifyMode,
    /// `h` transmission form.
    pub h_form: HForm,
    /// Verify-pool threads per node.
    pub verify_threads: usize,
    /// Submissions the driver encodes.
    pub submissions: usize,
    /// Tampered fraction in permille (0..=1000).
    pub tamper_permille: u32,
    /// Submissions per `run_batch` call.
    pub batch: usize,
    /// Times the full submission set is replayed (bench warmup+iters).
    pub runs: usize,
    /// Client RNG seed.
    pub seed: u64,
    /// Deadline for every handshake step and every driver receive.
    pub timeout: Duration,
    /// Deterministic fault plan every node injects on its outbound data
    /// plane (`None` = clean fabric).
    pub fault_plan: Option<FaultPlan>,
    /// Per-batch deadline for each node's server loop (`None` = wait
    /// forever, the classic fail-fast behaviour).
    pub batch_deadline: Option<Duration>,
    /// Record per-batch trace spans on every node and the submit driver;
    /// the per-process buffers (with orchestrator-estimated clock offsets)
    /// land in [`ProcReport::node_traces`].
    pub trace: bool,
    /// Override for the `prio-node` binary (default: next to the current
    /// executable's target directory).
    pub node_bin: Option<PathBuf>,
    /// Override for the `prio-submit` binary.
    pub submit_bin: Option<PathBuf>,
}

impl ProcConfig {
    /// Defaults: fixed-point verification, point-value `h`, one verify
    /// thread, no tampering, one run, whole set in one batch, 30 s
    /// timeout.
    pub fn new(num_servers: usize, afe: AfeSpec, field: FieldSpec, submissions: usize) -> Self {
        ProcConfig {
            num_servers,
            afe,
            field,
            verify_mode: VerifyMode::FixedPoint,
            h_form: HForm::PointValue,
            verify_threads: 1,
            submissions,
            tamper_permille: 0,
            batch: submissions.max(1),
            runs: 1,
            seed: 0x5052_494f,
            timeout: Duration::from_secs(30),
            fault_plan: None,
            batch_deadline: None,
            trace: false,
            node_bin: None,
            submit_bin: None,
        }
    }

    /// Builder-style: record per-batch trace spans in every process.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: inject `plan`'s faults on every node's outbound
    /// data plane. Pair with [`ProcConfig::with_batch_deadline`] so a
    /// batch the faults starve degrades instead of wedging the cluster.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style: per-batch server-loop deadline.
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = Some(deadline);
        self
    }

    /// Builder-style: tampered fraction in permille.
    pub fn with_tamper_permille(mut self, permille: u32) -> Self {
        self.tamper_permille = permille;
        self
    }

    /// Builder-style: submissions per batch.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "need at least one submission per batch");
        self.batch = batch;
        self
    }

    /// Builder-style: replay count.
    pub fn with_runs(mut self, runs: usize) -> Self {
        assert!(runs >= 1, "need at least one run");
        self.runs = runs;
        self
    }

    /// Builder-style: step/receive deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder-style: client RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: verify-pool threads per node.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one verify thread");
        self.verify_threads = threads;
        self
    }

    /// Builder-style: verification strategy.
    pub fn with_verify_mode(mut self, mode: VerifyMode) -> Self {
        self.verify_mode = mode;
        self
    }
}

/// Typed failure from the orchestrator.
#[derive(Debug)]
pub enum ProcError {
    /// The deployment configuration is invalid (e.g. fewer than two
    /// servers).
    Config(String),
    /// A required binary could not be located.
    Binary(String),
    /// Spawning a child process failed.
    Spawn(std::io::Error),
    /// A child's startup handshake failed (bad line, early exit, bind
    /// error it reported).
    Handshake {
        /// Which process (`"node <i>"` / `"submit"`).
        who: String,
        /// What went wrong.
        msg: String,
    },
    /// Control-plane I/O with a node failed or the node answered `Fail`.
    Control {
        /// Server index.
        index: usize,
        /// What went wrong.
        msg: String,
    },
    /// A node process exited when it should have been serving.
    NodeDied {
        /// Server index.
        index: usize,
        /// Its exit status, if it could be collected.
        status: Option<ExitStatus>,
    },
    /// The submit driver failed (its own typed error, relayed) or exited
    /// without a result.
    Submit(String),
    /// A step missed its deadline.
    Timeout(String),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Config(msg) => write!(f, "invalid deployment config: {msg}"),
            ProcError::Binary(msg) => write!(f, "binary not found: {msg}"),
            ProcError::Spawn(e) => write!(f, "spawn failed: {e}"),
            ProcError::Handshake { who, msg } => write!(f, "{who} handshake failed: {msg}"),
            ProcError::Control { index, msg } => write!(f, "control to node {index}: {msg}"),
            ProcError::NodeDied { index, status } => {
                write!(f, "node {index} died (status {status:?})")
            }
            ProcError::Submit(msg) => write!(f, "submit driver failed: {msg}"),
            ProcError::Timeout(what) => write!(f, "timed out: {what}"),
        }
    }
}

impl std::error::Error for ProcError {}

/// Locates one of this crate's binaries next to the running executable
/// (`target/<profile>/…`), honoring a `PRIO_NODE_BIN` / `PRIO_SUBMIT_BIN`
/// environment override first.
pub fn find_binary(name: &str) -> Result<PathBuf, ProcError> {
    let env_key = format!("{}_BIN", name.to_uppercase().replace('-', "_"));
    if let Ok(path) = std::env::var(&env_key) {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(ProcError::Binary(format!("{env_key}={} does not exist", path.display())));
    }
    let exe = std::env::current_exe().map_err(ProcError::Spawn)?;
    // A test binary lives in target/<profile>/deps/, the bins one level up
    // in target/<profile>/; a bench binary sits right next to them.
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(ProcError::Binary(format!(
        "{name} not found near {} — build it first (`cargo build -p prio_proc`)",
        exe.display()
    )))
}

/// Streams a child's stdout lines through a channel so reads can carry a
/// deadline (a pipe read has none). The reader thread exits at EOF.
struct LineReader {
    rx: Receiver<String>,
}

impl LineReader {
    fn spawn(stdout: impl std::io::Read + Send + 'static) -> Self {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { return };
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        LineReader { rx }
    }

    fn next_line(&self, deadline: Duration, who: &str) -> Result<String, ProcError> {
        match self.rx.recv_timeout(deadline) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => {
                Err(ProcError::Timeout(format!("waiting for output from {who}")))
            }
            Err(RecvTimeoutError::Disconnected) => Err(ProcError::Handshake {
                who: who.into(),
                msg: "process closed stdout without the expected line".into(),
            }),
        }
    }
}

struct NodeHandle {
    child: Child,
    /// Held so the stdout reader thread's channel stays open for the
    /// node's lifetime (late output must never block the child on a full
    /// pipe or a closed channel).
    _stdout: LineReader,
    ctrl: TcpStream,
    data_addr: SocketAddr,
    /// Estimated position of this node's trace-recorder epoch on the
    /// orchestrator clock, in µs since the deployment epoch: the midpoint
    /// of [spawn, handshake-read] — the node pins its epoch between those
    /// two orchestrator-observed instants, so the true offset lies within
    /// ±half that window. Causal merge tightens the residue.
    epoch_est_us: i64,
}

/// A running multi-process deployment: `s` node processes plus, during
/// [`ProcDeployment::run`], one submit process — all real OS processes
/// whose only shared state is the sockets between them.
pub struct ProcDeployment {
    cfg: ProcConfig,
    nodes: Vec<NodeHandle>,
    /// The deployment's clock origin: every per-process trace buffer is
    /// shifted onto µs-since-this-instant before merging.
    epoch: Instant,
}

/// Everything one run produced, mirroring
/// [`DeploymentReport`](prio_core::DeploymentReport) across the process
/// boundary.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// Submissions accepted (driver's count over all runs).
    pub accepted: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Submissions dropped with degraded/aborted batches — never
    /// accumulated anywhere. `accepted + rejected + dropped` equals the
    /// submissions fed.
    pub dropped: u64,
    /// Driver batch outcomes: `(complete, degraded, aborted)`.
    pub batch_outcomes: (u64, u64, u64),
    /// The summed accumulator `σ` (clamped to `u64` per element).
    pub sigma: Vec<u64>,
    /// Wall-clock time of each `run_batch` call, in order.
    pub batch_wall: Vec<Duration>,
    /// Driver bytes sent before the publish phase — the upload traffic.
    pub upload_bytes: u64,
    /// Driver bytes sent during the publish/shutdown phase (publish
    /// requests + shutdown frames).
    pub driver_publish_bytes: u64,
    /// Per-node statistics, index order (0 = leader).
    pub node_stats: Vec<NodeStats>,
    /// Per-node metric snapshots (index order), scraped over `GetMetrics`
    /// right after `FlushAggregate` — each one is the node process's whole
    /// registry, so phase histograms and drop counters survive the process
    /// boundary.
    pub node_metrics: Vec<prio_obs::Snapshot>,
    /// Per-process trace buffers when the deployment ran with
    /// [`ProcConfig::trace`]: one per node (index order) plus the submit
    /// driver's last, each carrying the orchestrator's clock-offset
    /// estimate. Empty on untraced runs.
    pub node_traces: Vec<prio_obs::trace::NodeTrace>,
    /// Whether every child process exited with status 0.
    pub clean_exit: bool,
}

impl ProcReport {
    /// Total wall-clock time spent inside `run_batch` calls.
    pub fn total_batch_wall(&self) -> Duration {
        self.batch_wall.iter().sum()
    }

    /// Verification-phase bytes each server sent (index 0 = leader) —
    /// sampled node-side at the publish request, so directly comparable to
    /// the batch-phase snapshot diff of the in-process backends.
    pub fn server_verify_bytes(&self) -> Vec<u64> {
        self.node_stats.iter().map(|s| s.verify_bytes_sent).collect()
    }

    /// Total bytes each server sent over its lifetime.
    pub fn server_total_bytes(&self) -> Vec<u64> {
        self.node_stats.iter().map(|s| s.total_bytes_sent).collect()
    }

    /// Merges the per-process trace buffers into one causally ordered
    /// timeline: clock-offset shifts first, then happens-before repair
    /// from the parent edges that rode the frames. `None` when the run
    /// was untraced.
    pub fn merged_trace(&self) -> Option<prio_obs::trace::MergedTrace> {
        if self.node_traces.is_empty() {
            return None;
        }
        Some(prio_obs::trace::merge_traces(&self.node_traces))
    }

    /// Leader verification bytes vs. the busiest non-leader — the
    /// Figure-6 asymmetry. Returns `(leader, max_non_leader)`.
    pub fn leader_vs_non_leader_bytes(&self) -> (u64, u64) {
        let bytes = self.server_verify_bytes();
        let leader = bytes.first().copied().unwrap_or(0);
        let max_non_leader = bytes.get(1..).unwrap_or(&[]).iter().copied().max().unwrap_or(0);
        (leader, max_non_leader)
    }
}

/// Waits for a child within a deadline; `None` if it is still running.
fn wait_deadline(child: &mut Child, deadline: Duration) -> Option<ExitStatus> {
    let end = Instant::now() + deadline;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) => {
                if Instant::now() >= end {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None,
        }
    }
}

/// Parses `key=value` tokens from a handshake/result line.
fn line_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Spawns one `prio-node` process, feeds it its serialized config, reads
/// the ephemeral-port handshake, and connects its control socket.
fn spawn_node(node_bin: &PathBuf, cfg: &ProcConfig, index: usize) -> Result<NodeHandle, ProcError> {
    let mut child = Command::new(node_bin)
        .arg("--config")
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(ProcError::Spawn)?;
    let node_cfg = NodeConfig {
        index: index as u64,
        num_servers: cfg.num_servers as u64,
        afe: cfg.afe.tag().into(),
        size: cfg.afe.size(),
        field: cfg.field.tag().into(),
        verify_mode: verify_mode_tag(cfg.verify_mode).into(),
        h_form: h_form_tag(cfg.h_form).into(),
        verify_threads: cfg.verify_threads as u64,
        fault_plan: cfg.fault_plan.as_ref().map(FaultPlan::to_spec).unwrap_or_default(),
        batch_deadline_ms: cfg
            .batch_deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        trace: cfg.trace,
    };
    // Both handles were requested as piped; a None here is a spawn
    // anomaly — kill the half-started child instead of leaking it.
    let (stdin_pipe, stdout_pipe) = (child.stdin.take(), child.stdout.take());
    let (Some(mut stdin), Some(node_stdout)) = (stdin_pipe, stdout_pipe) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(ProcError::Spawn(std::io::Error::new(
            ErrorKind::BrokenPipe,
            "node child is missing a piped stdio handle",
        )));
    };
    // Write the serialized config and close stdin so the node's
    // read-to-EOF completes.
    stdin
        .write_all(&node_cfg.to_wire_bytes())
        .map_err(ProcError::Spawn)?;
    drop(stdin);
    let stdout = LineReader::spawn(node_stdout);
    let who = format!("node {index}");
    let line = stdout.next_line(cfg.timeout, &who)?;
    if let Some(msg) = line.strip_prefix("PRIO-NODE-ERROR ") {
        return Err(ProcError::Handshake { who, msg: msg.into() });
    }
    let parse = |key: &str| -> Result<SocketAddr, ProcError> {
        line_field(&line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ProcError::Handshake {
                who: who.clone(),
                msg: format!("bad handshake line {line:?}"),
            })
    };
    let data_addr = parse("data")?;
    let control_addr = parse("control")?;
    let ctrl = TcpStream::connect(control_addr).map_err(|e| ProcError::Control {
        index,
        msg: format!("connect failed: {e}"),
    })?;
    let _ = ctrl.set_nodelay(true);
    // A control socket without deadlines can hang the orchestrator on a
    // wedged node, so a failure to arm them is a handshake failure, not
    // a shrug.
    let arm = |what: &str, r: std::io::Result<()>| -> Result<(), ProcError> {
        r.map_err(|e| ProcError::Handshake {
            who: who.clone(),
            msg: format!("setting control {what} timeout failed: {e}"),
        })
    };
    arm("read", ctrl.set_read_timeout(Some(cfg.timeout)))?;
    arm("write", ctrl.set_write_timeout(Some(cfg.timeout)))?;
    Ok(NodeHandle {
        child,
        _stdout: stdout,
        ctrl,
        data_addr,
        epoch_est_us: 0,
    })
}

/// Midpoint of a `[before, after]` window on the deployment clock, in µs —
/// the orchestrator's estimate of where inside the window a child pinned
/// its recorder epoch.
fn midpoint_us(before: Duration, after: Duration) -> i64 {
    ((before.as_micros() + after.as_micros()) / 2) as i64
}

impl ProcDeployment {
    /// Spawns the node cluster and brings it to the ready barrier: every
    /// node has bound its ephemeral ports, learned all its peers, and
    /// answered `Ready` on its control socket.
    pub fn launch(cfg: ProcConfig) -> Result<Self, ProcError> {
        if cfg.num_servers < 2 {
            return Err(ProcError::Config(format!(
                "Prio needs at least two servers, got {}",
                cfg.num_servers
            )));
        }
        let node_bin = match &cfg.node_bin {
            Some(path) => path.clone(),
            None => find_binary("prio-node")?,
        };
        let mut deployment = ProcDeployment {
            nodes: Vec::with_capacity(cfg.num_servers),
            cfg,
            epoch: Instant::now(),
        };
        match deployment.launch_inner(&node_bin) {
            Ok(()) => Ok(deployment),
            Err(e) => {
                deployment.abort();
                Err(e)
            }
        }
    }

    fn launch_inner(&mut self, node_bin: &PathBuf) -> Result<(), ProcError> {
        for index in 0..self.cfg.num_servers {
            let before = self.epoch.elapsed();
            let mut handle = spawn_node(node_bin, &self.cfg, index)?;
            handle.epoch_est_us = midpoint_us(before, self.epoch.elapsed());
            self.nodes.push(handle);
        }
        self.distribute_peers()
    }

    /// Sends the full data-plane address map to every node and passes the
    /// readiness barrier. Safe to repeat — nodes update the addresses of
    /// peers they already know, which is how a restarted node's fresh
    /// ephemeral port propagates.
    fn distribute_peers(&mut self) -> Result<(), ProcError> {
        let peers: Vec<(u64, SocketAddr)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u64, n.data_addr))
            .collect();
        for index in 0..self.nodes.len() {
            self.control(index, &CtrlMsg::Peers(peers.clone()), |m| {
                matches!(m, CtrlMsg::Ready)
            })?;
        }
        Ok(())
    }

    /// Data-plane addresses of the nodes, index order (exposed for chaos
    /// tests that inject traffic directly).
    pub fn node_data_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.data_addr).collect()
    }

    /// Kills one node process outright — the chaos-test hook for the
    /// "node dies mid-batch" scenario.
    pub fn kill_node(&mut self, index: usize) {
        let _ = self.nodes[index].child.kill();
        let _ = self.nodes[index].child.wait();
    }

    /// Replaces node `index` with a fresh process: kills whatever is
    /// there (idempotent if it already died), spawns a new `prio-node`
    /// with the same config, and re-distributes the address map so every
    /// surviving peer rebinds to the replacement's fresh ephemeral port.
    ///
    /// The replacement starts with an empty accumulator and no server
    /// loop; callers that drive ingest themselves re-issue
    /// [`ProcDeployment::ingest_node`] afterwards. This is the recovery
    /// half of the paper's §7 availability story: a crashed server costs
    /// the batches it was mid-way through, not the deployment.
    pub fn restart_node(&mut self, index: usize) -> Result<(), ProcError> {
        self.kill_node(index);
        let node_bin = match &self.cfg.node_bin {
            Some(path) => path.clone(),
            None => find_binary("prio-node")?,
        };
        let before = self.epoch.elapsed();
        let mut handle = spawn_node(&node_bin, &self.cfg, index)?;
        handle.epoch_est_us = midpoint_us(before, self.epoch.elapsed());
        self.nodes[index] = handle;
        self.distribute_peers()
    }

    /// Registers an external driver endpoint at node `index` and starts
    /// its server loop — the driverless-API twin of what `run` does
    /// through `prio-submit`, used by chaos tests and benches that hold
    /// their own in-process [`BatchDriver`](prio_core::BatchDriver).
    pub fn ingest_node(
        &mut self,
        index: usize,
        driver: u64,
        addr: SocketAddr,
    ) -> Result<(), ProcError> {
        self.control(index, &CtrlMsg::Ingest { driver, addr }, |m| {
            matches!(m, CtrlMsg::IngestAck)
        })
        .map(|_| ())
    }

    /// [`ProcDeployment::ingest_node`] for every node.
    pub fn ingest_all(&mut self, driver: u64, addr: SocketAddr) -> Result<(), ProcError> {
        for index in 0..self.nodes.len() {
            self.ingest_node(index, driver, addr)?;
        }
        Ok(())
    }

    /// Joins node `index`'s server loop and returns its statistics.
    pub fn flush_stats(&mut self, index: usize) -> Result<NodeStats, ProcError> {
        let reply =
            self.control(index, &CtrlMsg::FlushAggregate, |m| matches!(m, CtrlMsg::Stats(_)))?;
        match reply {
            CtrlMsg::Stats(stats) => Ok(stats),
            reply => Err(ProcError::Control {
                index,
                msg: format!("expected Stats, got {reply:?}"),
            }),
        }
    }

    /// Orderly teardown for driverless use: `Shutdown`/`Bye` every node,
    /// wait for exits, and report whether all of them were clean.
    /// Consumes the deployment.
    pub fn shutdown_all(mut self) -> Result<bool, ProcError> {
        let timeout = self.cfg.timeout;
        let mut clean_exit = true;
        for index in 0..self.nodes.len() {
            let reply =
                self.control(index, &CtrlMsg::Shutdown, |m| matches!(m, CtrlMsg::Bye { .. }))?;
            let CtrlMsg::Bye { clean } = reply else {
                return Err(ProcError::Control {
                    index,
                    msg: format!("expected Bye, got {reply:?}"),
                });
            };
            let status = wait_deadline(&mut self.nodes[index].child, timeout)
                .ok_or_else(|| ProcError::Timeout(format!("node {index} exit")))?;
            clean_exit &= clean && status.success();
        }
        Ok(clean_exit)
    }

    /// Scrapes one node's live metrics registry over the control plane.
    /// Valid at any point after the ready barrier — including mid-batch,
    /// which is what makes it a monitoring primitive rather than a
    /// post-mortem one.
    pub fn scrape_metrics(&mut self, index: usize) -> Result<prio_obs::Snapshot, ProcError> {
        let reply =
            self.control(index, &CtrlMsg::GetMetrics, |m| matches!(m, CtrlMsg::Metrics(_)))?;
        let CtrlMsg::Metrics(json) = reply else {
            return Err(ProcError::Control {
                index,
                msg: format!("expected Metrics, got {reply:?}"),
            });
        };
        prio_obs::Snapshot::from_json(&json).map_err(|e| ProcError::Control {
            index,
            msg: format!("unparseable metrics exposition: {e}"),
        })
    }

    /// Scrapes one node's trace span buffer over the control plane and
    /// stamps it with the orchestrator's clock-offset estimate for that
    /// node, so timestamps become comparable across the cluster.
    pub fn scrape_traces(
        &mut self,
        index: usize,
    ) -> Result<prio_obs::trace::NodeTrace, ProcError> {
        let reply =
            self.control(index, &CtrlMsg::GetTraces, |m| matches!(m, CtrlMsg::Traces(_)))?;
        let CtrlMsg::Traces(json) = reply else {
            return Err(ProcError::Control {
                index,
                msg: format!("expected Traces, got {reply:?}"),
            });
        };
        let mut nt = prio_obs::trace::NodeTrace::from_json(&json).map_err(|e| {
            ProcError::Control {
                index,
                msg: format!("unparseable trace buffer: {e}"),
            }
        })?;
        nt.clock_offset_us = self.nodes[index].epoch_est_us;
        Ok(nt)
    }

    /// Sends one control message and checks the reply against `expect`.
    fn control(
        &mut self,
        index: usize,
        msg: &CtrlMsg,
        expect: impl Fn(&CtrlMsg) -> bool,
    ) -> Result<CtrlMsg, ProcError> {
        let node = &mut self.nodes[index];
        let fail = |msg: String| ProcError::Control { index, msg };
        write_ctrl(&mut node.ctrl, msg).map_err(|e| fail(format!("send failed: {e}")))?;
        let reply = match read_ctrl(&mut node.ctrl) {
            Ok(Some(reply)) => reply,
            Ok(None) => {
                let status = wait_deadline(&mut node.child, Duration::from_millis(500));
                return Err(ProcError::NodeDied { index, status });
            }
            Err(e) => return Err(fail(format!("recv failed: {e}"))),
        };
        match reply {
            CtrlMsg::Fail(msg) => Err(fail(msg)),
            reply if expect(&reply) => Ok(reply),
            reply => Err(fail(format!("unexpected reply {reply:?}"))),
        }
    }

    /// Runs the full submission workload through the cluster and tears it
    /// down. Consumes the deployment; any failure kills every child.
    pub fn run(mut self) -> Result<ProcReport, ProcError> {
        match self.run_inner() {
            Ok(report) => Ok(report),
            Err(e) => {
                self.abort();
                Err(e)
            }
        }
    }

    fn run_inner(&mut self) -> Result<ProcReport, ProcError> {
        let cfg = self.cfg.clone();
        let submit_bin = match &cfg.submit_bin {
            Some(path) => path.clone(),
            None => find_binary("prio-submit")?,
        };
        let servers = self
            .node_data_addrs()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let submit_spawned = self.epoch.elapsed();
        let mut submit = Command::new(&submit_bin)
            .args(["--servers", &servers])
            .args(["--afe", cfg.afe.tag()])
            .args(["--size", &cfg.afe.size().to_string()])
            .args(["--field", cfg.field.tag()])
            .args(["--h-form", h_form_tag(cfg.h_form)])
            .args(["--submissions", &cfg.submissions.to_string()])
            .args(["--tamper-permille", &cfg.tamper_permille.to_string()])
            .args(["--batch", &cfg.batch.to_string()])
            .args(["--runs", &cfg.runs.to_string()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--timeout-ms", &cfg.timeout.as_millis().to_string()])
            .args(match &cfg.fault_plan {
                Some(plan) => vec!["--fault-plan".to_string(), plan.to_spec()],
                None => Vec::new(),
            })
            .args(match cfg.batch_deadline {
                Some(d) => vec![
                    "--batch-deadline-ms".to_string(),
                    d.as_millis().to_string(),
                ],
                None => Vec::new(),
            })
            .args(if cfg.trace { &["--trace"][..] } else { &[][..] })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(ProcError::Spawn)?;
        // As in launch_inner: both handles were requested as piped, so a
        // None is a spawn anomaly — kill the child rather than leak it
        // (the error path below has not registered it anywhere yet).
        let (out_pipe, in_pipe) = (submit.stdout.take(), submit.stdin.take());
        let (Some(submit_stdout), Some(mut submit_in)) = (out_pipe, in_pipe) else {
            let _ = submit.kill();
            let _ = submit.wait();
            return Err(ProcError::Spawn(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "submit child is missing a piped stdio handle",
            )));
        };
        let submit_out = LineReader::spawn(submit_stdout);

        let result = (|| {
            let line = submit_out.next_line(cfg.timeout, "submit")?;
            let submit_epoch_est_us = midpoint_us(submit_spawned, self.epoch.elapsed());
            if let Some(msg) = line.strip_prefix("PRIO-SUBMIT-ERROR ") {
                return Err(ProcError::Submit(msg.into()));
            }
            let driver_addr: SocketAddr = line_field(&line, "data")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ProcError::Handshake {
                    who: "submit".into(),
                    msg: format!("bad handshake line {line:?}"),
                })?;

            // Register the driver at every node; only then may it send.
            let driver_id = cfg.num_servers as u64;
            for index in 0..self.nodes.len() {
                self.control(
                    index,
                    &CtrlMsg::Ingest {
                        driver: driver_id,
                        addr: driver_addr,
                    },
                    |m| matches!(m, CtrlMsg::IngestAck),
                )?;
            }
            submit_in
                .write_all(b"GO\n")
                .map_err(|e| ProcError::Submit(format!("sending GO failed: {e}")))?;

            // The whole workload runs between GO and the result line.
            // Derive the deadline from how many batches actually run: each
            // batch is bounded driver-side (its deadline when degradation
            // is on, otherwise the receive timeout), plus one timeout of
            // slack for encode/publish/teardown — so a long sweep cannot
            // trip a fixed multiple, and a wedged cluster still surfaces
            // promptly.
            let total_batches = (cfg.runs as u32)
                .saturating_mul(cfg.submissions.div_ceil(cfg.batch.max(1)).max(1) as u32);
            let per_batch = cfg.batch_deadline.unwrap_or(cfg.timeout);
            let run_deadline = per_batch
                .saturating_mul(total_batches)
                .saturating_add(cfg.timeout);
            // A traced driver prints its own span buffer (`PRIO-TRACE`)
            // just before the result line; anything else unexpected still
            // errors.
            let mut driver_trace_json: Option<String> = None;
            let line = loop {
                let line = submit_out.next_line(run_deadline, "submit result")?;
                if let Some(payload) = line.strip_prefix("PRIO-TRACE ") {
                    driver_trace_json = Some(payload.to_string());
                    continue;
                }
                break line;
            };
            if let Some(msg) = line.strip_prefix("PRIO-SUBMIT-ERROR ") {
                return Err(ProcError::Submit(msg.into()));
            }
            if !line.starts_with("PRIO-RESULT ") {
                return Err(ProcError::Submit(format!("unexpected output {line:?}")));
            }
            let num = |key: &str| -> Result<u64, ProcError> {
                line_field(&line, key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ProcError::Submit(format!("result lacks {key}: {line:?}")))
            };
            let list = |key: &str| -> Result<Vec<u64>, ProcError> {
                let raw = line_field(&line, key)
                    .ok_or_else(|| ProcError::Submit(format!("result lacks {key}: {line:?}")))?;
                if raw.is_empty() {
                    return Ok(Vec::new());
                }
                raw.split(',')
                    .map(|tok| {
                        tok.parse()
                            .map_err(|_| ProcError::Submit(format!("bad {key} entry {tok:?}")))
                    })
                    .collect()
            };
            let accepted = num("accepted")?;
            let rejected = num("rejected")?;
            let dropped = num("dropped")?;
            let batch_outcomes = (num("complete")?, num("degraded")?, num("aborted")?);
            let upload_bytes = num("upload_bytes")?;
            let driver_publish_bytes = num("driver_publish_bytes")?;
            let sigma = list("sigma")?;
            let batch_wall = list("batch_wall_us")?
                .into_iter()
                .map(Duration::from_micros)
                .collect();

            let submit_status = wait_deadline(&mut submit, cfg.timeout)
                .ok_or_else(|| ProcError::Timeout("submit process exit".into()))?;
            if !submit_status.success() {
                return Err(ProcError::Submit(format!("exit status {submit_status:?}")));
            }

            // Gather per-node stats, a final metrics scrape, and (traced
            // runs) each node's quiesced span buffer, then shut everything
            // down. FlushAggregate joined the loop thread first, so the
            // buffers are complete.
            let mut node_stats = Vec::with_capacity(self.nodes.len());
            let mut node_metrics = Vec::with_capacity(self.nodes.len());
            let mut node_traces = Vec::new();
            for index in 0..self.nodes.len() {
                let reply = self.control(index, &CtrlMsg::FlushAggregate, |m| {
                    matches!(m, CtrlMsg::Stats(_))
                })?;
                let CtrlMsg::Stats(stats) = reply else {
                    return Err(ProcError::Control {
                        index,
                        msg: format!("expected Stats, got {reply:?}"),
                    });
                };
                node_stats.push(stats);
                node_metrics.push(self.scrape_metrics(index)?);
                if cfg.trace {
                    node_traces.push(self.scrape_traces(index)?);
                }
            }
            if cfg.trace {
                let json = driver_trace_json
                    .ok_or_else(|| ProcError::Submit("traced run printed no PRIO-TRACE".into()))?;
                let mut nt = prio_obs::trace::NodeTrace::from_json(&json)
                    .map_err(|e| ProcError::Submit(format!("unparseable driver trace: {e}")))?;
                nt.clock_offset_us = submit_epoch_est_us;
                node_traces.push(nt);
            }
            // submit_status.success() was checked above, so only the node
            // shutdowns can still flip this.
            let mut clean_exit = true;
            for index in 0..self.nodes.len() {
                let reply =
                    self.control(index, &CtrlMsg::Shutdown, |m| matches!(m, CtrlMsg::Bye { .. }))?;
                let CtrlMsg::Bye { clean } = reply else {
                    return Err(ProcError::Control {
                        index,
                        msg: format!("expected Bye, got {reply:?}"),
                    });
                };
                let status = wait_deadline(&mut self.nodes[index].child, cfg.timeout)
                    .ok_or_else(|| ProcError::Timeout(format!("node {index} exit")))?;
                clean_exit &= clean && status.success();
            }

            Ok(ProcReport {
                accepted,
                rejected,
                dropped,
                batch_outcomes,
                sigma,
                batch_wall,
                upload_bytes,
                driver_publish_bytes,
                node_stats,
                node_metrics,
                node_traces,
                clean_exit,
            })
        })();

        if result.is_err() {
            let _ = submit.kill();
            let _ = submit.wait();
        }
        result
    }

    /// Kills every node that is still running. Idempotent; also runs on
    /// drop, so an errored or abandoned deployment never leaks children.
    fn abort(&mut self) {
        for node in &mut self.nodes {
            if matches!(node.child.try_wait(), Ok(None) | Err(_)) {
                let _ = node.child.kill();
            }
            let _ = node.child.wait();
        }
    }
}

impl Drop for ProcDeployment {
    fn drop(&mut self) {
        self.abort();
    }
}
