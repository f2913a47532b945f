//! The `prio-node` runtime: one aggregation server as an OS process.
//!
//! Startup handshake (stdout, one line, then the control socket takes
//! over):
//!
//! ```text
//! PRIO-NODE index=<i> data=<addr> control=<addr>
//! ```
//!
//! Both listeners bind OS-assigned ephemeral ports — there are no fixed
//! ports anywhere, so any number of deployments can share a machine. A
//! startup failure (bad config, bind error) prints `PRIO-NODE-ERROR <msg>`
//! instead and exits with status 2.
//!
//! After the handshake the node is driven entirely by the control plane
//! (see [`prio_net::control`]): `Peers` registers the data-plane address
//! map, `Ingest` registers the submission driver and starts the shared
//! [`run_server_loop`] on its own thread, `FlushAggregate` joins the loop
//! and reports [`NodeStats`], and `Shutdown` exits — status 0 when the
//! loop finished through an orderly fabric shutdown, 3 when the
//! orchestrator had to abort it mid-run.
//!
//! The server loop runs under [`FramePolicy::Lenient`]: the data socket is
//! reachable by anyone on the host, so an undecodable frame (or one from
//! an unknown sender) is logged and dropped instead of panicking the
//! process — exercised by the garbage-frame chaos test.

use crate::spec::{parse_h_form, parse_verify_mode, AfeSpec, FieldSpec};
use prio_afe::freq::FrequencyAfe;
use prio_afe::linreg::LinRegAfe;
use prio_afe::mostpop::MostPopularAfe;
use prio_afe::sum::SumAfe;
use prio_afe::Afe;
use prio_core::{run_server_loop, FramePolicy, Server, ServerConfig, ServerLoopOptions};
use prio_field::{Field128, Field64, FieldElement};
use prio_net::control::{read_ctrl, write_ctrl, CtrlMsg, NodeConfig, NodeStats};
use prio_net::{FaultPlan, NodeId, RetryPolicy, TcpTransport};
use prio_obs::trace::NodeTrace;
use prio_obs::{Obs, Registry, TraceRecorder};
use prio_snip::{HForm, VerifyMode};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long the node waits for the orchestrator's control connection
/// before giving up (so an orphaned node cannot leak forever).
const ACCEPT_DEADLINE: Duration = Duration::from_secs(60);

fn fail_startup(msg: &str) -> i32 {
    println!("PRIO-NODE-ERROR {msg}");
    let _ = std::io::stdout().flush();
    2
}

/// Node behaviour toggles that live outside the wire [`NodeConfig`]
/// (command-line surface, not protocol surface).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeOptions {
    /// Dump the process-wide metrics registry (Prometheus-style text) to
    /// stderr on shutdown — the `prio-node --metrics` flag.
    pub dump_metrics: bool,
}

/// Runs a node to completion; returns the process exit code.
pub fn run(cfg: &NodeConfig, opts: NodeOptions) -> i32 {
    let Some(afe) = AfeSpec::parse(&cfg.afe, cfg.size) else {
        return fail_startup(&format!("unknown afe '{}'", cfg.afe));
    };
    let Some(field) = FieldSpec::parse(&cfg.field) else {
        return fail_startup(&format!("unknown field '{}'", cfg.field));
    };
    let Some(verify_mode) = parse_verify_mode(&cfg.verify_mode) else {
        return fail_startup(&format!("unknown verify mode '{}'", cfg.verify_mode));
    };
    let Some(h_form) = parse_h_form(&cfg.h_form) else {
        return fail_startup(&format!("unknown h form '{}'", cfg.h_form));
    };
    if cfg.num_servers < 2 || cfg.index >= cfg.num_servers {
        return fail_startup("need index < num_servers and num_servers >= 2");
    }
    if cfg.verify_threads == 0 {
        return fail_startup("need at least one verify thread");
    }
    if !cfg.fault_plan.is_empty() {
        if let Err(e) = FaultPlan::from_spec(&cfg.fault_plan) {
            return fail_startup(&format!("bad fault plan '{}': {e}", cfg.fault_plan));
        }
    }
    match field {
        FieldSpec::F64 => dispatch_afe::<Field64>(cfg, opts, afe, verify_mode, h_form),
        FieldSpec::F128 => dispatch_afe::<Field128>(cfg, opts, afe, verify_mode, h_form),
    }
}

fn dispatch_afe<F: FieldElement>(
    cfg: &NodeConfig,
    opts: NodeOptions,
    afe: AfeSpec,
    verify_mode: VerifyMode,
    h_form: HForm,
) -> i32 {
    match afe {
        AfeSpec::Sum(bits) => session::<F, _>(SumAfe::new(bits), cfg, opts, verify_mode, h_form),
        AfeSpec::Freq(n) => session::<F, _>(FrequencyAfe::new(n), cfg, opts, verify_mode, h_form),
        AfeSpec::LinReg(d) => {
            session::<F, _>(LinRegAfe::new(d, 8), cfg, opts, verify_mode, h_form)
        }
        AfeSpec::MostPop(bits) => {
            session::<F, _>(MostPopularAfe::new(bits), cfg, opts, verify_mode, h_form)
        }
    }
}

/// Accepts the orchestrator's control connection within a deadline.
fn accept_control(listener: &TcpListener) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + ACCEPT_DEADLINE;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no control connection within the accept deadline",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

type LoopOutcome = (u64, u64, prio_core::ServerLoopReport, u64);

fn session<F: FieldElement, A: Afe<F> + Send + Sync + 'static>(
    afe: A,
    cfg: &NodeConfig,
    opts: NodeOptions,
    verify_mode: VerifyMode,
    h_form: HForm,
) -> i32 {
    let index = cfg.index as usize;
    let num_servers = cfg.num_servers as usize;
    // Validated in `run`; degrade an unparsable (or noop) plan to "no
    // faults" rather than trusting that invariant.
    let fault_plan = if cfg.fault_plan.is_empty() {
        None
    } else {
        FaultPlan::from_spec(&cfg.fault_plan)
            .ok()
            .filter(|p| !p.is_noop())
    };
    let net = TcpTransport::new();
    let data_ep = match net.try_endpoint_with_id(NodeId(index)) {
        Ok(ep) => ep,
        Err(e) => return fail_startup(&format!("data-plane bind failed: {e}")),
    };
    // Fault injection wraps the node's own data endpoint, so every
    // outbound frame this server sends rides the plan's per-link streams.
    let data_ep = match &fault_plan {
        Some(plan) => plan.wrap(data_ep),
        None => data_ep,
    };
    let Some(data_addr) = data_ep.local_addr() else {
        return fail_startup("data-plane endpoint has no TCP address");
    };
    let control = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => return fail_startup(&format!("control bind failed: {e}")),
    };
    let control_addr = match control.local_addr() {
        Ok(addr) => addr,
        Err(e) => return fail_startup(&format!("control listener has no address: {e}")),
    };

    // Enabling before the handshake pins the recorder's epoch at (nearly)
    // process start — the assumption behind the orchestrator's
    // spawn/handshake midpoint clock-offset estimate.
    if cfg.trace {
        TraceRecorder::global().enable();
    }

    println!("PRIO-NODE index={index} data={data_addr} control={control_addr}");
    let _ = std::io::stdout().flush();

    let mut ctrl = match accept_control(&control) {
        Ok(stream) => stream,
        Err(e) => return fail_startup(&format!("control accept failed: {e}")),
    };

    let mut server = Some(Server::new(
        afe,
        ServerConfig {
            index,
            num_servers,
            verify_mode,
            h_form,
        },
    ));
    let mut data_ep = Some(data_ep);
    let mut handle: Option<std::thread::JoinHandle<LoopOutcome>> = None;
    let verify_threads = cfg.verify_threads as usize;

    loop {
        let msg = match read_ctrl(&mut ctrl) {
            Ok(Some(msg)) => msg,
            // Control connection gone: the orchestrator died. Exit rather
            // than leak a process; the loop thread (if any) dies with us.
            Ok(None) | Err(_) => return 2,
        };
        let reply = match msg {
            CtrlMsg::Peers(peers) => {
                let mut err = None;
                for (id, addr) in peers {
                    if id as usize == index {
                        continue; // our own listener, already bound
                    }
                    if let Err(e) = net.register_peer(NodeId(id as usize), addr) {
                        err = Some(format!("peer registration failed: {e}"));
                        break;
                    }
                }
                match err {
                    None => CtrlMsg::Ready,
                    Some(msg) => CtrlMsg::Fail(msg),
                }
            }
            CtrlMsg::Ingest { driver, addr } => {
                let driver = NodeId(driver as usize);
                if let Err(e) = net.register_peer(driver, addr) {
                    CtrlMsg::Fail(format!("driver registration failed: {e}"))
                } else {
                    match (server.take(), data_ep.take()) {
                        (Some(mut server), Some(ep)) => {
                            let ids: Vec<NodeId> = (0..num_servers).map(NodeId).collect();
                            let loop_opts = ServerLoopOptions {
                                verify_threads,
                                frame_policy: FramePolicy::Lenient,
                                obs: Obs::global(),
                                batch_deadline: (cfg.batch_deadline_ms > 0)
                                    .then(|| Duration::from_millis(cfg.batch_deadline_ms)),
                                // Under fault injection, ride out injected
                                // drops; a clean fabric keeps the classic
                                // fail-fast sends.
                                retry: if fault_plan.is_some() {
                                    RetryPolicy::default().with_seed(cfg.index)
                                } else {
                                    RetryPolicy::none()
                                },
                                // A faulted node bounds its idle receive
                                // so a dropped Shutdown frame can't leave
                                // the loop thread blocked past the
                                // orchestrator's teardown.
                                idle_deadline: fault_plan.is_some().then(|| {
                                    if cfg.batch_deadline_ms > 0 {
                                        Duration::from_millis(cfg.batch_deadline_ms * 8)
                                    } else {
                                        Duration::from_secs(16)
                                    }
                                }),
                                trace: cfg.trace.then(|| TraceRecorder::global().clone()),
                            };
                            handle = Some(std::thread::spawn(move || {
                                let report =
                                    run_server_loop(&mut server, &ep, &ids, driver, loop_opts);
                                (server.accepted(), server.rejected(), report, ep.bytes_sent())
                            }));
                            CtrlMsg::IngestAck
                        }
                        _ => CtrlMsg::Fail("ingest already started".into()),
                    }
                }
            }
            CtrlMsg::FlushAggregate => match handle.take() {
                Some(h) => match h.join() {
                    Ok((accepted, rejected, report, total_bytes)) => CtrlMsg::Stats(NodeStats {
                        accepted,
                        rejected,
                        verify_bytes_sent: report.verify_bytes_sent,
                        total_bytes_sent: total_bytes,
                        unpack_us: report.timings.unpack.as_micros() as u64,
                        round1_us: report.timings.round1.as_micros() as u64,
                        round2_us: report.timings.round2.as_micros() as u64,
                        publish_us: report.timings.publish.as_micros() as u64,
                        frames_dropped: report.frames_dropped,
                        frames_deduped: report.frames_deduped,
                        batches_abandoned: report.batches_abandoned,
                        clean: report.clean,
                    }),
                    Err(_) => CtrlMsg::Fail("server loop panicked".into()),
                },
                None => CtrlMsg::Fail("no server loop to flush".into()),
            },
            // Live scrape of the process-wide registry: valid at any point
            // after the handshake, including mid-batch, so orchestrators
            // and operators can watch counters move. The payload is the
            // opaque prio-obs/v1 JSON exposition — the control plane stays
            // metric-agnostic.
            CtrlMsg::GetMetrics => CtrlMsg::Metrics(Registry::global().snapshot().to_json()),
            // Span buffer scrape, mirroring `GetMetrics`: the payload is
            // the opaque prio-trace/v1 JSON for this node's buffer. The
            // clock offset is 0 here — the node only knows its own clock;
            // the orchestrator overwrites it with its handshake estimate.
            CtrlMsg::GetTraces => {
                let rec = TraceRecorder::global();
                let (spans, dropped) = rec.snapshot();
                let nt = NodeTrace {
                    node: cfg.index,
                    clock_offset_us: 0,
                    dropped,
                    spans,
                };
                CtrlMsg::Traces(nt.to_json())
            }
            CtrlMsg::Shutdown => {
                // Clean when the loop either finished or never started;
                // aborting a live loop is the orchestrator's failure path.
                let live = handle.as_ref().is_some_and(|h| !h.is_finished());
                let _ = write_ctrl(&mut ctrl, &CtrlMsg::Bye { clean: !live });
                if opts.dump_metrics {
                    eprint!("{}", Registry::global().snapshot().to_text());
                }
                return if live { 3 } else { 0 };
            }
            other => CtrlMsg::Fail(format!("unexpected control message: {other:?}")),
        };
        if write_ctrl(&mut ctrl, &reply).is_err() {
            return 2;
        }
    }
}

// NOTE on randomness (ROADMAP warning): nothing in this module — or in the
// server loop it runs — draws from the test-grade `rand` shim. The only
// protocol randomness a node consumes is the per-batch verification
// context, derived inside `Server::make_context` from the driver's
// `ctx_seed` through `prio_crypto`'s ChaCha20 `PrgRng` (pinned by a vector
// test in `prio_core`).
