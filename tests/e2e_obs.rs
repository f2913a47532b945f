//! End-to-end observability acceptance: the `GetMetrics` control-plane
//! scrape of a real multi-process deployment.
//!
//! Two scenarios:
//!
//! 1. **Parity** — a clean 3-process run's per-node metric snapshots must
//!    agree *exactly* with the [`NodeStats`] figures the control plane
//!    already reports (accepted, rejected, total bytes, frames dropped):
//!    two independent accounting paths, one truth.
//! 2. **Flood accounting across the process boundary** — 10 000 garbage
//!    frames injected at a node's public data socket are all accounted for
//!    in `server_frames_dropped_total{reason=unknown_sender}`, scraped
//!    live over `GetMetrics`, without disturbing the honest batch.

use prio_net::tcp::encode_frame;
use prio_net::NodeId;
use prio_obs::names;
use prio_proc::{AfeSpec, FieldSpec, ProcConfig, ProcDeployment};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SUBMISSIONS: usize = 60;
const SEED: u64 = 0x0B5E;

fn launch(servers: usize) -> ProcDeployment {
    let cfg = ProcConfig::new(servers, AfeSpec::Sum(8), FieldSpec::F64, SUBMISSIONS)
        .with_tamper_permille(100) // 10% tampered → both reject reasons exercised
        .with_seed(SEED);
    ProcDeployment::launch(cfg).expect("cluster launches")
}

#[test]
fn scraped_metrics_match_node_stats_exactly() {
    let deployment = launch(3);
    let report = deployment.run().expect("pipeline completes");
    assert!(report.clean_exit);
    assert_eq!(report.node_metrics.len(), 3);

    for (i, (stats, snap)) in report.node_stats.iter().zip(&report.node_metrics).enumerate() {
        // Submission accounting: the registry's counters vs. the counts
        // the server handed the control plane.
        assert_eq!(
            snap.counter(names::SERVER_SUBMISSIONS_ACCEPTED, &[]),
            Some(stats.accepted),
            "node {i} accepted"
        );
        assert_eq!(
            snap.counter_sum(names::SERVER_SUBMISSIONS_REJECTED),
            stats.rejected,
            "node {i} rejected"
        );
        // 10% tampered: the SNIP-vote reject reason must be populated.
        assert!(
            snap.counter(names::SERVER_SUBMISSIONS_REJECTED, &[("reason", "verify")])
                .unwrap_or(0)
                > 0,
            "node {i} saw no verify rejections"
        );
        // Byte accounting: the fabric-level counter vs. the endpoint
        // counter NodeStats samples — a node process has exactly one
        // endpoint, so the two paths must agree to the byte.
        assert_eq!(
            snap.counter(names::NET_BYTES_SENT, &[]),
            Some(stats.total_bytes_sent),
            "node {i} bytes sent"
        );
        // A clean run drops nothing, and both paths say so.
        assert_eq!(stats.frames_dropped, 0, "node {i} dropped frames");
        assert_eq!(snap.counter_sum(names::SERVER_FRAMES_DROPPED), 0, "node {i}");
        // Phase latency histograms populated: one observation per batch
        // per phase, and the publish phase exactly once.
        for phase in ["unpack", "round1", "round2", "publish"] {
            let h = snap
                .histogram(names::SERVER_PHASE_US, &[("phase", phase)])
                .unwrap_or_else(|| panic!("node {i} lacks phase {phase}"));
            assert!(h.count > 0, "node {i} phase {phase} never observed");
        }
    }

    // The per-node counters also reconcile with the driver's totals.
    let accepted: u64 = report
        .node_metrics
        .iter()
        .map(|s| s.counter(names::SERVER_SUBMISSIONS_ACCEPTED, &[]).unwrap_or(0))
        .sum();
    assert_eq!(accepted, report.accepted * 3, "every node votes on every submission");
}

#[test]
fn garbage_flood_across_processes_is_fully_accounted() {
    const FLOOD: u64 = 10_000;
    let mut deployment = launch(3);
    let target = deployment.node_data_addrs()[0];

    // Inject the flood at the node's public data socket: well-framed
    // transport envelopes from a sender id outside the deployment, so they
    // traverse the TCP reader into the server loop's mailbox and must be
    // dropped there as unknown_sender.
    let mut attacker = TcpStream::connect(target).expect("node data socket reachable");
    let frame = encode_frame(NodeId(999), b"not a protocol message").expect("frame fits");
    let mut burst = Vec::with_capacity(frame.len() * 64);
    for chunk in 0..FLOOD / 64 {
        burst.clear();
        for _ in 0..64 {
            burst.extend_from_slice(&frame);
        }
        attacker.write_all(&burst).unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
    }
    for _ in 0..FLOOD % 64 {
        attacker.write_all(&frame).expect("tail frame");
    }
    attacker.flush().expect("flush");
    drop(attacker); // frame-boundary close: clean EOF at the decoder

    // Live scrape until the transport has taken delivery of all 10 000
    // frames — GetMetrics is valid long before any batch runs, which is
    // exactly what makes it a monitoring primitive. Polling the *receive*
    // counter (incremented by the node's reactor) rather than the drop
    // counter (incremented by the not-yet-started server loop) also
    // removes any cross-connection ordering race with the driver traffic.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = deployment.scrape_metrics(0).expect("live scrape");
        let received = snap.counter(names::NET_FRAMES_RECEIVED, &[]).unwrap_or(0);
        if received >= FLOOD {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {received}/{FLOOD} flood frames delivered within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The honest workload must sail through the flooded node untouched.
    let report = deployment.run().expect("pipeline completes despite flood");
    assert!(report.clean_exit);

    // Every flood frame is accounted for, by reason, on the flooded node —
    // per the node's own report and per the scraped registry — and the
    // other nodes saw none of it.
    assert_eq!(report.node_stats[0].frames_dropped, FLOOD);
    let snap = &report.node_metrics[0];
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "unknown_sender")]),
        Some(FLOOD)
    );
    assert_eq!(snap.counter_sum(names::SERVER_FRAMES_DROPPED), FLOOD);
    for i in 1..3 {
        assert_eq!(report.node_stats[i].frames_dropped, 0, "node {i}");
        assert_eq!(report.node_metrics[i].counter_sum(names::SERVER_FRAMES_DROPPED), 0);
    }
}
