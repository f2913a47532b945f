//! End-to-end acceptance for the readiness-driven TCP reactor that serves
//! every inbound connection of a `prio_net` TCP endpoint.
//!
//! The `tests/e2e_obs.rs` garbage-frame flood, replayed against a
//! multi-process deployment whose nodes' data planes run on the reactor:
//! all 10 000 frames must be dropped with exact per-reason counts while
//! the honest batch sails through.

use prio_net::tcp::encode_frame;
use prio_net::NodeId;
use prio_obs::names;
use prio_proc::{AfeSpec, FieldSpec, ProcConfig, ProcDeployment};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The e2e_obs garbage flood, pointed at one node: 10 000 well-framed
/// envelopes from an unknown sender traverse the reactor's per-connection
/// decoder into the server loop's mailbox and are dropped there with exact
/// accounting, without disturbing the honest batch.
#[test]
fn garbage_flood_against_the_reactor_is_fully_accounted() {
    const FLOOD: u64 = 10_000;
    const SUBMISSIONS: usize = 60;
    let cfg = ProcConfig::new(3, AfeSpec::Sum(8), FieldSpec::F64, SUBMISSIONS)
        .with_tamper_permille(100)
        .with_seed(0x0B5E);
    let mut deployment = ProcDeployment::launch(cfg).expect("cluster launches");
    let target = deployment.node_data_addrs()[0];

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

    // Scrape until the reactor has delivered the full flood, then confirm
    // its loop really was the path that carried it: the reactor gauges and
    // counters must be live in the node's registry.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = deployment.scrape_metrics(0).expect("live scrape");
        let received = snap.counter(names::NET_FRAMES_RECEIVED, &[]).unwrap_or(0);
        if received >= FLOOD {
            assert!(
                snap.counter(names::NET_REACTOR_ACCEPTED, &[]).unwrap_or(0) > 0,
                "flood was delivered but the reactor accepted nothing"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {received}/{FLOOD} flood frames delivered within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let report = deployment.run().expect("pipeline completes despite flood");
    assert!(report.clean_exit);

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
