//! Hostile-frame regression tests for a network-facing (Lenient) server
//! loop. A loop hit with 10 000 junk frames must account for every one of
//! them in `server_frames_dropped_total{reason=...}` while emitting only a
//! bounded trickle of rate-limited warn events — the stderr-flood fix. A
//! decodable round vector of the wrong length must be dropped the same
//! way instead of ending the loop.

use prio_afe::sum::SumAfe;
use prio_core::messages::{blob_to_bytes, unpack_decisions, ServerMsg};
use prio_core::{
    run_server_loop, Client, ClientConfig, FramePolicy, Server, ServerConfig, ServerLoopOptions,
};
use prio_field::Field64;
use prio_net::wire::Wire;
use prio_net::SimNetwork;
use prio_obs::{names, CaptureSink, Events, Level, Obs, Registry};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const FLOOD: u64 = 10_000;
const FROM_STRANGER: u64 = 6_000;
const FROM_FORGER: u64 = FLOOD - FROM_STRANGER;

#[test]
fn garbage_flood_is_counted_not_printed() {
    // A private Obs bundle: fresh registry (exact counts, no bleed from
    // other tests in this process) and a capture sink (assert on events
    // instead of eyeballing stderr).
    let registry = Arc::new(Registry::new());
    let sink = Arc::new(CaptureSink::new());
    let events = Events::new(sink.clone(), Level::Debug);
    let obs = Obs::new(registry.clone(), events);

    let net = SimNetwork::new();
    let server_ep = net.endpoint();
    let peer_ep = net.endpoint();
    let driver_ep = net.endpoint();
    let stranger_ep = net.endpoint();
    let server_id = server_ep.id();
    let ids = vec![server_id, peer_ep.id()];
    let driver_id = driver_ep.id();

    let handle = std::thread::spawn(move || {
        let mut server = Server::<Field64, _>::new(
            SumAfe::new(8),
            ServerConfig {
                index: 0,
                num_servers: 2,
                verify_mode: prio_snip::VerifyMode::FixedPoint,
                h_form: prio_snip::HForm::PointValue,
            },
        );
        let opts = ServerLoopOptions {
            verify_threads: 1,
            frame_policy: FramePolicy::Lenient,
            obs,
            ..ServerLoopOptions::default()
        };
        run_server_loop(&mut server, &server_ep, &ids, driver_id, opts)
    });

    // The flood: well-formed frames from a sender outside the deployment
    // (dropped as unknown_sender) and undecodable junk from a "known"
    // sender id (dropped as undecodable). The sim fabric is one global
    // FIFO, so everything lands before the shutdown below.
    let junk = ServerMsg::<Field64>::Shutdown.to_wire_bytes();
    for _ in 0..FROM_STRANGER - 1 {
        stranger_ep.send(server_id, junk.clone()).unwrap();
    }
    // A suppressed tally only becomes visible on the *next emitted* event
    // of the same name, and emission needs a refilled token (1/s). Hold
    // the last stranger frame back past one refill period so the flood's
    // suppression count surfaces deterministically.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    stranger_ep.send(server_id, junk.clone()).unwrap();
    for i in 0..FROM_FORGER {
        driver_ep.send(server_id, vec![0xFF, (i & 0xFF) as u8, 0xEE]).unwrap();
    }
    driver_ep
        .send(server_id, ServerMsg::<Field64>::Shutdown.to_wire_bytes())
        .unwrap();

    let report = handle.join().expect("server loop panicked");
    assert!(report.clean, "loop must exit through the orderly shutdown");

    // Exact accounting: every flood frame is in a drop counter, split by
    // reason, and the loop's local tally agrees.
    assert_eq!(report.frames_dropped, FLOOD);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "unknown_sender")]),
        Some(FROM_STRANGER)
    );
    assert_eq!(
        snap.counter(names::SERVER_FRAMES_DROPPED, &[("reason", "undecodable")]),
        Some(FROM_FORGER)
    );
    assert_eq!(snap.counter_sum(names::SERVER_FRAMES_DROPPED), FLOOD);

    // Bounded narration: the old code printed one stderr line per frame
    // (10 000 lines); the rate limiter must keep this to a trickle. The
    // default budget is a burst of 5 per event name plus 1/s refill, and
    // the flood takes well under a minute, so even with refill slack the
    // two event names together stay far below 100 — and nowhere near the
    // 10 000 a per-frame print would produce.
    let captured = sink.events();
    assert!(
        captured.len() < 100,
        "expected a bounded trickle of warn events, got {}",
        captured.len()
    );
    assert!(captured
        .iter()
        .all(|e| e.name.starts_with("frame_dropped_")));
    // Suppression is visible: at least one emitted event carries the
    // count of the flood frames it stands in for.
    assert!(
        captured.iter().any(|e| e.suppressed > 0),
        "a 10k flood must trip the rate limiter"
    );
}

fn sum_server(index: usize) -> Server<Field64, SumAfe> {
    Server::new(
        SumAfe::new(8),
        ServerConfig {
            index,
            num_servers: 2,
            verify_mode: prio_snip::VerifyMode::FixedPoint,
            h_form: prio_snip::HForm::PointValue,
        },
    )
}

#[test]
fn wrong_length_round_vector_is_dropped_not_fatal() {
    // A 2-server Lenient leader; this test plays the driver and the
    // non-leader. The peer's sender id is all a forger needs, so a short
    // round-1 vector "from the peer" must not end the loop or count as the
    // peer's contribution.
    let registry = Arc::new(Registry::new());
    let events = Events::new(Arc::new(CaptureSink::new()), Level::Debug);
    let obs = Obs::new(registry.clone(), events);
    let net = SimNetwork::new();
    let leader_ep = net.endpoint();
    let peer_ep = net.endpoint();
    let driver_ep = net.endpoint();
    let leader_id = leader_ep.id();
    let ids = vec![leader_id, peer_ep.id()];
    let driver_id = driver_ep.id();
    let handle = std::thread::spawn(move || {
        let opts = ServerLoopOptions {
            frame_policy: FramePolicy::Lenient,
            obs,
            batch_deadline: Some(Duration::from_secs(10)),
            ..ServerLoopOptions::default()
        };
        run_server_loop(&mut sum_server(0), &leader_ep, &ids, driver_id, opts)
    });

    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let mut client: Client<Field64, _> = Client::new(SumAfe::new(8), ClientConfig::new(2));
    let subs: Vec<_> = (0..4u64).map(|v| client.submit(&v, &mut rng).unwrap()).collect();
    let ctx_seed = 0x5eed;
    let batch = ServerMsg::<Field64>::ClientBatch {
        ctx_seed,
        labels: subs.iter().map(|sub| sub.prg_label).collect(),
        blobs: subs.iter().map(|sub| blob_to_bytes(&sub.blobs[0])).collect(),
    };
    driver_ep.send(leader_id, batch.to_wire_bytes()).unwrap();

    let peer = sum_server(1);
    let ctx = peer.make_context(ctx_seed).unwrap();
    let unpacked: Vec<_> = subs
        .iter()
        .map(|sub| peer.unpack(&sub.blobs[1], sub.prg_label).unwrap())
        .collect();
    let items: Vec<_> = unpacked.iter().map(|(x, proof)| (x.as_slice(), proof)).collect();
    let (states, round1): (Vec<_>, Vec<_>) = peer
        .round1_batch(&ctx, &items, 1)
        .into_iter()
        .map(Result::unwrap)
        .unzip();
    let to_leader = |msg: ServerMsg<Field64>| peer_ep.send(leader_id, msg.to_wire_bytes()).unwrap();
    to_leader(ServerMsg::Round1 {
        ctx: ctx_seed,
        msgs: round1[..1].to_vec(),
    });
    to_leader(ServerMsg::Round1 {
        ctx: ctx_seed,
        msgs: round1,
    });
    let env = peer_ep.recv_timeout(Duration::from_secs(10)).expect("combined vector");
    let combined = match ServerMsg::<Field64>::from_wire_bytes(&env.payload).unwrap() {
        ServerMsg::Round1Combined { msgs, .. } => msgs,
        other => panic!("expected Round1Combined, got {other:?}"),
    };
    to_leader(ServerMsg::Round2 {
        ctx: ctx_seed,
        msgs: peer.round2_batch(&states, &combined),
    });

    let env = driver_ep.recv_timeout(Duration::from_secs(10)).expect("decisions reach the driver");
    match ServerMsg::<Field64>::from_wire_bytes(&env.payload).unwrap() {
        ServerMsg::Decisions { bits, .. } => assert_eq!(unpack_decisions(&bits, 4), vec![true; 4]),
        other => panic!("expected Decisions, got {other:?}"),
    }
    driver_ep
        .send(leader_id, ServerMsg::<Field64>::Shutdown.to_wire_bytes())
        .unwrap();
    let report = handle.join().expect("server loop panicked");
    assert!(report.clean, "loop must exit through the orderly shutdown");
    assert_eq!(report.frames_dropped, 1);
    assert_eq!(
        registry
            .snapshot()
            .counter(names::SERVER_FRAMES_DROPPED, &[("reason", "wrong_length")]),
        Some(1)
    );
}
