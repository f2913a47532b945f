//! Multi-process deployment tests, including the failure-injection
//! ("chaos") scenarios: a node killed mid-batch must surface a typed error
//! without hanging, and garbage on a node's data socket must be rejected
//! without crashing the node.
//!
//! These live in `prio_proc`'s own test tree so `CARGO_BIN_EXE_*` pins the
//! exact binaries under test (cargo builds them before running this).

use prio_core::Cluster;
use prio_field::{Field64, FieldElement};
use prio_net::tcp::encode_frame;
use prio_net::NodeId;
use prio_proc::spec::{encode_submissions, tampered_count};
use prio_proc::{AfeSpec, FieldSpec, ProcConfig, ProcDeployment, ProcError};
use prio_snip::{HForm, VerifyMode};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn test_config(servers: usize, submissions: usize) -> ProcConfig {
    let mut cfg = ProcConfig::new(servers, AfeSpec::Sum(8), FieldSpec::F64, submissions);
    cfg.node_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_prio-node")));
    cfg.submit_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_prio-submit")));
    cfg
}

/// Reference run: the same submissions through the in-process
/// single-threaded cluster. Returns (accepted, rejected, sigma).
fn cluster_reference(
    servers: usize,
    submissions: usize,
    seed: u64,
    tamper_permille: u32,
) -> (u64, u64, Vec<u64>) {
    let subs = encode_submissions::<Field64>(
        AfeSpec::Sum(8),
        servers,
        HForm::PointValue,
        submissions,
        seed,
        tamper_permille,
    )
    .unwrap();
    let mut cluster: Cluster<Field64, _> =
        Cluster::new(prio_afe::sum::SumAfe::new(8), servers, VerifyMode::FixedPoint);
    for sub in &subs {
        cluster.process(sub);
    }
    let sigma = cluster
        .aggregate()
        .iter()
        .map(|v| v.try_to_u128().map(|x| x as u64).unwrap_or(u64::MAX))
        .collect();
    (cluster.accepted(), cluster.rejected(), sigma)
}

#[test]
fn three_process_pipeline_matches_cluster_bit_for_bit() {
    let submissions = 40;
    let tamper = 100; // 10% → 4 tampered
    let cfg = test_config(3, submissions)
        .with_tamper_permille(tamper)
        .with_batch(20)
        .with_seed(0xBEEF);
    let report = ProcDeployment::launch(cfg).unwrap().run().unwrap();

    let (ref_acc, ref_rej, ref_sigma) = cluster_reference(3, submissions, 0xBEEF, tamper);
    assert_eq!(report.accepted, ref_acc);
    assert_eq!(report.rejected, ref_rej);
    assert_eq!(report.rejected as usize, tampered_count(submissions, tamper));
    assert_eq!(report.sigma, ref_sigma, "aggregate must match the in-process cluster");
    assert!(report.clean_exit, "all children must exit cleanly");
    assert_eq!(report.batch_wall.len(), 2); // 40 submissions / batch=20
    assert_eq!(report.node_stats.len(), 3);
    // Every node saw every submission and agrees on the counts.
    for stats in &report.node_stats {
        assert_eq!(stats.accepted + stats.rejected, submissions as u64);
        assert_eq!(stats.accepted, ref_acc);
        assert!(stats.clean, "server loop must exit via orderly shutdown");
        assert!(stats.verify_bytes_sent > 0);
        assert!(stats.total_bytes_sent >= stats.verify_bytes_sent);
    }
    // Figure-6 asymmetry survives the process boundary.
    let (leader, non_leader) = report.leader_vs_non_leader_bytes();
    assert!(leader > non_leader, "{leader} vs {non_leader}");
    assert!(report.upload_bytes > 0);
}

#[test]
fn proc_bytes_match_the_tcp_deployment() {
    // Same workload, same seed: the per-server verification bytes and the
    // driver upload bytes must be byte-identical to the in-process TCP
    // deployment — the wire encodings don't know how many processes exist.
    let submissions = 12;
    let seed = 0x51D;
    let cfg = test_config(3, submissions).with_seed(seed);
    let report = ProcDeployment::launch(cfg).unwrap().run().unwrap();

    let subs = encode_submissions::<Field64>(
        AfeSpec::Sum(8),
        3,
        HForm::PointValue,
        submissions,
        seed,
        0,
    )
    .unwrap();
    let dep_cfg = prio_core::DeploymentConfig::new(3)
        .with_transport(prio_net::TransportKind::Tcp);
    let mut deployment: prio_core::Deployment<Field64> =
        prio_core::Deployment::start(prio_afe::sum::SumAfe::new(8), dep_cfg);
    let before_publish = {
        assert!(deployment.run_batch(&subs).iter().all(|&d| d));
        deployment.network().snapshot()
    };
    let dep_server_ids = deployment.server_ids().to_vec();
    let dep_report = deployment.finish();

    // Upload: driver bytes at the pre-publish snapshot.
    let dep_upload: u64 = before_publish
        .bytes_sent
        .iter()
        .filter(|(id, _)| !dep_server_ids.contains(id))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(report.upload_bytes, dep_upload);
    // Per-server verification bytes (pre-publish snapshot on both sides).
    let dep_verify: Vec<u64> = dep_server_ids
        .iter()
        .map(|id| before_publish.bytes_sent.get(id).copied().unwrap_or(0))
        .collect();
    assert_eq!(report.server_verify_bytes(), dep_verify);
    // Lifetime totals (including the publish phase) match too.
    assert_eq!(report.server_total_bytes(), dep_report.server_bytes_sent);
    assert_eq!(report.sigma, dep_report.sigma);
}

#[test]
fn killed_node_is_a_typed_error_not_a_hang() {
    let start = Instant::now();
    let cfg = test_config(3, 30).with_timeout(Duration::from_secs(2));
    let mut deployment = ProcDeployment::launch(cfg).unwrap();
    // Kill a non-leader after the ready barrier: the submit driver's first
    // batch either fails to reach it (connect refused) or the leader
    // stalls waiting for its round-1 share and the driver's receive times
    // out. Both must surface as typed errors, never a hang.
    deployment.kill_node(1);
    let err = deployment.run().expect_err("run with a dead node must fail");
    match err {
        ProcError::Submit(_) | ProcError::NodeDied { .. } | ProcError::Timeout(_) => {}
        other => panic!("unexpected error flavour: {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "failure must be prompt, took {:?}",
        start.elapsed()
    );
}

#[test]
fn garbage_frames_are_rejected_without_crashing() {
    let submissions = 10;
    let cfg = test_config(2, submissions).with_seed(0xF00D);
    let deployment = ProcDeployment::launch(cfg).unwrap();
    for addr in deployment.node_data_addrs() {
        // A well-framed payload that is not a decodable ServerMsg, from a
        // sender id outside the deployment…
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&encode_frame(NodeId(7777), b"not a server message").unwrap())
            .unwrap();
        // …a well-framed undecodable payload forging the driver's id…
        stream
            .write_all(&encode_frame(NodeId(2), &[0xEE; 33]).unwrap())
            .unwrap();
        // …and a corrupt stream (oversized length prefix) on a second
        // connection, which must only kill that connection's reader.
        let mut corrupt = TcpStream::connect(addr).unwrap();
        let mut bomb = vec![0u8; 12];
        bomb[8..].copy_from_slice(&u32::MAX.to_le_bytes());
        corrupt.write_all(&bomb).unwrap();
    }
    // The pipeline still runs to the correct result over those same data
    // sockets.
    let report = deployment.run().unwrap();
    let (ref_acc, _, ref_sigma) = cluster_reference(2, submissions, 0xF00D, 0);
    assert_eq!(report.accepted, ref_acc);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.sigma, ref_sigma);
    assert!(report.clean_exit);
}

#[test]
fn binaries_answer_help() {
    for bin in [env!("CARGO_BIN_EXE_prio-node"), env!("CARGO_BIN_EXE_prio-submit")] {
        let out = std::process::Command::new(bin)
            .arg("--help")
            .output()
            .unwrap();
        assert!(out.status.success(), "{bin} --help failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{bin} help lacks usage: {text}");
    }
}

#[test]
fn bad_config_is_a_handshake_error() {
    // A config the node must refuse (index out of range) comes back as the
    // documented PRIO-NODE-ERROR line and exit status 2 — the shape the
    // orchestrator turns into ProcError::Handshake.
    let node_cfg = prio_net::control::NodeConfig {
        index: 5,
        num_servers: 3, // index out of range
        afe: "sum".into(),
        size: 8,
        field: "f64".into(),
        verify_mode: "fixed_point".into(),
        h_form: "point_value".into(),
        verify_threads: 1,
        fault_plan: String::new(),
        batch_deadline_ms: 0,
        trace: false,
    };
    use prio_net::wire::Wire;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_prio-node"))
        .args(["--config", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(&node_cfg.to_wire_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("PRIO-NODE-ERROR"));
}
