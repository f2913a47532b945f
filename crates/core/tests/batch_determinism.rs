//! Determinism contract of the batched verification pipeline: the batch
//! entry points must produce the same accept/reject decisions and
//! aggregate as an independent per-submission reference, with and without
//! the parallel verify pool — including when tampered and malformed
//! submissions sit in the middle of a batch.
//!
//! The reference never touches the batch-verification core: every server
//! unpacks its own share, then `prio_snip`'s per-submission
//! `run_verification` decides.

use prio_afe::sum::SumAfe;
use prio_core::{
    Client, ClientConfig, ClientSubmission, Cluster, Deployment, DeploymentConfig, Server,
    ServerConfig, ShareBlob,
};
use prio_field::{Field64, FieldElement};
use prio_snip::verifier::run_verification;
use prio_snip::{HForm, VerifyMode};
use rand::SeedableRng;

const BITS: u32 = 8;

/// The private value of submission `j`.
fn value(j: usize) -> u64 {
    j as u64 % 200
}

/// A mixed workload: honest submissions with a ballot-stuffing tamper, a
/// corrupted SNIP `h` share, and a structurally malformed blob in the
/// middle. Deterministic for a given seed.
fn workload(s: usize, n: usize, seed: u64) -> Vec<ClientSubmission<Field64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut client: Client<Field64, _> = Client::new(SumAfe::new(BITS), ClientConfig::new(s));
    let mut subs: Vec<_> = (0..n)
        .map(|j| client.submit(&value(j), &mut rng).expect("honest input"))
        .collect();
    // Tamper share values (the Section-1 ballot-stuffing attack).
    if let ShareBlob::Explicit(v) = &mut subs[n / 3].blobs[s - 1] {
        v[0] += Field64::from_u64(999);
    } else {
        panic!("expected explicit blob");
    }
    // Corrupt a SNIP proof component in another submission.
    if let ShareBlob::Explicit(v) = &mut subs[n / 2].blobs[s - 1] {
        let last = v.len() - 1;
        v[last] += Field64::from_u64(1);
    }
    // A structurally malformed blob.
    subs[2 * n / 3].blobs[s - 1] = ShareBlob::Explicit(vec![Field64::zero(); 3]);
    subs
}

/// What the reference decided, and the aggregate it implies.
struct Reference {
    decisions: Vec<bool>,
    /// `σ`: the accepted submissions' truncated shares, summed over
    /// submissions and servers.
    sigma: Vec<Field64>,
    /// The accepted submissions' plaintext values, summed.
    plain_sum: u128,
}

/// Verifies every submission on its own, under one verification context.
/// An honest submission passes under every context and a bad one passes
/// under a random context only with the SNIP's negligible soundness error,
/// so the decisions do not depend on which contexts the checked path used.
fn reference(s: usize, subs: &[ClientSubmission<Field64>]) -> Reference {
    let servers: Vec<Server<Field64, SumAfe>> = (0..s)
        .map(|index| {
            Server::new(
                SumAfe::new(BITS),
                ServerConfig {
                    index,
                    num_servers: s,
                    verify_mode: VerifyMode::FixedPoint,
                    h_form: HForm::PointValue,
                },
            )
        })
        .collect();
    let ctx = servers[0].make_context(0x7265_6600).expect("valid config");
    let mut sigma = vec![Field64::zero(); servers[0].accumulator().len()];
    let mut plain_sum = 0u128;
    let decisions = subs
        .iter()
        .enumerate()
        .map(|(j, sub)| {
            let unpacked: Result<Vec<_>, _> = servers
                .iter()
                .zip(&sub.blobs)
                .map(|(server, blob)| server.unpack(blob, sub.prg_label))
                .collect();
            let Ok(unpacked) = unpacked else { return false };
            let (xs, proofs): (Vec<_>, Vec<_>) = unpacked.into_iter().unzip();
            let accepted =
                run_verification(&ctx, servers[0].circuit(), &xs, &proofs).unwrap_or(false);
            if accepted {
                for x in &xs {
                    for (acc, &v) in sigma.iter_mut().zip(x) {
                        *acc += v;
                    }
                }
                plain_sum += u128::from(value(j));
            }
            accepted
        })
        .collect();
    let r = Reference {
        decisions,
        sigma,
        plain_sum,
    };
    // The workload's tampered/malformed submissions are rejected, every
    // honest one accepted: the reference itself is not vacuous.
    let n = subs.len();
    let rejected: Vec<usize> = (0..n).filter(|&j| !r.decisions[j]).collect();
    assert_eq!(rejected, vec![n / 3, n / 2, 2 * n / 3], "reference decisions");
    r
}

fn make_cluster(s: usize, ctx_batch: usize, threads: usize) -> Cluster<Field64, SumAfe> {
    Cluster::with_options(
        SumAfe::new(BITS),
        s,
        VerifyMode::FixedPoint,
        HForm::PointValue,
        ctx_batch,
    )
    .with_verify_threads(threads)
}

/// Runs the workload through a cluster with `run` and asserts its
/// decisions, counters, and aggregate equal the reference's.
fn assert_cluster_matches_reference(
    s: usize,
    n: usize,
    ctx_batch: usize,
    threads: usize,
    seed: u64,
    run: impl FnOnce(&mut Cluster<Field64, SumAfe>, &[ClientSubmission<Field64>]) -> Vec<bool>,
) {
    let subs = workload(s, n, seed);
    let expect = reference(s, &subs);
    let mut cluster = make_cluster(s, ctx_batch, threads);
    let decisions = run(&mut cluster, &subs);

    assert_eq!(decisions, expect.decisions, "decisions diverge");
    assert_eq!(cluster.accepted(), n as u64 - 3);
    assert_eq!(cluster.rejected(), 3);
    assert_eq!(cluster.aggregate(), expect.sigma, "aggregate diverges");
    assert_eq!(cluster.decode().unwrap(), expect.plain_sum, "decoded aggregate diverges");
}

fn batched(cluster: &mut Cluster<Field64, SumAfe>, subs: &[ClientSubmission<Field64>]) -> Vec<bool> {
    cluster.process_batch(subs)
}

#[test]
fn cluster_batch_is_bit_identical_to_sequential() {
    // ctx_batch = 7 forces several context refreshes *inside* one
    // process_batch call, exercising the chunking boundary logic.
    assert_cluster_matches_reference(2, 24, 7, 1, 1, batched);
}

#[test]
fn cluster_batch_matches_with_batch_sized_context() {
    assert_cluster_matches_reference(3, 24, 1024, 1, 2, batched);
}

#[test]
fn cluster_verify_pool_does_not_change_results() {
    // 3 worker threads per server.
    assert_cluster_matches_reference(2, 24, 16, 3, 3, batched);
}

#[test]
fn cluster_batch_of_one_matches_process() {
    // `process` is a batch of one; with ctx_batch = 1 every submission
    // also gets its own verification context.
    assert_cluster_matches_reference(2, 12, 1, 1, 4, |cluster, subs| {
        subs.iter().map(|sub| cluster.process(sub)).collect()
    });
}

#[test]
fn deployment_verify_pool_matches_inline() {
    let s = 3;
    let subs = workload(s, 18, 5);
    let expect = reference(s, &subs);
    let expect_sigma: Vec<u64> = expect.sigma.iter().map(|v| v.as_u64()).collect();
    for threads in [1usize, 3] {
        let cfg = DeploymentConfig::new(s).with_verify_threads(threads);
        let mut deployment: Deployment<Field64> = Deployment::start(SumAfe::new(BITS), cfg);
        // Two batches so the second context seed is exercised too.
        let mut decisions = deployment.run_batch(&subs[..9]);
        decisions.extend(deployment.run_batch(&subs[9..]));
        let report = deployment.finish();
        assert_eq!(decisions, expect.decisions, "threads = {threads}: decisions diverge");
        assert_eq!(report.accepted, 15, "threads = {threads}");
        assert_eq!(report.rejected, 3, "threads = {threads}");
        assert_eq!(report.sigma, expect_sigma, "threads = {threads}: aggregate diverges");
        assert_eq!(u128::from(report.sigma[0]), expect.plain_sum);
    }
}

#[test]
fn deployment_pool_larger_than_batch_is_safe() {
    // More worker threads than submissions: chunking must not panic or
    // drop/duplicate submissions.
    let s = 2;
    let subs = workload(s, 4, 6);
    let cfg = DeploymentConfig::new(s).with_verify_threads(8);
    let mut deployment: Deployment<Field64> = Deployment::start(SumAfe::new(BITS), cfg);
    let decisions = deployment.run_batch(&subs);
    assert_eq!(decisions.len(), 4);
    let report = deployment.finish();
    assert_eq!(report.accepted + report.rejected, 4);
}
