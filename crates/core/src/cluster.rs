//! A deterministic in-process simulation of the full server cluster, with
//! exact per-server byte accounting of the verification protocol.
//!
//! Used by tests, examples, and the per-submission cost and byte figures
//! (Figures 5 and 6). Every server runs the batch-verification core in
//! [`crate::verify`], the same steps the deployed server loop runs; the
//! cluster only hands the round vectors from server to server in memory.
//! The leader-star topology matches the deployed system: non-leaders
//! exchange messages only with the leader, which is why adding servers
//! barely changes per-server load (Figure 5's observation).

use crate::client::ClientSubmission;
use crate::messages::{pack_decisions, ServerMsg};
use crate::server::{Server, ServerConfig};
use crate::verify::{self, PhaseClock, PhaseTimings};
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_net::wire::Wire;
use prio_crypto::prg::PrgRng;
use prio_obs::Span;
use prio_snip::{HForm, VerifierContext, VerifyMode};
use rand::Rng;

/// Domain-separation label for the cluster's context-seed stream
/// (ASCII "PRIO cls"), distinct from `Server`'s per-context
/// `CTX_RANDOMNESS_LABEL` ("PRIO ctx") so the two ChaCha20 streams never
/// collide even under equal seeds.
const CLUSTER_CTX_SEED_LABEL: u64 = 0x5052_494f_2063_6c73;

/// A simulated `s`-server Prio cluster.
pub struct Cluster<F: FieldElement, A: Afe<F>> {
    servers: Vec<Server<F, A>>,
    ctx: Option<VerifierContext<F>>,
    processed_in_batch: usize,
    /// Submissions per verification context (the paper's `Q ≈ 2^10`).
    batch_size: usize,
    /// Worker threads each server uses for batched round 1 (1 = inline).
    verify_threads: usize,
    ctx_rng: PrgRng,
    /// Verification bytes each server has *sent*.
    sent_bytes: Vec<u64>,
    clock: PhaseClock,
}

impl<F: FieldElement, A: Afe<F> + Clone> Cluster<F, A> {
    /// Builds a cluster of `num_servers` servers for the given AFE.
    pub fn new(afe: A, num_servers: usize, verify_mode: VerifyMode) -> Self {
        Self::with_options(afe, num_servers, verify_mode, HForm::PointValue, 1024)
    }

    /// Full-control constructor (h form and context batch size).
    pub fn with_options(
        afe: A,
        num_servers: usize,
        verify_mode: VerifyMode,
        h_form: HForm,
        batch_size: usize,
    ) -> Self {
        assert!(num_servers >= 2, "Prio needs at least two servers");
        assert!(batch_size >= 1);
        let servers = (0..num_servers)
            .map(|index| {
                Server::new(
                    afe.clone(),
                    ServerConfig {
                        index,
                        num_servers,
                        verify_mode,
                        h_form,
                    },
                )
            })
            .collect();
        Cluster {
            servers,
            ctx: None,
            processed_in_batch: 0,
            batch_size,
            verify_threads: 1,
            ctx_rng: PrgRng::from_u64_seed(0x5052_494f, CLUSTER_CTX_SEED_LABEL),
            sent_bytes: vec![0; num_servers],
            clock: PhaseClock::resolve(prio_obs::Registry::global()),
        }
    }

    /// Builder-style: worker threads per server for batched round-1
    /// verification ([`Cluster::process_batch`]). Decisions and
    /// accumulators are independent of the thread count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one verify thread");
        self.verify_threads = threads;
        self
    }

    fn refresh_context_if_needed(&mut self) {
        if self.ctx.is_none() || self.processed_in_batch >= self.batch_size {
            let seed: u64 = self.ctx_rng.random();
            self.ctx = Some(
                self.servers[0]
                    .make_context(seed)
                    .expect("cluster config validated at construction"),
            );
            self.processed_in_batch = 0;
        }
    }

    /// Processes one client submission: a batch of one through
    /// [`Cluster::process_batch`]. Returns whether it was accepted.
    pub fn process(&mut self, sub: &ClientSubmission<F>) -> bool {
        self.process_batch(std::slice::from_ref(sub))[0]
    }

    /// Processes a batch of submissions through the batch-verification
    /// core, one verification context per `batch_size` chunk: every
    /// server runs the same steps as the server loop (round 1 on
    /// `verify_threads` workers, see [`Cluster::with_verify_threads`]),
    /// and the round vectors are handed over in memory. Returns the
    /// decisions in submission order.
    ///
    /// Byte accounting counts the messages a deployment would send for
    /// each chunk: one `Round1` and one `Round2` vector per non-leader,
    /// and one `Round1Combined` and one `Decisions` fan-out from the
    /// leader.
    pub fn process_batch(&mut self, subs: &[ClientSubmission<F>]) -> Vec<bool> {
        let s = self.servers.len();
        assert!(subs.iter().all(|sub| sub.blobs.len() == s), "one blob per server");
        let mut decisions = Vec::with_capacity(subs.len());
        let mut rest = subs;
        while !rest.is_empty() {
            self.refresh_context_if_needed();
            let take = (self.batch_size - self.processed_in_batch).min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            self.processed_in_batch += take;
            self.clock.timings.submissions += take as u64;
            let ctx = self.ctx.as_ref().expect("context refreshed");

            let mut batches = Vec::with_capacity(s);
            let mut round1 = Vec::with_capacity(s);
            for (i, server) in self.servers.iter().enumerate() {
                let blobs = chunk.iter().map(|sub| Some((&sub.blobs[i], sub.prg_label)));
                let shares = verify::unpack(server, blobs, &mut self.clock);
                let (batch, r1) =
                    verify::round1(server, ctx, shares, self.verify_threads, &mut self.clock);
                batches.push(batch);
                round1.push(r1);
            }
            let combined = verify::combine(take, &round1);
            let round2: Vec<_> = self
                .servers
                .iter()
                .zip(&batches)
                .map(|(server, batch)| verify::round2(server, batch, &combined, &mut self.clock))
                .collect();
            let chunk_decisions = verify::decide(take, &round2);

            // The batch id (`ctx`) is fixed-width, so its value does not
            // change a message's size.
            let wire_len = |msg: ServerMsg<F>| msg.encoded_len() as u64;
            for (i, (r1, r2)) in round1.into_iter().zip(round2).enumerate().skip(1) {
                self.sent_bytes[i] += wire_len(ServerMsg::Round1 { ctx: 0, msgs: r1 })
                    + wire_len(ServerMsg::Round2 { ctx: 0, msgs: r2 });
            }
            let bits = pack_decisions(&chunk_decisions);
            self.sent_bytes[0] += (wire_len(ServerMsg::Round1Combined { ctx: 0, msgs: combined })
                + wire_len(ServerMsg::Decisions { ctx: 0, bits }))
                * (s as u64 - 1);

            for (server, batch) in self.servers.iter_mut().zip(batches) {
                verify::finish(server, batch, &chunk_decisions);
            }
            decisions.extend(chunk_decisions);
        }
        decisions
    }

    /// Publishes and sums the accumulators: `σ = Σ_j A_j` (Figure 1d).
    pub fn aggregate(&self) -> Vec<F> {
        // `&self` here, so the publish cost lands in the histogram only;
        // `timings.publish` stays whatever the server loop put there.
        let span = Span::start(&self.clock.publish);
        let kp = self.servers[0].accumulator().len();
        let mut sigma = vec![F::zero(); kp];
        for server in &self.servers {
            for (acc, &v) in sigma.iter_mut().zip(server.accumulator()) {
                *acc += v;
            }
        }
        span.finish();
        sigma
    }

    /// Decodes the aggregate through the AFE.
    pub fn decode(&self) -> Result<A::Output, prio_afe::AfeError> {
        let sigma = self.aggregate();
        self.servers[0]
            .afe()
            .decode(&sigma, self.servers[0].accepted() as usize)
    }

    /// Number of accepted submissions.
    pub fn accepted(&self) -> u64 {
        self.servers[0].accepted()
    }

    /// Number of rejected submissions.
    pub fn rejected(&self) -> u64 {
        self.servers[0].rejected()
    }

    /// Verification bytes sent per server so far (index 0 = leader).
    pub fn verification_bytes_sent(&self) -> &[u64] {
        &self.sent_bytes
    }

    /// Accumulated per-phase verification timings.
    pub fn timings(&self) -> PhaseTimings {
        self.clock.timings
    }

    /// Resets the per-phase timing accumulators (e.g. after warmup runs).
    pub fn reset_timings(&mut self) {
        self.clock.timings = PhaseTimings::default();
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig, ShareBlob};
    use prio_afe::freq::FrequencyAfe;
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;
    use rand::SeedableRng;

    #[test]
    fn ctx_rng_is_domain_separated_prg_with_pinned_stream() {
        // The cluster's context-seed stream is ChaCha20 under a pinned
        // domain-separation label. Pin the first draw so any silent change
        // of generator, seed, or label breaks this test.
        let mut rng = PrgRng::from_u64_seed(0x5052_494f, CLUSTER_CTX_SEED_LABEL);
        let first: u64 = rng.random();
        assert_eq!(first, CLUSTER_CTX_FIRST_DRAW);
        // A different label (the per-context one) must yield a different
        // stream: domain separation is doing real work.
        let mut other = PrgRng::from_u64_seed(0x5052_494f, 0x5052_494f_2063_7478);
        let other_first: u64 = other.random();
        assert_ne!(first, other_first);
    }

    /// Pinned first `u64` of the cluster context-seed stream.
    const CLUSTER_CTX_FIRST_DRAW: u64 = 0xa902_6c5c_2ba5_3311;

    #[test]
    fn end_to_end_sum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 3, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let values = [3u64, 14, 0, 7, 15, 9];
        for v in values {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        assert_eq!(cluster.accepted(), 6);
        let total = cluster.decode().unwrap();
        assert_eq!(total, values.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn end_to_end_histogram() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let afe = FrequencyAfe::new(4);
        let mut cluster: Cluster<Field64, _> = Cluster::new(afe.clone(), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(afe, ClientConfig::new(2));
        for v in [0usize, 1, 1, 3, 1] {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        assert_eq!(cluster.decode().unwrap(), vec![1, 3, 0, 1]);
    }

    #[test]
    fn cheating_submission_is_rejected_and_not_aggregated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        // Two honest submissions.
        for v in [5u64, 6] {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        // A cheater tampers with its explicit share to claim a huge value
        // (the Section-1 ballot-stuffing attack).
        let mut sub = client.submit(&1, &mut rng).unwrap();
        if let ShareBlob::Explicit(v) = &mut sub.blobs[1] {
            v[0] += Field64::from_u64(1000);
        } else {
            panic!("last blob should be explicit");
        }
        assert!(!cluster.process(&sub));
        assert_eq!(cluster.accepted(), 2);
        assert_eq!(cluster.rejected(), 1);
        // The aggregate only contains the honest values.
        assert_eq!(cluster.decode().unwrap(), 11);
    }

    #[test]
    fn malformed_blob_rejected_locally() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        let mut sub = client.submit(&1, &mut rng).unwrap();
        sub.blobs[1] = ShareBlob::Explicit(vec![Field64::zero(); 2]);
        assert!(!cluster.process(&sub));
        assert_eq!(cluster.rejected(), 1);
    }

    #[test]
    fn non_leader_bytes_are_constant_in_submission_size() {
        // The heart of Figure 6: verification traffic is independent of L.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut small: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(2), 3, VerifyMode::FixedPoint);
        let mut big: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(60), 3, VerifyMode::FixedPoint);
        let mut c_small = Client::new(SumAfe::new(2), ClientConfig::new(3));
        let mut c_big = Client::new(SumAfe::new(60), ClientConfig::new(3));
        small.process(&c_small.submit(&1, &mut rng).unwrap());
        big.process(&c_big.submit(&(1 << 50), &mut rng).unwrap());
        assert_eq!(
            small.verification_bytes_sent()[1],
            big.verification_bytes_sent()[1]
        );
    }

    #[test]
    fn batched_byte_accounting_matches_full_serialization() {
        // Pin the cluster's byte accounting against directly serialized
        // full-length vectors, the framing a deployment sends.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 5usize;
        let mut cluster: Cluster<Field64, _> = Cluster::with_options(
            SumAfe::new(4),
            3,
            VerifyMode::FixedPoint,
            HForm::PointValue,
            1024,
        );
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let subs: Vec<_> = (0..n as u64)
            .map(|v| client.submit(&v, &mut rng).unwrap())
            .collect();
        assert!(cluster.process_batch(&subs).iter().all(|&d| d));
        let msg = prio_snip::Round1Msg {
            d: Field64::zero(),
            e: Field64::zero(),
        };
        let r2 = prio_snip::Round2Msg {
            sigma: Field64::one(),
            out: Field64::one(),
        };
        let expect_non_leader = ServerMsg::Round1 {
            ctx: 0,
            msgs: vec![msg; n],
        }
        .to_wire_bytes()
        .len()
            + ServerMsg::Round2 {
                ctx: 0,
                msgs: vec![r2; n],
            }
            .to_wire_bytes()
            .len();
        assert_eq!(cluster.verification_bytes_sent()[1], expect_non_leader as u64);
        assert_eq!(cluster.verification_bytes_sent()[2], expect_non_leader as u64);
        let expect_leader = 2
            * (ServerMsg::Round1Combined {
                ctx: 0,
                msgs: vec![msg; n],
            }
            .to_wire_bytes()
            .len()
                + ServerMsg::<Field64>::Decisions {
                    ctx: 0,
                    bits: pack_decisions(&vec![true; n]),
                }
                .to_wire_bytes()
                .len());
        assert_eq!(cluster.verification_bytes_sent()[0], expect_leader as u64);
    }

    #[test]
    fn interpolate_mode_agrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(8), 2, VerifyMode::Interpolate);
        let mut client = Client::new(SumAfe::new(8), ClientConfig::new(2));
        for v in [100u64, 200] {
            assert!(cluster.process(&client.submit(&v, &mut rng).unwrap()));
        }
        assert_eq!(cluster.decode().unwrap(), 300);
    }
}
