//! A single Prio aggregation server.

use crate::client::{ShareBlob, ShareLayout};
use prio_afe::Afe;
use prio_circuit::Circuit;
use prio_crypto::prg::PrgRng;
use prio_field::FieldElement;
use prio_snip::{
    verifier::{verify_round1_batch, verify_round2_batch},
    HForm, Round1Msg, Round2Msg, ServerState, SnipError, SnipProofShare, VerifierContext,
    VerifyMode,
};

/// Domain-separation label for expanding a batch's `ctx_seed` into shared
/// verification randomness ("PRIO ctx" in ASCII). Changing this value (or
/// the expansion route) changes every derived context, so it is pinned by
/// a vector test below.
const CTX_RANDOMNESS_LABEL: u64 = 0x5052_494f_2063_7478;

/// Per-server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's index (`0` is the leader).
    pub index: usize,
    /// Total number of servers `s`.
    pub num_servers: usize,
    /// Polynomial-evaluation strategy (Appendix-I fixed-point by default).
    pub verify_mode: VerifyMode,
    /// `h` transmission format the clients use.
    pub h_form: HForm,
}

/// One Prio aggregation server: unpacks submission shares, participates in
/// SNIP verification, and maintains the running accumulator (Figure 1,
/// steps b–d).
pub struct Server<F: FieldElement, A: Afe<F>> {
    afe: A,
    circuit: Circuit<F>,
    layout: ShareLayout,
    cfg: ServerConfig,
    accumulator: Vec<F>,
    accepted: u64,
    rejected: u64,
}

impl<F: FieldElement, A: Afe<F>> Server<F, A> {
    /// Creates a server for the given AFE.
    pub fn new(afe: A, cfg: ServerConfig) -> Self {
        let circuit = afe.valid_circuit();
        let layout = ShareLayout::for_gates(afe.encoded_len(), circuit.num_mul_gates(), cfg.h_form);
        let accumulator = vec![F::zero(); afe.trunc_len()];
        Server {
            afe,
            circuit,
            layout,
            cfg,
            accumulator,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Whether this server coordinates verification.
    pub fn is_leader(&self) -> bool {
        self.cfg.index == 0
    }

    /// The shared layout.
    pub fn layout(&self) -> ShareLayout {
        self.layout
    }

    /// The `Valid` circuit.
    pub fn circuit(&self) -> &Circuit<F> {
        &self.circuit
    }

    /// The AFE.
    pub fn afe(&self) -> &A {
        &self.afe
    }

    /// Unpacks this server's share blob into `(x_share, proof_share)`.
    pub fn unpack(
        &self,
        blob: &ShareBlob<F>,
        prg_label: u64,
    ) -> Result<(Vec<F>, SnipProofShare<F>), SnipError> {
        match blob {
            ShareBlob::Seed(seed) => Ok(self.layout.expand(seed, prg_label)),
            ShareBlob::Explicit(flat) => self
                .layout
                .unflatten(flat)
                .ok_or(SnipError::Malformed("flattened share length")),
        }
    }

    /// Derives the batch verification context from a shared seed. All
    /// servers derive the identical `(r, ρ)` — this models the leader
    /// broadcasting fresh verification randomness once per batch
    /// (Appendix I amortizes the kernel precomputation over the batch).
    ///
    /// The derivation runs through `prio_crypto`'s ChaCha20 [`PrgRng`]
    /// under a fixed domain-separation label — *never* the test-grade
    /// `rand` shim — so every deployment flavour (single-process cluster,
    /// threaded deployment, multi-process nodes) expands `ctx_seed` into
    /// bit-identical verification randomness with a cryptographic
    /// expander.
    ///
    /// Fails only on an invalid server configuration (propagated from
    /// [`VerifierContext::random`]); with the `num_servers ≥ 1` every
    /// constructor in this crate enforces, it cannot fail.
    pub fn make_context(&self, ctx_seed: u64) -> Result<VerifierContext<F>, SnipError> {
        let mut rng = PrgRng::from_u64_seed(ctx_seed, CTX_RANDOMNESS_LABEL);
        VerifierContext::random(
            &self.circuit,
            self.cfg.num_servers,
            self.cfg.verify_mode,
            &mut rng,
        )
    }

    /// Batch entry point: runs round 1 for a whole batch under one shared
    /// context, chunking the batch across `threads` std worker threads
    /// (`threads ≤ 1` runs inline). Each worker runs its own
    /// `prio_snip::BatchVerifier` over the borrowed context (per-worker
    /// scratch buffers, no context copies); results are merged back in
    /// submission order, so the output is deterministic and bit-identical
    /// to running `prio_snip::verifier::verify_round1` per submission.
    pub fn round1_batch(
        &self,
        ctx: &VerifierContext<F>,
        subs: &[(&[F], &SnipProofShare<F>)],
        threads: usize,
    ) -> Vec<prio_snip::Round1Result<F>> {
        let (circuit, leader) = (&self.circuit, self.is_leader());
        let threads = threads.max(1).min(subs.len().max(1));
        if threads == 1 {
            return verify_round1_batch(ctx, circuit, subs, leader);
        }
        let chunk = subs.len().div_ceil(threads);
        let mut out = Vec::with_capacity(subs.len());
        std::thread::scope(|scope| {
            let workers: Vec<_> = subs
                .chunks(chunk)
                .map(|part| scope.spawn(move || verify_round1_batch(ctx, circuit, part, leader)))
                .collect();
            for worker in workers {
                out.extend(worker.join().expect("verify worker panicked"));
            }
        });
        out
    }

    /// Batch round 2: `combined[j]` is the summed round-1 broadcast for
    /// submission `j` (the leader-star redistribution form).
    pub fn round2_batch(
        &self,
        states: &[ServerState<F>],
        combined: &[Round1Msg<F>],
    ) -> Vec<Round2Msg<F>> {
        verify_round2_batch(states, combined)
    }

    /// Folds an accepted submission's truncated share into the accumulator
    /// (Figure 1c).
    pub fn accumulate(&mut self, x_share: &[F]) {
        let kp = self.accumulator.len();
        for (acc, &v) in self.accumulator.iter_mut().zip(&x_share[..kp]) {
            *acc += v;
        }
        self.accepted += 1;
    }

    /// Records a rejected submission.
    pub fn reject(&mut self) {
        self.rejected += 1;
    }

    /// The local accumulator (published in Figure 1d).
    pub fn accumulator(&self) -> &[F] {
        &self.accumulator
    }

    /// Number of accepted submissions.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of rejected submissions.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;
    use prio_snip::decide;
    use rand::SeedableRng;

    fn make_servers(s: usize) -> Vec<Server<Field64, SumAfe>> {
        (0..s)
            .map(|i| {
                Server::new(
                    SumAfe::new(4),
                    ServerConfig {
                        index: i,
                        num_servers: s,
                        verify_mode: VerifyMode::FixedPoint,
                        h_form: HForm::PointValue,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn manual_pipeline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = 3;
        let mut servers = make_servers(s);
        let mut client: Client<Field64, _> =
            Client::new(SumAfe::new(4), ClientConfig::new(s));

        let mut expected_sum = 0u64;
        for value in [3u64, 15, 0, 9] {
            expected_sum += value;
            let sub = client.submit(&value, &mut rng).unwrap();
            let ctx = servers[0].make_context(42).unwrap();
            let unpacked: Vec<_> = (0..s)
                .map(|i| servers[i].unpack(&sub.blobs[i], sub.prg_label).unwrap())
                .collect();
            let (states, msgs): (Vec<_>, Vec<_>) = (0..s)
                .map(|i| {
                    let item = (unpacked[i].0.as_slice(), &unpacked[i].1);
                    servers[i].round1_batch(&ctx, &[item], 1).remove(0).unwrap()
                })
                .unzip();
            let combined = Round1Msg {
                d: msgs.iter().map(|m| m.d).sum(),
                e: msgs.iter().map(|m| m.e).sum(),
            };
            let r2: Vec<_> = (0..s)
                .map(|i| servers[i].round2_batch(&states[i..=i], &[combined])[0])
                .collect();
            assert!(decide(&r2));
            for (i, (x, _)) in unpacked.iter().enumerate() {
                servers[i].accumulate(x);
            }
        }
        let total: Field64 = servers.iter().map(|sv| sv.accumulator()[0]).sum();
        assert_eq!(total, Field64::from_u64(expected_sum));
        assert!(servers.iter().all(|sv| sv.accepted() == 4));
    }

    #[test]
    fn contexts_agree_across_servers() {
        let servers = make_servers(4);
        let ctx0 = servers[0].make_context(123).unwrap();
        let ctx3 = servers[3].make_context(123).unwrap();
        assert_eq!(ctx0.point(), ctx3.point());
        let other = servers[0].make_context(124).unwrap();
        assert_ne!(ctx0.point(), other.point());
    }

    #[test]
    fn context_derivation_is_prg_backed_and_pinned() {
        // The shared verification randomness must come from the ChaCha20
        // PRG under the fixed label — never the swappable test-grade rand
        // shim. Pinning the evaluation point for one seed catches any
        // accidental re-route (a different expander would move it).
        let servers = make_servers(2);
        let ctx = servers[0].make_context(0x1234_5678).unwrap();
        let mut rng = prio_crypto::prg::PrgRng::from_u64_seed(
            0x1234_5678,
            super::CTX_RANDOMNESS_LABEL,
        );
        let expect = Field64::random(&mut rng);
        assert_eq!(ctx.point(), expect);
        assert_eq!(ctx.point().as_u64(), PINNED_CTX_POINT);
    }

    /// `make_context(0x1234_5678).point()` for the 4-bit sum AFE; see
    /// `context_derivation_is_prg_backed_and_pinned`.
    const PINNED_CTX_POINT: u64 = 15_843_597_981_360_209_118;

    #[test]
    fn unpack_rejects_malformed_explicit() {
        let servers = make_servers(2);
        let blob = ShareBlob::Explicit(vec![Field64::zero(); 3]);
        assert!(servers[0].unpack(&blob, 0).is_err());
    }
}
