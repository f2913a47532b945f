//! The benchmark's fixed workloads and their seeded inputs.
//!
//! Every input is drawn before any timing starts, from streams keyed on
//! `(seed, pool batch, stream)`: the same seed gives the same inputs,
//! submissions, tamper positions and fault schedule. The program under
//! test only ever sees the generated submissions.

use crate::alloc::thread_allocs;
use prio_afe::linreg::{solve_linear, Example, LinRegAfe};
use prio_afe::sum::SumAfe;
use prio_afe::Afe;
use prio_core::{Client, ClientConfig, ClientSubmission, ShareBlob};
use prio_field::{Field128, Field64, FieldElement};
use prio_net::TransportKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Which AFE (and field) a workload aggregates with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AfeKind {
    /// `SumAfe::new(8)` over `Field64`.
    Sum8,
    /// `LinRegAfe::new(12, 16)` over `Field128`.
    LinReg12,
}

/// One named workload. The names are fixed: issues and reviews cite them.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// AFE and field.
    pub afe: AfeKind,
    /// Number of servers `s`.
    pub servers: usize,
    /// Submissions per batch.
    pub batch: usize,
    /// Fabric carrying every frame.
    pub transport: TransportKind,
    /// Uniform per-link latency of the fabric.
    pub latency: Option<Duration>,
    /// 1/8 tampered SNIP shares, 1/8 truncated explicit blobs, and a
    /// seeded duplicate-only fault plan on driver and servers.
    pub adversarial: bool,
    /// Distinct pre-generated batches the closed loop cycles through.
    pub pool: usize,
    /// Tail percentile reported as `batch_tail_ms`, read within each
    /// slice of about a second: fixed, so it means the same on every
    /// commit, and low enough that a slice at this workload's usual speed
    /// has at least ten batches beyond it.
    pub tail_pct: f64,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "sum8-s3-tcp",
            afe: AfeKind::Sum8,
            servers: 3,
            batch: 256,
            transport: TransportKind::Tcp,
            latency: None,
            adversarial: false,
            pool: 16,
            tail_pct: 95.0,
        },
        Spec {
            name: "linreg12-f128-s2-sim",
            afe: AfeKind::LinReg12,
            servers: 2,
            batch: 64,
            transport: TransportKind::Sim,
            latency: None,
            adversarial: false,
            pool: 12,
            tail_pct: 75.0,
        },
        Spec {
            name: "wan-adversarial-s3",
            afe: AfeKind::Sum8,
            servers: 3,
            batch: 64,
            transport: TransportKind::Sim,
            latency: Some(Duration::from_micros(500)),
            adversarial: true,
            pool: 16,
            tail_pct: 90.0,
        },
    ]
}

/// Duplicate rate of the adversarial workload's fault plan, in permille.
pub const DUP_PERMILLE: u32 = 50;

/// What a generated submission carries besides honest shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// An honest submission.
    Honest,
    /// One element of the SNIP proof share in the explicit blob is
    /// changed, so the polynomial identity test fails.
    Snip,
    /// The explicit blob loses its last element, so unpacking fails.
    Truncate,
}

impl Tamper {
    /// Applies the tamper to a freshly encoded submission.
    pub fn apply<F: FieldElement>(self, sub: &mut ClientSubmission<F>, x_len: usize) {
        let Some(ShareBlob::Explicit(flat)) = sub.blobs.last_mut() else {
            return;
        };
        match self {
            Tamper::Honest => {}
            // Flat layout is `x ‖ u0 ‖ v0 ‖ h ‖ a ‖ b ‖ c`: `h[2]` is the
            // share of the first `×` gate's output.
            Tamper::Snip => flat[x_len + 4] += F::one(),
            Tamper::Truncate => {
                flat.pop();
            }
        }
    }
}

/// An AFE the benchmark can feed and check: it draws honest inputs and
/// sums them in the clear, without going through the AFE's encoder.
pub trait Aggregate<F: FieldElement>: Afe<F> + Clone + Send + Sync + 'static {
    /// Draws one honest input.
    fn sample(&self, rng: &mut StdRng) -> Self::Input;

    /// The input's contribution to the published aggregate `σ`, computed
    /// from the input itself.
    fn plaintext(&self, input: &Self::Input) -> Vec<u128>;

    /// Decodes `σ` through the AFE and compares the result with the same
    /// statistic computed from the plaintext sums.
    fn check_decode(&self, sigma: &[F], plain: &[u128], clients: u64) -> Result<(), String>;
}

impl Aggregate<Field64> for SumAfe {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        rng.random_range(0..1u64 << self.bits())
    }

    fn plaintext(&self, input: &u64) -> Vec<u128> {
        vec![u128::from(*input)]
    }

    fn check_decode(&self, sigma: &[Field64], plain: &[u128], clients: u64) -> Result<(), String> {
        let got = self
            .decode(sigma, clients as usize)
            .map_err(|e| format!("AFE decode failed: {e}"))?;
        if got != plain[0] {
            return Err(format!("decoded sum {got} != plaintext sum {}", plain[0]));
        }
        Ok(())
    }
}

impl Aggregate<Field128> for LinRegAfe {
    fn sample(&self, rng: &mut StdRng) -> Example {
        let limit = 1u64 << self.bits();
        Example {
            features: (0..self.dim())
                .map(|_| rng.random_range(0..limit))
                .collect(),
            y: rng.random_range(0..limit),
        }
    }

    /// The moment prefix `x ‖ y ‖ {x_i·x_j}_{i≤j} ‖ {x_i·y}`.
    fn plaintext(&self, e: &Example) -> Vec<u128> {
        let x: Vec<u128> = e.features.iter().map(|&v| u128::from(v)).collect();
        let y = u128::from(e.y);
        let mut out = x.clone();
        out.push(y);
        for i in 0..x.len() {
            for j in i..x.len() {
                out.push(x[i] * x[j]);
            }
        }
        out.extend(x.iter().map(|&xi| xi * y));
        out
    }

    fn check_decode(&self, sigma: &[Field128], plain: &[u128], clients: u64) -> Result<(), String> {
        let got = self
            .decode(sigma, clients as usize)
            .map_err(|e| format!("AFE decode failed: {e}"))?;
        // The normal equations, built from the plaintext moments.
        let d = self.dim();
        let cross = |i: usize, j: usize| d + 1 + i * (2 * d - i + 1) / 2 + (j - i);
        let mut a = vec![vec![0.0f64; d + 1]; d + 1];
        let mut rhs = vec![0.0f64; d + 1];
        a[0][0] = clients as f64;
        for i in 0..d {
            a[0][i + 1] = plain[i] as f64;
            a[i + 1][0] = plain[i] as f64;
            for j in i..d {
                a[i + 1][j + 1] = plain[cross(i, j)] as f64;
                a[j + 1][i + 1] = plain[cross(i, j)] as f64;
            }
            rhs[i + 1] = plain[d + 1 + d * (d + 1) / 2 + i] as f64;
        }
        rhs[0] = plain[d] as f64;
        let want = solve_linear(a, rhs).ok_or("plaintext normal equations are singular")?;
        if got
            .iter()
            .map(|c| c.to_bits())
            .ne(want.iter().map(|c| c.to_bits()))
        {
            return Err(format!(
                "decoded coefficients {got:?} != plaintext fit {want:?}"
            ));
        }
        Ok(())
    }
}

/// One pre-generated batch and everything the oracle knows about it.
pub struct PoolBatch<F: FieldElement, I> {
    /// The honest inputs, in submission order.
    pub inputs: Vec<I>,
    /// Seed of the client's encoding stream, so a probe can re-encode the
    /// batch bit for bit.
    pub encode_seed: u64,
    /// Per-submission tamper.
    pub tamper: Vec<Tamper>,
    /// The submissions fed to the deployment.
    pub subs: Vec<ClientSubmission<F>>,
    /// Expected accept mask: exactly the honest submissions.
    pub expected: Vec<bool>,
    /// Plaintext `σ` contribution of the accepted inputs.
    pub sigma: Vec<u128>,
    /// Number of accepted submissions.
    pub accepted: u64,
}

/// A stream seed for `(run seed, pool batch, stream)`; SplitMix64's
/// finaliser keeps neighbouring seeds apart.
pub fn stream_seed(seed: u64, batch: usize, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((batch as u64) << 8 | stream);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Encodes `inputs` with a fresh client and the encoding stream
/// `encode_seed`, applies `tamper`, and reports each `Client::submit`'s
/// wall time and allocator calls to `each`.
pub fn encode<F: FieldElement, A: Aggregate<F>>(
    afe: &A,
    servers: usize,
    inputs: &[A::Input],
    encode_seed: u64,
    tamper: &[Tamper],
    mut each: impl FnMut(Duration, u64),
) -> Vec<ClientSubmission<F>> {
    let mut client = Client::new(afe.clone(), ClientConfig::new(servers));
    let x_len = client.layout().x_len;
    let mut rng = StdRng::seed_from_u64(encode_seed);
    let mut subs = Vec::with_capacity(inputs.len());
    for input in inputs {
        let allocs = thread_allocs();
        let start = Instant::now();
        let sub = client
            .submit(input, &mut rng)
            .expect("inputs are drawn inside the AFE's domain");
        each(start.elapsed(), thread_allocs() - allocs);
        subs.push(sub);
    }
    for (sub, t) in subs.iter_mut().zip(tamper) {
        t.apply(sub, x_len);
    }
    subs
}

/// Generates the run's pool: `pool` batches of `batch` submissions.
pub fn generate<F: FieldElement, A: Aggregate<F>>(
    afe: &A,
    spec: &Spec,
    seed: u64,
    batch: usize,
    pool: usize,
) -> Vec<PoolBatch<F, A::Input>> {
    (0..pool)
        .map(|b| {
            let mut input_rng = StdRng::seed_from_u64(stream_seed(seed, b, 0));
            let inputs: Vec<A::Input> = (0..batch).map(|_| afe.sample(&mut input_rng)).collect();
            let tamper = tamper_plan(spec.adversarial, batch, stream_seed(seed, b, 2));
            let encode_seed = stream_seed(seed, b, 1);
            let subs = encode(afe, spec.servers, &inputs, encode_seed, &tamper, |_, _| {});
            let expected: Vec<bool> = tamper.iter().map(|&t| t == Tamper::Honest).collect();
            let mut sigma = vec![0u128; afe.trunc_len()];
            for (input, _) in inputs.iter().zip(&expected).filter(|(_, &ok)| ok) {
                for (s, v) in sigma.iter_mut().zip(afe.plaintext(input)) {
                    *s += v;
                }
            }
            PoolBatch {
                accepted: expected.iter().filter(|&&ok| ok).count() as u64,
                inputs,
                encode_seed,
                tamper,
                subs,
                expected,
                sigma,
            }
        })
        .collect()
}

/// Tamper positions for one batch: none for honest workloads; for the
/// adversarial one, a seeded eighth of the batch gets a tampered SNIP
/// share and another, disjoint eighth a truncated explicit blob.
fn tamper_plan(adversarial: bool, batch: usize, seed: u64) -> Vec<Tamper> {
    let mut plan = vec![Tamper::Honest; batch];
    if !adversarial {
        return plan;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..batch).collect();
    // Fisher–Yates shuffle of the positions.
    for i in (1..batch).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let eighth = batch / 8;
    for &j in &order[..eighth] {
        plan[j] = Tamper::Snip;
    }
    for &j in &order[eighth..2 * eighth] {
        plan[j] = Tamper::Truncate;
    }
    plan
}
