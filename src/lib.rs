//! Workspace root for the Prio reproduction (Corrigan-Gibbs & Boneh,
//! NSDI 2017): private, robust, and scalable computation of aggregate
//! statistics.
//!
//! This crate holds no logic of its own. It exists to (a) document the
//! workspace layout and (b) host the cross-crate integration tests in
//! `tests/`, which drive a full client → SNIP-verify → aggregate → publish
//! pipeline through every layer at once.
//!
//! # Crate map
//!
//! | Crate | What it provides |
//! |---|---|
//! | `prio_field` | `FieldElement` trait; `Field32/64/128/256`; radix-2 NTT; polynomial helpers; 256-bit Montgomery machinery |
//! | `prio_crypto` | From-scratch ChaCha20, Poly1305, AEAD, hash, PRG share compression, ed25519, sealed client→server channels |
//! | `prio_circuit` | Arithmetic circuits (`CircuitBuilder`) and validation gadgets for AFE `Valid()` predicates |
//! | `prio_afe` | Affine-aggregatable encodings: sum/mean, boolean, frequency, min/max, variance, linear regression, R², sets, sketches, most-popular |
//! | `prio_snip` | Secret-shared non-interactive proofs: prover, two-round verifier, Beaver triples, MPC helpers |
//! | `prio_net` | Pluggable transports (in-process sim fabric + localhost TCP served by a `poll(2)` reactor) with byte accounting; length-delimited wire encoding |
//! | `prio_core` | The pipeline: `Client`, `Server`, the shared server loop + batch driver, single-threaded `Cluster` simulation, threaded `Deployment` |
//! | `prio_baselines` | The paper's comparison points: no-privacy, no-robustness, NIZK (Pedersen/Chaum–Pedersen), SNARK cost model |
//! | `prio_proc` | Multi-process deployment: `prio-node` + `prio-submit` binaries, control-plane protocol, `ProcDeployment` orchestrator |
//! | `prio_bench` | Benchmark harness reproducing Figures 4–6: scenario registry, warmup/iteration stats, JSON + table reporters, `prio-bench` binary |
//!
//! # Dependency DAG
//!
//! ```text
//! field ─┬─> crypto ──┬─> core <─┬── net <── bytes (shim)
//!        ├─> circuit ─┼─> snip ──┤     ^
//!        │            └─> afe ───┤     └──── proc ──> (bench)
//!        └─> baselines <─────────┘        rand / proptest (shims)
//! ```
//!
//! `prio_proc` re-hosts `prio_core`'s server loop and batch driver as OS
//! processes (`prio_bench` drives it as the `deployment_proc` backend);
//! `prio_baselines` depends on `field`, `crypto`, and `net` only.
//!
//! # Offline, zero-dependency builds
//!
//! The workspace builds with **no crates.io dependencies**. The three
//! third-party APIs the code uses are provided by in-tree shim crates under
//! `shims/`, wired in via `[workspace.dependencies]` path entries:
//!
//! * `shims/rand` — `Rng`/`SeedableRng`/`rngs::StdRng` over a deterministic
//!   xoshiro256** generator (test-grade randomness only; cryptographic
//!   randomness comes from `prio_crypto`'s PRG);
//! * `shims/bytes` — the `Buf`/`BufMut` subset the wire codecs use;
//! * `shims/proptest` — the `proptest!` macro and strategy subset the
//!   property tests use, with fixed-seed deterministic case generation.
//!
//! Tier-1 verification is therefore just:
//!
//! ```sh
//! cargo build --release && cargo test -q    # or ./ci.sh, which adds clippy
//! ```
//!
//! and runs with no network access. Bare `cargo build`/`cargo test` cover
//! the whole workspace because the root manifest lists every member in
//! `default-members`.
//!
//! # Platforms
//!
//! The workspace targets unix; CI builds and tests it on Linux only.
//! `prio_net`'s TCP endpoints serve inbound connections with a hand-rolled
//! `poll(2)` reactor, so building `prio_net` (and every crate that depends
//! on it) anywhere else stops at a `compile_error!` that says so.
//!
//! # Benchmarks
//!
//! `cargo run --release -p prio_bench -- --smoke` reproduces a CI-sized
//! slice of the paper's Figures 4–6 (throughput vs. servers, encode/verify
//! cost vs. submission length per AFE, per-node bandwidth with the
//! leader's transmit asymmetry, and a NIZK-baseline comparison) and writes
//! the machine-readable perf trajectory to `BENCH_prio.json` at the repo
//! root. `--full` runs paper-sized sweeps; `--filter` selects scenarios by
//! name substring; `--check` re-parses and validates an emitted report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
