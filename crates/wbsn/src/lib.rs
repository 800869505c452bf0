//! # wbsn — model-based energy-performance design exploration for WBSNs
//!
//! Umbrella crate re-exporting the four libraries of the workspace, which
//! together reproduce *Beretta et al., "Design Exploration of
//! Energy-Performance Trade-Offs for Wireless Sensor Networks" (DAC
//! 2012)*:
//!
//! * [`model`] (`wbsn-model`) — the paper's contribution: a multi-layer
//!   analytical model evaluating a full network configuration in
//!   microseconds.
//! * [`sim`] (`wbsn-sim`) — a packet-level discrete-event simulator of
//!   IEEE 802.15.4 beacon-enabled networks, the reproduction's ground
//!   truth for energy and delay.
//! * [`dsp`] (`wbsn-dsp`) — synthetic ECG plus real DWT and
//!   compressed-sensing codecs, the ground truth for the PRD quality
//!   metric.
//! * [`dse`] (`wbsn-dse`) — multi-objective design-space exploration
//!   (NSGA-II, simulated annealing) over the model.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md`
//! for the full system inventory.
//!
//! ## Batch evaluation engine
//!
//! The DSE hot loop runs on a three-level fast path:
//!
//! * [`model::evaluate::WbsnModel::evaluate_objectives`] — an
//!   objectives-only evaluation that reuses a caller-provided
//!   [`model::evaluate::EvalScratch`] (no steady-state allocations) and
//!   memoizes the MAC-independent part of each node's evaluation keyed
//!   by `(kind, CR, fµC)`. Nodes draw from a tiny grid (176 combinations
//!   in the case study), so a whole exploration performs at most `|grid|`
//!   application-model evaluations; every hit only recomputes the cheap
//!   per-MAC radio term. Results are bit-identical to
//!   [`model::evaluate::WbsnModel::evaluate`], including which error a
//!   given infeasible configuration raises.
//! * [`model::soa`] — the struct-of-arrays batch kernel
//!   ([`model::evaluate::WbsnModel::evaluate_objectives_batch`]):
//!   whole point batches walked through interned node/MAC/cell tables,
//!   with per-node energy/PRD/slot values served as plain loads,
//!   infeasibility carried as a per-point mask, and the Eq. 8/9
//!   reductions running as tight `f64` loops. Bit-identical to the
//!   scalar paths (objectives *and* errors — property-tested in
//!   `tests/soa_parity.rs`), zero allocations in steady state.
//! * [`dse::Evaluator::evaluate_batch`] — order-preserving batch
//!   evaluation; the model-backed evaluators run the `SoA` kernel per
//!   chunk across all cores (scoped threads, one pooled kernel scratch
//!   per worker; scalar fallback for tiny batches). NSGA-II evaluates
//!   each generation as one batch, exhaustive search splits the
//!   linear-index mixed-radix enumeration
//!   ([`model::space::DesignSpace::point_at`]) into chunks that workers
//!   decode, evaluate and Pareto-filter in parallel before an in-order
//!   merge, and [`dse::mosa::mosa_restarts`] runs independent annealing
//!   chains concurrently. Evaluation consumes no randomness, so seeded
//!   searches are bit-identical whether batches execute serially or in
//!   parallel.
//!
//! Measured on one (noisy, shared) core — `dse_throughput`, 6-node case
//! study, mixed feasible/infeasible sweep: ≈ 2–4 M evals/s for the
//! allocating serial path, ≈ 9–14 M evals/s for the scalar fast path,
//! and ≈ 15–20 M evals/s for the `SoA` kernel (the paper's reference
//! implementation reports ≈ 4.8 k evals/s). Multi-core runners multiply
//! the batch path by roughly the core count on top. The binary writes
//! its measurements to `./BENCH_dse.json` (gitignored); the recorded
//! baseline for cross-PR comparison lives at
//! `benchmarks/BENCH_dse.json`.

#![warn(missing_docs)]

pub use wbsn_dse as dse;
pub use wbsn_dsp as dsp;
pub use wbsn_model as model;
pub use wbsn_sim as sim;
