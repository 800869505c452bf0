//! Seeded end-to-end benchmark of the WBSN stack, with an outside-in
//! per-layer ledger.
//!
//! Three workloads drive the program through its public API only, with
//! its default environment (the thread count is whatever the program
//! discovers): `truth_sweep` (exact fronts of the truth scenarios),
//! `search` (seeded NSGA-II and MOSA runs) and `serve_mixed` (mixed
//! traffic through one coalescing `ServeEngine`). An untraced run
//! reports the end-to-end metrics; a traced run records spans around
//! the calls into each layer and reports the per-layer ledger. See
//! `README.md` next to this crate for the metric definitions.

pub mod fingerprint;
pub mod forward;
pub mod heap;
pub mod host;
pub mod ledger;
pub mod loadgen;
pub mod report;
pub mod search;
pub mod serve_mixed;
pub mod stats;
pub mod trace;
pub mod truth_sweep;

/// Cold set-ups timed per run; their median is `setup_s`.
pub const SETUPS: usize = 31;

/// Median of [`SETUPS`] calls of `setup`, each returning its own
/// duration in seconds, with the host probe offered a sample after each
/// call.
pub fn median_setup(probe: &mut host::HostProbe, mut setup: impl FnMut() -> f64) -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let took = setup();
            probe.sample();
            took
        })
        .collect();
    stats::median(&times)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact fronts of the three truth scenarios, round after round.
    TruthSweep,
    /// Seeded NSGA-II and MOSA runs.
    Search,
    /// Mixed serve traffic, open then closed loop.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::TruthSweep, Self::Search, Self::ServeMixed];

    /// The workload's command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::TruthSweep => "truth_sweep",
            Self::Search => "search",
            Self::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}
