//! The benchmark's workloads, each an experiment spec built from the seed.
//!
//! The specs are written out here rather than read from `examples/specs`,
//! so an edit to an example file cannot silently change what the
//! benchmark measures.

use dfsim_apps::{poisson_arrivals, AppKind, ArrivalSpec};
use dfsim_core::spec::{ExperimentSpec, Workload as SpecWorkload};

/// The paper's Fig. 8 headline cell (`examples/specs/fig8.spec`): LQCD
/// target, Stencil5D background, Q-adaptive routing, 33x8x4 paper system.
const FIG8: &str = "dfsim-spec v1
workload pairwise LQCD Stencil5D
routing Q-adp
scale 64
topology groups=33 routers_per_group=8 nodes_per_router=4 globals_per_router=4
";

/// Job churn under UGAL on the same system; the arrivals are attached in
/// [`Workload::spec`].
const CHURN: &str = "dfsim-spec v1
sched backfill
placement random
routing UGALg
scale 64
topology groups=33 routers_per_group=8 nodes_per_router=4 globals_per_router=4
";

/// Churn arrival rate, jobs per simulated ms. All four jobs arrive well
/// before the first one ends (about 0.2 ms), so with 1,584 nodes requested
/// of 1,056 the third job queues and the fourth backfills past it.
const CHURN_RATE_PER_MS: f64 = 40.0;

/// The churn job list, in arrival order. The sizes are fixed rather than
/// drawn from the seed: a seed then moves arrival times, placement and
/// routing choices but not the amount of work, so the spread across seeds
/// measures the host, not the draw.
const CHURN_JOBS: [(AppKind, u32); 4] =
    [(AppKind::UR, 264), (AppKind::CosmoFlow, 528), (AppKind::LQCD, 528), (AppKind::FFT3D, 264)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig8Qadp,
    Fig8QadpP2,
    ChurnUgal,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig8Qadp, Workload::Fig8QadpP2, Workload::ChurnUgal];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Qadp => "fig8_qadp",
            Workload::Fig8QadpP2 => "fig8_qadp_p2",
            Workload::ChurnUgal => "churn_ugal",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of the measured run.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig8QadpP2 => 2,
            Workload::Fig8Qadp | Workload::ChurnUgal => 1,
        }
    }

    /// Jobs (apps) a complete run reports: the pairwise target and
    /// background, or every churn arrival.
    pub fn jobs(self) -> usize {
        if self.is_static() {
            2
        } else {
            CHURN_JOBS.len()
        }
    }

    /// Whether every job starts at t = 0, so the static world loop can be
    /// replayed from public calls.
    pub fn is_static(self) -> bool {
        self != Workload::ChurnUgal
    }

    /// The workload's spec for `seed`, with the result cache off.
    pub fn spec(self, seed: u64) -> ExperimentSpec {
        self.spec_at(seed, self.threads())
    }

    /// The workload's spec for `seed` at `threads` worker threads.
    pub fn spec_at(self, seed: u64, threads: usize) -> ExperimentSpec {
        let text = if self.is_static() { FIG8 } else { CHURN };
        let mut spec = ExperimentSpec::parse(text).expect("the built-in spec parses");
        spec.seed = seed;
        spec.threads = threads;
        if !self.is_static() {
            // The program's own Poisson generator draws the arrival times;
            // its size draw is overridden by the fixed sizes.
            let kinds: Vec<AppKind> = CHURN_JOBS.iter().map(|&(k, _)| k).collect();
            let times = poisson_arrivals(
                seed,
                CHURN_RATE_PER_MS,
                CHURN_JOBS.len() as u32,
                &kinds,
                &[CHURN_JOBS[0].1],
            );
            spec.workload = SpecWorkload::Scenario(
                times
                    .iter()
                    .zip(CHURN_JOBS)
                    .map(|(a, (kind, size))| ArrivalSpec { kind, size, at: a.at })
                    .collect(),
            );
        }
        spec
    }
}
