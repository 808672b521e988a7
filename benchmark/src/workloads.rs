//! The four workloads: what each feeds, which rung it times end to end,
//! and which prefixes of the stack its traced run climbs. `BENCHMARK.json`
//! records why each exists; `README.md` says which layer it loads.

use crate::stacks::{Knobs, Rung};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub knobs: Knobs,
    /// The top-of-stack rung the end-to-end metrics time.
    pub top: Rung,
    /// The traced run's ladder, bottom rung first; `top` is its last rung.
    pub ladder: &'static [Rung],
    /// Rungs run beside the ladder on the same stream, reported but not
    /// differenced (the paper's IMA and OVH).
    pub beside: &'static [Rung],
    /// Whether `engine.s2` runs with load-aware rebalancing.
    pub rebalance: bool,
    /// Whether the traced run ends with the crash-recovery probe.
    pub recovery_probe: bool,
}

/// Table 2 defaults at scale 1.0: SF-like 10K edges, N=100K uniform,
/// Q=5K Gaussian, k=50, f_obj=f_qry=10%, f_edg=4%, speeds 1, random walk.
const PAPER: Knobs = Knobs {
    edges: 10_000,
    objects: 100_000,
    queries: 5_000,
    k: 50,
    f_obj: 0.10,
    f_qry: 0.10,
    f_edg: 0.04,
    v_qry: 1.0,
    hotspot: false,
    firehose: false,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "paper-gma",
        knobs: PAPER,
        top: Rung::CoreGma,
        ladder: &[Rung::CoreGma],
        beside: &[Rung::CoreIma, Rung::CoreOvh],
        rebalance: false,
        recovery_probe: false,
    },
    Workload {
        name: "paper-engine",
        knobs: PAPER,
        top: Rung::EngineS2,
        ladder: &[Rung::CoreGma, Rung::EngineS1, Rung::EngineS2],
        beside: &[],
        rebalance: false,
        recovery_probe: false,
    },
    Workload {
        name: "firehose-stack",
        // Update-heavy, query-light; every raw event goes through submit.
        knobs: Knobs {
            queries: 500,
            k: 10,
            f_obj: 0.50,
            f_edg: 0.01,
            firehose: true,
            ..PAPER
        },
        top: Rung::EngineIngest,
        ladder: &[
            Rung::CoreGma,
            Rung::EngineS1,
            Rung::EngineS2,
            Rung::ClusterWire,
            Rung::ClusterDurable,
            Rung::ClusterRepl,
            Rung::EngineIngest,
        ],
        beside: &[],
        rebalance: false,
        recovery_probe: true,
    },
    Workload {
        name: "churn-engine",
        // Queries and weights change instead of objects, under a drifting
        // hotspot, into the rebalancing engine.
        knobs: Knobs {
            f_obj: 0.05,
            f_qry: 0.50,
            f_edg: 0.16,
            v_qry: 4.0,
            hotspot: true,
            ..PAPER
        },
        top: Rung::EngineS2,
        ladder: &[Rung::CoreGma, Rung::EngineS2],
        beside: &[],
        rebalance: true,
        recovery_probe: false,
    },
];

impl Workload {
    /// Looks a workload up by its `BENCHMARK.json` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// The same workload with N, Q and the edge count scaled uniformly
    /// (densities preserved). The benchmark itself always runs at 1.0;
    /// the smoke test runs at 1/50.
    pub fn scaled(mut self, scale: f64) -> Workload {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(8);
        self.knobs.edges = s(self.knobs.edges);
        self.knobs.objects = s(self.knobs.objects);
        self.knobs.queries = s(self.knobs.queries);
        self
    }
}
