//! One entry per experiment of the paper's evaluation (§6).
//!
//! Each [`Figure`] sweeps exactly the parameter the paper sweeps, holding
//! everything else at the Table 2 defaults. `scale` uniformly shrinks the
//! cardinalities (see [`Params::scaled`]); `scale = 1.0` reproduces the
//! paper's setup verbatim.

use rnn_workload::{Distribution, FirehosePattern, MovementModel};

use crate::checks;
use crate::params::Params;
use crate::runner::{SeriesPoint, Stack};

/// The workload seed of every run that is not given another: the CLI's
/// default, and what the committed artifacts were generated with.
pub const DEFAULT_SEED: u64 = 42;

/// A reproducible experiment: a labelled parameter sweep.
pub struct Figure {
    /// Short id (`fig13a`, …) used on the command line.
    pub name: &'static str,
    /// Human title, as in the paper.
    pub title: &'static str,
    /// Stacks plotted, one row each.
    pub stacks: &'static [Stack],
    /// Whether the y-axis is memory (Fig. 18) rather than CPU time.
    pub memory: bool,
    /// Set on the figures whose runs also write `BENCH_<name>.json`, the
    /// cross-PR tracker committed at the repo root.
    pub artifact: Option<Artifact>,
    /// Builds the sweep at the given scale and seed.
    pub points: fn(scale: f64, seed: u64) -> Vec<(String, Params)>,
}

/// What makes a figure a committed artifact: the settings
/// `experiments ci-gate` regenerates `BENCH_<name>.json` at (with
/// [`DEFAULT_SEED`]) — written here and nowhere else, so the gate cannot
/// drift from what its committed file was generated with — and what every
/// run of the figure must show.
pub struct Artifact {
    /// Cardinality scale.
    pub scale: f64,
    /// Timestamps driven.
    pub timestamps: usize,
    /// Leading timestamps excluded from the per-timestamp means.
    pub warmup: usize,
    /// The figure's own guarantee (see [`checks`]), `Err` saying what
    /// stopped holding. Runs at any settings, so it may not lean on the
    /// pinned ones.
    pub check: fn(&[SeriesPoint]) -> Result<(), String>,
}

impl Artifact {
    /// A [`Figure::artifact`] entry: `(scale, timestamps, warmup)` and the
    /// check.
    const fn pinned(
        scale: f64,
        timestamps: usize,
        warmup: usize,
        check: fn(&[SeriesPoint]) -> Result<(), String>,
    ) -> Option<Artifact> {
        Some(Artifact {
            scale,
            timestamps,
            warmup,
            check,
        })
    }
}

fn base(scale: f64, seed: u64) -> Params {
    Params {
        seed,
        ..Params::default()
    }
    .scaled(scale)
}

fn fig13a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [10_000, 50_000, 100_000, 150_000, 200_000]
        .into_iter()
        .map(|n| {
            let p = base(scale, seed);
            let n_scaled = ((n as f64) * scale).round() as usize;
            (
                format!("N={}K", n / 1000),
                Params {
                    n_objects: n_scaled.max(8),
                    ..p
                },
            )
        })
        .collect()
}

fn fig13b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [1_000, 3_000, 5_000, 7_000, 10_000]
        .into_iter()
        .map(|q| {
            let p = base(scale, seed);
            let q_scaled = (((q as f64) * scale).round() as usize).max(1);
            (
                format!("Q={}K", q / 1000),
                Params {
                    n_queries: q_scaled,
                    ..p
                },
            )
        })
        .collect()
}

fn sweep_k(scale: f64, seed: u64, oldenburg: bool) -> Vec<(String, Params)> {
    [1usize, 25, 50, 100, 200]
        .into_iter()
        .map(|k| {
            let mut p = base(scale, seed);
            if oldenburg {
                p = oldenburg_base(scale, seed);
            }
            // k is *not* scaled: tree sizes relative to the network shrink
            // with scale already; scaling k too would square the effect.
            // At small scales cap k by the object count.
            let k = k.min(p.n_objects / 2).max(1);
            (format!("k={k}"), Params { k, ..p })
        })
        .collect()
}

fn fig14a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    sweep_k(scale, seed, false)
}

/// One point per value of an agility (a fraction per timestamp, labelled
/// in percent), everything else at the scaled Table 2 defaults.
fn sweep_agility(
    scale: f64,
    seed: u64,
    tag: &str,
    values: &[f64],
    set: fn(&mut Params, f64),
) -> Vec<(String, Params)> {
    let point = |&f: &f64| {
        let mut p = base(scale, seed);
        set(&mut p, f);
        (format!("{tag}={}%", (f * 100.0) as u32), p)
    };
    values.iter().map(point).collect()
}

fn fig14b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let values = [0.01, 0.02, 0.04, 0.08, 0.16];
    sweep_agility(scale, seed, "f_edg", &values, |p, f| p.edge_agility = f)
}

fn fig15a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let values = [0.0, 0.05, 0.10, 0.15, 0.20];
    sweep_agility(scale, seed, "f_obj", &values, |p, f| p.object_agility = f)
}

fn fig15b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|v| {
            (
                format!("v_obj={v}"),
                Params {
                    object_speed: v,
                    ..base(scale, seed)
                },
            )
        })
        .collect()
}

fn fig16a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let values = [0.0, 0.05, 0.10, 0.15, 0.20];
    sweep_agility(scale, seed, "f_qry", &values, |p, f| p.query_agility = f)
}

fn fig16b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|v| {
            (
                format!("v_qry={v}"),
                Params {
                    query_speed: v,
                    ..base(scale, seed)
                },
            )
        })
        .collect()
}

fn fig17a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let combos: [(&str, Distribution, Distribution); 4] = [
        ("U-obj/U-qry", Distribution::Uniform, Distribution::Uniform),
        (
            "U-obj/G-qry",
            Distribution::Uniform,
            Distribution::gaussian_queries(),
        ),
        (
            "G-obj/U-qry",
            Distribution::gaussian_objects(),
            Distribution::Uniform,
        ),
        (
            "G-obj/G-qry",
            Distribution::gaussian_objects(),
            Distribution::gaussian_queries(),
        ),
    ];
    combos
        .into_iter()
        .map(|(label, od, qd)| {
            (
                label.to_string(),
                Params {
                    object_distribution: od,
                    query_distribution: qd,
                    ..base(scale, seed)
                },
            )
        })
        .collect()
}

fn fig17b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    // Densities fixed: 10 objects and 0.5 queries per edge.
    [1_000usize, 5_000, 10_000, 50_000, 100_000]
        .into_iter()
        .map(|edges| {
            let e = (((edges as f64) * scale).round() as usize).max(64);
            (
                format!("E={}K", edges / 1000),
                Params {
                    edges: e,
                    n_objects: e * 10,
                    n_queries: (e / 2).max(1),
                    ..Params {
                        seed,
                        ..Params::default()
                    }
                },
            )
        })
        .collect()
}

fn fig18a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    fig13b(scale, seed)
}

fn fig18b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    sweep_k(scale, seed, false)
}

fn oldenburg_base(scale: f64, seed: u64) -> Params {
    // Fig. 19: Oldenburg map (7035 edges), N = 64K, Brinkhoff movement.
    Params {
        edges: 7_035,
        n_objects: 64_000,
        n_queries: 8_000,
        oldenburg: true,
        movement: MovementModel::Brinkhoff,
        seed,
        ..Params::default()
    }
    .scaled(scale)
}

fn fig19a(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000]
        .into_iter()
        .map(|q| {
            let p = oldenburg_base(scale, seed);
            let q_scaled = (((q as f64) * scale).round() as usize).max(1);
            (
                format!("Q={}K", q / 1000),
                Params {
                    n_queries: q_scaled,
                    ..p
                },
            )
        })
        .collect()
}

fn fig19b(scale: f64, seed: u64) -> Vec<(String, Params)> {
    sweep_k(scale, seed, true)
}

/// Engine scaling (not in the paper): the sharded engine at 1/2/4/8 shards
/// against single-threaded GMA, at Table 2 defaults and at doubled object
/// load. The shard count is the algorithm axis (`ENG-1` … `ENG-8`), so one
/// series point yields the whole shards-vs-latency curve.
fn engine_scaling(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let p = base(scale, seed);
    vec![
        ("T2-defaults".to_string(), p.clone()),
        (
            "2x-objects".to_string(),
            Params {
                n_objects: p.n_objects * 2,
                ..p
            },
        ),
    ]
}

/// Replica maintenance (not in the paper): the sharded engine's resync /
/// eviction counters under increasing query churn. Query agility drives
/// halo growth and shrink, which is exactly the replica-lifecycle work the
/// incremental maintenance subsystem bounds.
fn engine_repl(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let values = [0.05, 0.20, 0.50];
    sweep_agility(scale, seed, "f_qry", &values, |p, f| p.query_agility = f)
}

/// Tick-path flatness (not in the paper): the default engine scenario at
/// Table 2 defaults plus an elevated-churn point and an edge-weight-churn
/// point, reporting the arena/heap allocation counter, shared-expansion
/// reuse, raw expansion steps, and the tree-surgery counters (nodes
/// recycled through the tree pool / nodes pruned). The edge-churn point
/// drives constant subtree cuts and re-expansions, so it pins the
/// zero-alloc guarantee on ticks that perform tree *surgery*, not just
/// reads. The experiments binary asserts alloc-free steady-state ticks for
/// the single monitors, `shared_expansions > 0`, and surgery recycling on
/// this figure.
fn tickpath(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let p = base(scale, seed);
    vec![
        ("T2-defaults".to_string(), p.clone()),
        (
            "hi-churn".to_string(),
            Params {
                object_agility: 0.20,
                query_agility: 0.20,
                ..p.clone()
            },
        ),
        (
            "edge-churn".to_string(),
            Params {
                edge_agility: 0.16,
                ..p
            },
        ),
    ]
}

/// Load-aware re-partitioning (not in the paper): a skewed hotspot whose
/// center drifts across the network, run through the statically
/// partitioned engine and the rebalancing one at the same shard count.
/// The static engine pins the hotspot to whichever worker owns it; the
/// rebalancer migrates boundary cells after it, which the max/mean
/// shard-load ratio and the `cells_migrated` counter make visible. One
/// wide point and one tight point (hotspot spread).
fn rebalance(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let p = Params {
        hotspot: true,
        // Half the queries jump to the hotspot each tick — enough skew to
        // dominate the load signal while the rest keep walking normally.
        query_agility: 0.5,
        object_agility: 0.10,
        ..base(scale, seed)
    };
    vec![
        ("hotspot-drift".to_string(), p.clone()),
        (
            "hotspot-hi-churn".to_string(),
            Params {
                query_agility: 0.8,
                object_agility: 0.20,
                ..p
            },
        ),
    ]
}

/// Cluster deployment (not in the paper): the in-process sharded engine
/// against the shard-per-process loopback cluster. Work counters must
/// line up exactly (the RPC layer is answer-identical, which the
/// differential suite proves bit-for-bit); the CPU delta is the
/// framing/serialisation overhead, and the frames/bytes counters size
/// the delta protocol per tick. One defaults point and one
/// elevated-churn point (churn grows the deltas, so it bounds the
/// protocol under load).
fn cluster(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let p = base(scale, seed);
    vec![
        ("T2-defaults".to_string(), p.clone()),
        (
            "hi-churn".to_string(),
            Params {
                object_agility: 0.20,
                query_agility: 0.20,
                ..p
            },
        ),
    ]
}

/// Durability (not in the paper): the fault-free loopback cluster
/// against durable clusters whose shards are each crashed once mid-run
/// (delivered-frame budget) and rebuilt from monitor-state snapshot +
/// journal-suffix replay. The artifact sizes the durability plane
/// (snapshot KB, journal length) and pins the recovery bound: frames
/// replayed per recovery must track the snapshot cadence, not the run
/// length. Same sweep as the cluster figure, so the CLU-2 column
/// doubles as the no-durability control.
fn recovery(scale: f64, seed: u64) -> Vec<(String, Params)> {
    cluster(scale, seed)
}

/// Replication (not in the paper): the in-process engines against
/// replicated clusters whose every shard leader is killed mid-run with
/// stillborn respawns, forcing a follower promotion per shard. The
/// artifact proves answer-identity *through failover* (the CLU-n-R work
/// columns must equal ENG-n's) and sizes the replication plane:
/// `commit_lag_frames` per tick (pinned by the CI gate; appends are
/// synchronous, so it counts replicated event frames and is not a lag),
/// replica bytes, and the failover/fencing counters. Same sweep as the
/// cluster figure so the protocol overhead is comparable.
fn replication(scale: f64, seed: u64) -> Vec<(String, Params)> {
    cluster(scale, seed)
}

/// Ingest front-end (not in the paper): the batch-fed engine against
/// the same engine fed the raw oversampled firehose stream through the
/// MPSC ingest stage, one point per feed shape. The lossless ING column
/// shows what coalescing folds away (`coalesced_per_ts`) at zero
/// steady-state drain allocations; the ING-SHED column shows what
/// tight `ShedOldest` admission drops (`shed_events`).
fn ingest(scale: f64, seed: u64) -> Vec<(String, Params)> {
    [
        FirehosePattern::FlashCrowd,
        FirehosePattern::CommuteWave,
        FirehosePattern::IncidentResponse,
    ]
    .into_iter()
    .map(|pattern| {
        (
            pattern.name().to_string(),
            Params {
                firehose: Some(pattern),
                ..base(scale, seed)
            },
        )
    })
    .collect()
}

/// Ablation (not in the paper): IMA with vs without influence lists.
fn ablation_influence(scale: f64, seed: u64) -> Vec<(String, Params)> {
    let values = [0.05, 0.10, 0.20];
    sweep_agility(scale, seed, "f_obj", &values, |p, f| p.object_agility = f)
}

/// All experiments, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig13a",
            title: "Figure 13(a): CPU time vs object cardinality N",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig13a,
        },
        Figure {
            name: "fig13b",
            title: "Figure 13(b): CPU time vs query cardinality Q",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig13b,
        },
        Figure {
            name: "fig14a",
            title: "Figure 14(a): CPU time vs number of NNs k (log scale in the paper)",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig14a,
        },
        Figure {
            name: "fig14b",
            title: "Figure 14(b): CPU time vs edge agility f_edg",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig14b,
        },
        Figure {
            name: "fig15a",
            title: "Figure 15(a): CPU time vs object agility f_obj",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig15a,
        },
        Figure {
            name: "fig15b",
            title: "Figure 15(b): CPU time vs object speed v_obj",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig15b,
        },
        Figure {
            name: "fig16a",
            title: "Figure 16(a): CPU time vs query agility f_qry",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig16a,
        },
        Figure {
            name: "fig16b",
            title: "Figure 16(b): CPU time vs query speed v_qry",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig16b,
        },
        Figure {
            name: "fig17a",
            title: "Figure 17(a): CPU time vs object/query distributions",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig17a,
        },
        Figure {
            name: "fig17b",
            title: "Figure 17(b): CPU time vs network size (fixed densities)",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig17b,
        },
        Figure {
            name: "fig18a",
            title: "Figure 18(a): memory (KBytes) vs query cardinality Q",
            stacks: Stack::MEMORY_SET,
            memory: true,
            artifact: None,
            points: fig18a,
        },
        Figure {
            name: "fig18b",
            title: "Figure 18(b): memory (KBytes) vs number of NNs k",
            stacks: Stack::MEMORY_SET,
            memory: true,
            artifact: None,
            points: fig18b,
        },
        Figure {
            name: "fig19a",
            title: "Figure 19(a): Brinkhoff generator, Oldenburg map — CPU time vs Q",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig19a,
        },
        Figure {
            name: "fig19b",
            title: "Figure 19(b): Brinkhoff generator, Oldenburg map — CPU time vs k",
            stacks: Stack::PAPER_SET,
            memory: false,
            artifact: None,
            points: fig19b,
        },
        Figure {
            name: "ablation-il",
            title: "Ablation: IMA with vs without influence lists",
            stacks: Stack::ABLATION_SET,
            memory: false,
            artifact: None,
            points: ablation_influence,
        },
        Figure {
            name: "engine",
            title: "Engine scaling: sharded engine (1/2/4/8 shards) vs single-threaded GMA",
            stacks: Stack::ENGINE_SET,
            memory: false,
            artifact: Artifact::pinned(0.01, 4, 1, |_| Ok(())),
            points: engine_scaling,
        },
        Figure {
            name: "engine_repl",
            title: "Replica maintenance: resync/evictions vs query agility (2/4/8 shards)",
            stacks: Stack::ENGINE_REPL_SET,
            memory: false,
            artifact: Artifact::pinned(0.01, 4, 1, |_| Ok(())),
            points: engine_repl,
        },
        Figure {
            name: "tickpath",
            title: "Tick path: arena allocs, shared expansions, heap steps (IMA/GMA/ENG-4)",
            stacks: Stack::TICKPATH_SET,
            memory: false,
            // The longer warm-up lets the tree pool's slab/directory
            // population reach its high-water marks, so the measured window
            // pins the maintenance alloc counter at exactly zero — surgery
            // included.
            artifact: Artifact::pinned(0.02, 16, 10, checks::tickpath),
            points: tickpath,
        },
        Figure {
            name: "rebalance",
            title:
                "Rebalance: drifting hotspot, static vs load-aware partition (ENG-4 vs ENG-4-RB)",
            stacks: Stack::REBALANCE_SET,
            memory: false,
            artifact: Artifact::pinned(0.01, 24, 4, checks::rebalance),
            points: rebalance,
        },
        Figure {
            name: "cluster",
            title: "Cluster: in-process ENG-4 vs shard-per-process loopback (CLU-2/CLU-4)",
            stacks: Stack::CLUSTER_SET,
            memory: false,
            artifact: Artifact::pinned(0.01, 4, 1, checks::cluster),
            points: cluster,
        },
        Figure {
            name: "recovery",
            title: "Recovery: crash each shard mid-run, rebuild from snapshot + journal suffix",
            stacks: Stack::RECOVERY_SET,
            memory: false,
            // Six timestamps: every shard's pinned delivered-frame budget
            // (`runner::CRASH_AFTER_FRAMES`) runs out mid-run.
            artifact: Artifact::pinned(0.01, 6, 1, checks::recovery),
            points: recovery,
        },
        Figure {
            name: "replication",
            title: "Replication: replicated CLU-n-R with leader kills vs ENG-n",
            stacks: Stack::REPLICATION_SET,
            memory: false,
            artifact: Artifact::pinned(0.01, 6, 1, checks::replication),
            points: replication,
        },
        Figure {
            name: "ingest",
            title: "Ingest: batch-fed ENG-4 vs firehose-fed ING-4 (coalescing) / ING-4-SHED",
            stacks: Stack::INGEST_SET,
            memory: false,
            // The two-tick warm-up absorbs the queue's high-water
            // growth, after which the drain must run allocation-free.
            artifact: Artifact::pinned(0.01, 6, 2, checks::ingest),
            points: ingest,
        },
    ]
}

/// Finds a figure by its short name.
pub fn figure_by_name(name: &str) -> Option<Figure> {
    all_figures().into_iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_figures_present() {
        let names: Vec<&str> = all_figures().iter().map(|f| f.name).collect();
        for expected in [
            "fig13a", "fig13b", "fig14a", "fig14b", "fig15a", "fig15b", "fig16a", "fig16b",
            "fig17a", "fig17b", "fig18a", "fig18b", "fig19a", "fig19b",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn sweeps_have_paper_point_counts() {
        let f = figure_by_name("fig13a").unwrap();
        assert_eq!((f.points)(0.01, 1).len(), 5);
        let f = figure_by_name("fig17a").unwrap();
        assert_eq!((f.points)(0.01, 1).len(), 4);
        let f = figure_by_name("fig19a").unwrap();
        assert_eq!((f.points)(0.01, 1).len(), 7);
    }

    #[test]
    fn sweep_varies_only_target_parameter() {
        let f = figure_by_name("fig14b").unwrap();
        let pts = (f.points)(0.02, 3);
        let agilities: Vec<f64> = pts.iter().map(|(_, p)| p.edge_agility).collect();
        assert_eq!(agilities, vec![0.01, 0.02, 0.04, 0.08, 0.16]);
        for (_, p) in &pts {
            assert_eq!(p.k, Params::default().k);
            assert_eq!(p.n_queries, pts[0].1.n_queries);
        }
    }

    #[test]
    fn engine_figure_sweeps_shard_counts() {
        let f = figure_by_name("engine").unwrap();
        let names: Vec<String> = f.stacks.iter().map(Stack::name).collect();
        assert_eq!(names, vec!["GMA", "ENG-1", "ENG-2", "ENG-4", "ENG-8"]);
        assert!(!f.memory);
        assert_eq!((f.points)(0.01, 1).len(), 2);
    }

    #[test]
    fn engine_repl_figure_sweeps_query_agility_over_sharded_engines() {
        let f = figure_by_name("engine_repl").unwrap();
        let names: Vec<String> = f.stacks.iter().map(Stack::name).collect();
        assert_eq!(names, vec!["ENG-2", "ENG-4", "ENG-8"]);
        let pts = (f.points)(0.01, 1);
        let agilities: Vec<f64> = pts.iter().map(|(_, p)| p.query_agility).collect();
        assert_eq!(agilities, vec![0.05, 0.20, 0.50]);
    }

    #[test]
    fn ingest_figure_sweeps_feed_shapes() {
        let f = figure_by_name("ingest").unwrap();
        let names: Vec<String> = f.stacks.iter().map(Stack::name).collect();
        assert_eq!(names, vec!["ENG-4", "ING-4", "ING-4-SHED"]);
        let pts = (f.points)(0.01, 1);
        let labels: Vec<&str> = pts.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["flash-crowd", "commute-wave", "incident-response"]
        );
        for (_, p) in &pts {
            assert!(p.firehose.is_some());
        }
    }

    #[test]
    fn cluster_figure_pairs_engine_and_cluster() {
        let f = figure_by_name("cluster").unwrap();
        let names: Vec<String> = f.stacks.iter().map(Stack::name).collect();
        assert_eq!(names, vec!["ENG-4", "CLU-2", "CLU-4"]);
        assert!(!f.memory);
        assert_eq!((f.points)(0.01, 1).len(), 2);
    }

    #[test]
    fn replication_figure_pairs_engines_with_replicated_clusters() {
        let f = figure_by_name("replication").unwrap();
        let names: Vec<String> = f.stacks.iter().map(Stack::name).collect();
        assert_eq!(names, vec!["ENG-2", "ENG-4", "CLU-2-R", "CLU-4-R"]);
        assert!(!f.memory);
        assert_eq!((f.points)(0.01, 1).len(), 2);
    }

    /// The gate names a leaf by point label, row name and key: at its
    /// pinned settings no artifact figure may list a label or a stack
    /// twice.
    #[test]
    fn the_gate_can_tell_the_rows_of_every_artifact_apart() {
        let distinct = |mut names: Vec<String>| {
            let listed = names.len();
            names.sort();
            names.dedup();
            names.len() == listed
        };
        let figures = all_figures();
        let artifacts = figures
            .iter()
            .filter_map(|f| Some((f, f.artifact.as_ref()?)));
        let mut seen = 0;
        for (f, artifact) in artifacts {
            seen += 1;
            let points = (f.points)(artifact.scale, DEFAULT_SEED);
            assert!(distinct(points.into_iter().map(|(l, _)| l).collect()));
            assert!(distinct(f.stacks.iter().map(Stack::name).collect()));
            assert!(artifact.warmup < artifact.timestamps, "{}", f.name);
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn fig19_uses_brinkhoff_and_oldenburg() {
        let f = figure_by_name("fig19a").unwrap();
        for (_, p) in (f.points)(0.05, 1) {
            assert!(p.oldenburg);
            assert_eq!(p.movement, rnn_workload::MovementModel::Brinkhoff);
        }
    }
}
