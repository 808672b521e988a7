//! CI bench-regression gate over the deterministic work counters.
//!
//! PR 3 made the tick path's work counters bit-stable: for a pinned
//! (figure, scale, timestamps, warmup, seed) the per-timestamp
//! `expansion_steps`, `resync_touched` and `alloc_events` are exact
//! machine-independent numbers, not wall-clock noise. That makes them
//! gateable: this module re-runs the gated figures at the pinned settings,
//! compares the fresh counters against the **committed** `BENCH_*.json`
//! baselines, and fails on a regression of more than
//! [`MAX_REGRESSION`] — so neither the rebalancer nor any future PR can
//! silently make the tick path do more work.
//!
//! The baseline files are the same artifacts the smoke steps emit; they
//! are parsed with a purpose-built scanner for the harness's own output
//! format (the vendored serde stub has no deserializer). Regenerate them
//! with `experiments ci-gate --update` after an *intentional* counter
//! change and commit the diff — the PR review then sees exactly which
//! counters moved.

use std::collections::BTreeMap;

use crate::figures::figure_by_name;
use crate::runner::{run_series, series_to_json, Gate, COLUMNS};

/// Maximum tolerated relative growth of a gated counter (5%).
pub const MAX_REGRESSION: f64 = 0.05;

/// Absolute epsilon for float parse wobble only. Both sides of a
/// comparison are parsed from identically rendered artifacts (the gate
/// renders its fresh run through the same serializer the baseline came
/// from), so no precision slack is needed — and a near-zero counter like
/// `alloc_per_ts` going 0.000 → anything must fail: new allocations on a
/// previously allocation-free path are exactly what the gate exists to
/// catch.
const ABS_SLACK: f64 = 1e-9;

/// One gated figure with its pinned, CI-pinned run settings. The settings
/// are constants here — not CLI flags — so the gate can never drift away
/// from the settings its committed baseline was generated with.
pub struct GateSpec {
    /// Figure name (and `BENCH_<name>.json` baseline file).
    pub figure: &'static str,
    /// Cardinality scale.
    pub scale: f64,
    /// Timestamps driven.
    pub timestamps: usize,
    /// Warmup timestamps excluded from the averages.
    pub warmup: usize,
    /// Workload seed.
    pub seed: u64,
}

/// The gated figures. Matches the CI smoke invocations of the same
/// figures, so the committed artifacts double as the baselines.
pub const GATE_SPECS: &[GateSpec] = &[
    GateSpec {
        figure: "tickpath",
        // The longer warmup lets the tree pool's slab/directory population
        // reach its high-water marks, so the measured window pins the
        // maintenance alloc counter at exactly zero — surgery included.
        scale: 0.02,
        timestamps: 16,
        warmup: 10,
        seed: 42,
    },
    GateSpec {
        figure: "engine_repl",
        scale: 0.01,
        timestamps: 4,
        warmup: 1,
        seed: 42,
    },
    GateSpec {
        // The loopback cluster: frames per tick are deterministic on a
        // fault-free transport (sequence-numbered exactly-once RPC over
        // an in-process channel), so the gate pins the delta protocol's
        // message volume alongside the work counters.
        figure: "cluster",
        scale: 0.01,
        timestamps: 4,
        warmup: 1,
        seed: 42,
    },
    GateSpec {
        // Durable shards, each crashed at a pinned delivered-frame
        // budget: the crash tick, the snapshot a respawn restores from,
        // and the journal suffix it replays are all deterministic, so
        // `replayed_per_recovery` is an exact number the gate can hold to
        // the O(WAL-suffix) bound — a regression means recovery started
        // replaying history a snapshot should have absorbed.
        figure: "recovery",
        scale: 0.01,
        timestamps: 6,
        warmup: 1,
        seed: 42,
    },
    GateSpec {
        // Quorum-replicated shards with every leader killed at a pinned
        // delivered-frame budget (stillborn respawns, so promotion —
        // not replay — restores service): the synchronous append
        // pipeline commits each replicated event with exactly one frame
        // outstanding, making `commit_lag_frames` a deterministic rate
        // the gate pins. Growth means the leader started racing ahead
        // of its quorum — committing events followers have not acked.
        figure: "replication",
        scale: 0.01,
        timestamps: 6,
        warmup: 1,
        seed: 42,
    },
    GateSpec {
        // The ingest front-end over the three firehose shapes: the
        // coalescing fold (`coalesced_per_ts`) is deterministic for a
        // pinned firehose seed, and the baseline pins the ING rows'
        // `drain_alloc_events` window-total at exactly 0 — the two-tick
        // warmup absorbs the lane/merge high-water growth, after which
        // the swap-and-merge drain must run allocation-free.
        figure: "ingest",
        scale: 0.01,
        timestamps: 6,
        warmup: 2,
        seed: 42,
    },
];

/// The deterministic counters the gate enforces: the [`Gate::Gated`] rows
/// of the runner's [`COLUMNS`] table, by JSON key. Each row says there why
/// it is (or is not) gateable; a column a committed baseline predates is
/// skipped for that baseline.
pub fn gated_metrics() -> impl Iterator<Item = &'static str> {
    COLUMNS
        .iter()
        .filter(|c| c.gate == Gate::Gated)
        .map(|c| c.key)
}

/// `(label, algo) → metric → value`, scanned from one artifact.
type FigureTable = BTreeMap<(String, String), BTreeMap<String, f64>>;

/// Extracts the quoted string after `"key":` on `line`, if present.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Parses one `"key": number` pair list out of a result record line.
fn number_fields(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let Some(q2) = rest.find('"') else { break };
        let key = &rest[..q2];
        rest = &rest[q2 + 1..];
        let Some(colon) = rest.find(':') else { break };
        let value_str = rest[colon + 1..]
            .trim_start()
            .split([',', '}'])
            .next()
            .unwrap_or("")
            .trim();
        if let Ok(v) = value_str.parse::<f64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

/// Scans one artifact in the harness's own output format into a
/// `(label, algo) → metrics` table.
pub fn parse_artifact(json: &str) -> Result<FigureTable, String> {
    let mut table = FigureTable::new();
    let mut label = String::new();
    for line in json.lines() {
        if let Some(l) = string_field(line, "label") {
            label = l;
            continue;
        }
        if let Some(algo) = string_field(line, "algo") {
            if label.is_empty() {
                return Err("result record before any point label".into());
            }
            table.insert((label.clone(), algo), number_fields(line));
        }
    }
    if table.is_empty() {
        return Err("no result records found — not a harness artifact?".into());
    }
    Ok(table)
}

/// One detected counter regression.
#[derive(Debug)]
pub struct Regression {
    /// Gated figure.
    pub figure: String,
    /// Sweep point label.
    pub label: String,
    /// Algorithm.
    pub algo: String,
    /// Counter name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}: {} regressed {:.3} -> {:.3} (+{:.1}%)",
            self.figure,
            self.label,
            self.algo,
            self.metric,
            self.baseline,
            self.fresh,
            (self.fresh - self.baseline) / self.baseline.max(1e-12) * 100.0
        )
    }
}

/// Runs one gated figure at its pinned settings and renders the artifact
/// JSON (the exact bytes `--update` would write).
pub fn run_gated_figure(spec: &GateSpec) -> Result<String, String> {
    let fig = figure_by_name(spec.figure)
        .ok_or_else(|| format!("gated figure {} does not exist", spec.figure))?;
    let points = (fig.points)(spec.scale, spec.seed);
    let series = run_series(&points, fig.stacks, spec.timestamps, spec.warmup, false);
    Ok(series_to_json(fig.name, &series))
}

/// Compares a fresh artifact against its committed baseline. Missing
/// baseline rows fail (a renamed label/algo needs `--update`); *extra*
/// fresh rows are fine (new algorithms join the figure without a gate
/// exception).
pub fn compare(figure: &str, baseline: &str, fresh: &str) -> Result<Vec<Regression>, String> {
    let base = parse_artifact(baseline).map_err(|e| format!("baseline {figure}: {e}"))?;
    let new = parse_artifact(fresh).map_err(|e| format!("fresh {figure}: {e}"))?;
    let mut regressions = Vec::new();
    for ((label, algo), metrics) in &base {
        let Some(fresh_metrics) = new.get(&(label.clone(), algo.clone())) else {
            return Err(format!(
                "{figure}: baseline row ({label}, {algo}) missing from the fresh run — \
                 regenerate the baselines with `experiments ci-gate --update`"
            ));
        };
        for metric in gated_metrics() {
            let (Some(&b), Some(&f)) = (metrics.get(metric), fresh_metrics.get(metric)) else {
                continue; // counter absent from the committed schema
            };
            if f > b * (1.0 + MAX_REGRESSION) + ABS_SLACK {
                regressions.push(Regression {
                    figure: figure.to_string(),
                    label: label.clone(),
                    algo: algo.clone(),
                    metric: metric.to_string(),
                    baseline: b,
                    fresh: f,
                });
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "figure": "tickpath",
  "points": [
    {
      "label": "T2-defaults",
      "results": [
        {"algo": "IMA", "cpu_per_ts": 0.000740215, "alloc_per_ts": 0.000, "steps_per_ts": 42.4, "resync_per_ts": 0.0},
        {"algo": "GMA", "cpu_per_ts": 0.001034350, "alloc_per_ts": 0.125, "steps_per_ts": 3.0, "resync_per_ts": 0.0}
      ]
    }
  ]
}"#;

    #[test]
    fn parses_own_artifact_format() {
        let t = parse_artifact(SAMPLE).unwrap();
        let ima = &t[&("T2-defaults".to_string(), "IMA".to_string())];
        assert_eq!(ima["steps_per_ts"], 42.4);
        assert_eq!(ima["alloc_per_ts"], 0.0);
        let gma = &t[&("T2-defaults".to_string(), "GMA".to_string())];
        assert_eq!(gma["alloc_per_ts"], 0.125);
    }

    #[test]
    fn identical_artifacts_pass() {
        assert!(compare("tickpath", SAMPLE, SAMPLE).unwrap().is_empty());
    }

    #[test]
    fn regression_is_detected_and_improvement_passes() {
        let worse = SAMPLE.replace("\"steps_per_ts\": 42.4", "\"steps_per_ts\": 60.0");
        let regs = compare("tickpath", SAMPLE, &worse).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "steps_per_ts");
        assert_eq!(regs[0].algo, "IMA");
        assert!(regs[0].to_string().contains("regressed"));
        // Improvements and sub-threshold drift pass.
        let better = SAMPLE.replace("\"steps_per_ts\": 42.4", "\"steps_per_ts\": 40.0");
        assert!(compare("tickpath", SAMPLE, &better).unwrap().is_empty());
        let tiny = SAMPLE.replace("\"steps_per_ts\": 42.4", "\"steps_per_ts\": 42.5");
        assert!(compare("tickpath", SAMPLE, &tiny).unwrap().is_empty());
    }

    #[test]
    fn missing_baseline_row_fails_loudly() {
        let renamed = SAMPLE.replace("\"algo\": \"IMA\"", "\"algo\": \"IMA2\"");
        assert!(compare("tickpath", SAMPLE, &renamed).is_err());
        // Extra fresh rows are fine (the reverse direction).
        assert!(compare("tickpath", &renamed.replace("IMA2", "IMA"), SAMPLE)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn gate_specs_name_real_figures() {
        for spec in GATE_SPECS {
            assert!(
                figure_by_name(spec.figure).is_some(),
                "gated figure {} missing",
                spec.figure
            );
        }
    }
}
