//! Oversampled "firehose" workloads for the ingest front-end.
//!
//! The base [`Scenario`] emits exactly one event per
//! moving entity per timestamp — the paper's synchronous contract. Real
//! feeds oversample: a phone reports its position every few seconds
//! while the server ticks once a minute, congestion sensors re-report an
//! incident edge until it clears, and a flash crowd floods the feed with
//! redundant position fixes. A [`Firehose`] layers that redundancy on
//! top of a base scenario, producing **two views of the same tick**:
//!
//! * the **raw stream** — every report, in submission order, with each
//!   entity's intermediate fixes preceding its final one. This is what
//!   gets pushed through `rnn_engine::ingest`.
//! * the **effective batch** — the base scenario's one-event-per-entity
//!   batch, i.e. what the tick *means* after §4.5 coalescing. This
//!   drives the oracle monitor in differential tests.
//!
//! A monitor fed the raw stream through a coalescing ingest stage must
//! answer identically to one ticked with the effective batch; the raw
//! stream merely costs `coalesced_superseded` counted work at submit.
//! Intermediate fixes are fabricated *between* an entity's reports (a
//! jittered fraction on the final edge), so even a monitor that naively
//! processed every raw event in order would land on the same final
//! position — the redundancy is semantic noise, exactly like the real
//! feeds it models.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_core::{ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent};
use rnn_roadnet::NetPoint;
use std::sync::Arc;

use rnn_core::ContinuousMonitor;
use rnn_roadnet::RoadNetwork;

use crate::scenario::{Scenario, ScenarioConfig};

/// Which feed shape the firehose models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirehosePattern {
    /// A fraction of the moving objects (the "crowd") report in bursts —
    /// each crowd member emits several redundant fixes per tick — while
    /// the rest report once. Models an event venue or pile-up where a
    /// dense subpopulation floods the feed.
    FlashCrowd,
    /// Every moving entity oversamples uniformly: the steady rush-hour
    /// feed where each commuter's device reports faster than the server
    /// ticks.
    CommuteWave,
    /// Congestion sensors re-report every changed edge several times
    /// (oscillating readings settling on the final weight) and movers
    /// report twice. Models an incident: the traffic plane is the noisy
    /// one, not the objects.
    IncidentResponse,
}

impl FirehosePattern {
    /// Display name, matching the experiment CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FirehosePattern::FlashCrowd => "flash-crowd",
            FirehosePattern::CommuteWave => "commute-wave",
            FirehosePattern::IncidentResponse => "incident-response",
        }
    }
}

/// Firehose tuning: the base workload plus the oversampling shape.
#[derive(Clone, Debug)]
pub struct FirehoseConfig {
    /// The feed shape.
    pub pattern: FirehosePattern,
    /// Extra (superseded) reports per oversampling entity per tick.
    pub oversample: usize,
    /// Fraction of moving objects in the flash crowd (only
    /// [`FirehosePattern::FlashCrowd`] reads this).
    pub crowd_frac: f64,
    /// The base workload the redundancy is layered onto.
    pub scenario: ScenarioConfig,
}

impl FirehoseConfig {
    /// The named pattern over a base scenario, with the defaults the
    /// `experiments ingest` figure uses (oversample 3, crowd 20%).
    pub fn new(pattern: FirehosePattern, scenario: ScenarioConfig) -> Self {
        Self {
            pattern,
            oversample: 3,
            crowd_frac: 0.2,
            scenario,
        }
    }
}

/// One tick's two views; see the module docs.
pub struct FirehoseTick<'a> {
    /// Every report in submission order (intermediates before finals,
    /// interleaved across entities).
    pub raw: &'a [UpdateEvent],
    /// The base scenario's one-event-per-entity batch.
    pub effective: &'a UpdateBatch,
}

/// An oversampling event-stream generator over a base [`Scenario`].
pub struct Firehose {
    scenario: Scenario,
    cfg: FirehoseConfig,
    rng: StdRng,
    raw: Vec<UpdateEvent>,
    effective: UpdateBatch,
}

impl Firehose {
    /// Builds the base scenario from `cfg.scenario` and the oversampler
    /// around it. The redundancy RNG is derived from the scenario seed,
    /// so equal configs produce byte-identical raw streams.
    pub fn new(net: Arc<RoadNetwork>, cfg: FirehoseConfig) -> Self {
        let scenario = Scenario::new(net, cfg.scenario.clone());
        let rng = StdRng::seed_from_u64(cfg.scenario.seed ^ 0xF1FE_05E5);
        Self {
            scenario,
            cfg,
            rng,
            raw: Vec::new(),
            effective: UpdateBatch::default(),
        }
    }

    /// The base scenario (network, config, initial placements).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Installs the initial population into `monitor` (delegates to
    /// [`Scenario::install_into`]).
    pub fn install_into(&self, monitor: &mut dyn ContinuousMonitor) {
        self.scenario.install_into(monitor);
    }

    /// Advances the simulation one timestamp and returns both views of
    /// the tick. The borrows end when the caller is done submitting.
    pub fn tick(&mut self) -> FirehoseTick<'_> {
        self.effective = self.scenario.tick();
        self.build_raw();
        FirehoseTick {
            raw: &self.raw,
            effective: &self.effective,
        }
    }

    /// Fabricates the raw stream for the current effective batch:
    /// per-entity intermediate fixes first (round-robin across entities,
    /// so lanes and the ticket merge are genuinely exercised), then
    /// every entity's final report in batch order.
    fn build_raw(&mut self) {
        self.raw.clear();
        let over = self.cfg.oversample;
        // Per-plane oversampling rounds for this pattern.
        let (obj_rounds, qry_rounds, edge_rounds) = match self.cfg.pattern {
            FirehosePattern::FlashCrowd => (over.max(1) * 2, 0, 0),
            FirehosePattern::CommuteWave => (over, over, 0),
            FirehosePattern::IncidentResponse => (1, 1, over.max(1)),
        };
        let crowd = matches!(self.cfg.pattern, FirehosePattern::FlashCrowd);
        for round in 0..obj_rounds.max(qry_rounds).max(edge_rounds) {
            if round < obj_rounds {
                for ev in &self.effective.objects {
                    let &ObjectEvent::Move { id, to } = ev else {
                        continue;
                    };
                    // Crowd membership is a deterministic function of the
                    // entity id, so a crowd member bursts every tick.
                    if crowd && !in_crowd(id.0, self.cfg.crowd_frac) {
                        continue;
                    }
                    let fix = jitter(&mut self.rng, to);
                    self.raw.push(UpdateEvent::move_object(id, fix));
                }
            }
            if round < qry_rounds {
                for ev in &self.effective.queries {
                    let &QueryEvent::Move { id, to } = ev else {
                        continue;
                    };
                    let fix = jitter(&mut self.rng, to);
                    self.raw.push(UpdateEvent::move_query(id, fix));
                }
            }
            if round < edge_rounds {
                for ev in &self.effective.edges {
                    // Oscillating sensor readings around the final weight.
                    let noisy = ev.new_weight * self.rng.random_range(0.9..1.1);
                    self.raw.push(UpdateEvent::edge(ev.edge, noisy));
                }
            }
        }
        // Final (authoritative) reports, in effective-batch order.
        for ev in &self.effective.edges {
            self.raw.push(UpdateEvent::Edge(*ev));
        }
        for ev in &self.effective.objects {
            self.raw.push(UpdateEvent::Object(*ev));
        }
        for ev in &self.effective.queries {
            self.raw.push(UpdateEvent::Query(*ev));
        }
    }
}

/// Deterministic crowd membership: a cheap id hash against the fraction.
fn in_crowd(id: u32, frac: f64) -> bool {
    let h = (id as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
    (h as f64) < frac * (1u64 << 24) as f64
}

/// An intermediate fix *near* the final position: same edge, jittered
/// fraction. Harmless even if processed un-coalesced.
fn jitter(rng: &mut StdRng, to: NetPoint) -> NetPoint {
    NetPoint::new(
        to.edge,
        (to.frac + rng.random_range(-0.1..0.1)).clamp(0.0, 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::scenario::MovementModel;
    use rnn_roadnet::generators::{grid_city, GridCityConfig};

    fn cfg(pattern: FirehosePattern) -> FirehoseConfig {
        FirehoseConfig::new(
            pattern,
            ScenarioConfig {
                num_objects: 60,
                num_queries: 8,
                k: 3,
                object_distribution: Distribution::Uniform,
                query_distribution: Distribution::Uniform,
                edge_agility: 0.05,
                object_agility: 0.5,
                query_agility: 0.5,
                object_speed: 1.0,
                query_speed: 1.0,
                movement: MovementModel::RandomWalk,
                hotspot: None,
                seed: 9,
            },
        )
    }

    fn net() -> Arc<RoadNetwork> {
        Arc::new(grid_city(&GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 2,
            ..Default::default()
        }))
    }

    #[test]
    fn raw_stream_ends_with_every_effective_event() {
        let mut fh = Firehose::new(net(), cfg(FirehosePattern::CommuteWave));
        let t = fh.tick();
        let total = t.effective.edges.len() + t.effective.objects.len() + t.effective.queries.len();
        assert!(t.raw.len() > total, "commute wave must oversample");
        // The tail of the raw stream is exactly the effective batch.
        let tail = &t.raw[t.raw.len() - total..];
        let mut rebuilt = UpdateBatch::default();
        for &e in tail {
            rebuilt.push(e);
        }
        assert_eq!(&rebuilt, t.effective);
    }

    #[test]
    fn flash_crowd_bursts_only_the_crowd() {
        let mut fh = Firehose::new(net(), cfg(FirehosePattern::FlashCrowd));
        let t = fh.tick();
        let finals = t.effective.objects.len();
        let raw_objects = t
            .raw
            .iter()
            .filter(|e| matches!(e, UpdateEvent::Object(_)))
            .count();
        assert!(raw_objects > finals, "crowd members must burst");
        assert!(
            raw_objects < finals * 7,
            "non-crowd objects must not burst (got {raw_objects} raw for {finals} finals)"
        );
    }

    #[test]
    fn incident_response_oversamples_the_edge_plane() {
        let mut fh = Firehose::new(net(), cfg(FirehosePattern::IncidentResponse));
        let t = fh.tick();
        let edge_finals = t.effective.edges.len();
        let raw_edges = t
            .raw
            .iter()
            .filter(|e| matches!(e, UpdateEvent::Edge(_)))
            .count();
        assert!(edge_finals > 0, "seed must produce edge updates");
        assert_eq!(raw_edges, edge_finals * (1 + 3), "3 noisy + 1 final each");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = Firehose::new(net(), cfg(FirehosePattern::CommuteWave));
        let mut b = Firehose::new(net(), cfg(FirehosePattern::CommuteWave));
        for _ in 0..3 {
            let ta_raw: Vec<UpdateEvent> = a.tick().raw.to_vec();
            let tb_raw: Vec<UpdateEvent> = b.tick().raw.to_vec();
            assert_eq!(ta_raw, tb_raw);
        }
    }
}
