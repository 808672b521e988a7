//! Engine configuration.

use std::sync::Arc;

use rnn_core::{ContinuousMonitor, Gma, Ima, Ovh};
use rnn_roadnet::RoadNetwork;

use crate::engine::EngineError;
use crate::ingest::{IngestConfig, IngestHub};

/// Which of the paper's monitors runs inside each shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardAlgo {
    /// From-scratch baseline (§6).
    Ovh,
    /// Incremental monitoring (§4).
    Ima,
    /// Group monitoring (§5) — the default.
    Gma,
}

/// The per-shard log-replication plane (consumed by the cluster layer;
/// the in-process engine ignores it). The default — `replicas: 0` —
/// disables replication entirely and is bit-identical to earlier
/// releases.
///
/// There is one commit rule and no other knob: an appended event
/// *commits* (becomes eligible for WAL truncation and for feeding the
/// shard monitor) once every follower still live has acked it, and a
/// follower that misses its ack timeout is dead from then on. Losing
/// followers degrades redundancy, not availability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Follower replicas per shard (F). Each holds a copy of the
    /// shard's event log and can be promoted to serving leader when the
    /// shard dies past its retry + recovery budgets. `0` disables
    /// replication.
    pub replicas: u32,
}

impl ReplicationConfig {
    /// Replication with `replicas` followers.
    pub fn with_replicas(replicas: u32) -> Self {
        Self { replicas }
    }
}

/// Tuning knobs of the sharded engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards (= worker threads), 1 ..= 64.
    /// [`crate::ShardedEngine::new`] panics on anything outside that range
    /// (shard visibility is tracked in a 64-bit mask per edge).
    pub num_shards: usize,
    /// The monitor each shard runs.
    pub algo: ShardAlgo,
    /// Shrink hysteresis threshold (≥ 1). A shard's halo grows to
    /// `needed × 1.25` (the 25% slack is a constant, `halo::HALO_SLACK`)
    /// and is considered oversized when its radius exceeds `needed × 1.25 ×
    /// halo_shrink_trigger`; values `< 1` are treated as 1 (shrink on any
    /// decrease). Larger values tolerate more stale replication before
    /// paying a halo rebuild.
    pub halo_shrink_trigger: f64,
    /// Number of *consecutive* ticks a halo must stay oversized before it
    /// is shrunk and its stale replicas evicted. Guards against
    /// grow/shrink flapping when `kNN_dist` oscillates tick to tick.
    pub halo_shrink_ticks: u32,
    /// Load-imbalance ratio that triggers a shard rebalance: when the
    /// smoothed per-shard load estimate (worker `expansion_steps` plus
    /// routed events, exponentially averaged over ticks) satisfies
    /// `max > mean × rebalance_trigger`, boundary cells migrate from the
    /// most loaded shard to an underloaded neighbour. Values below 1
    /// **disable** rebalancing (the default, 0.0): shard assignment then
    /// stays fixed at the startup partition and every work counter is
    /// bit-identical to earlier releases.
    pub rebalance_trigger: f64,
    /// Minimum number of ticks between rebalances (and before the first
    /// one). Together with the exponential load smoothing this is the
    /// detector's hysteresis: a hotspot must persist, and a migration must
    /// settle, before cells move again.
    pub rebalance_cooldown: u32,
    /// The out-of-band ingest stage in front of the tick loop: lane
    /// count, per-lane bound, and admission policy (see
    /// [`crate::ingest`]). The default (4 lanes × 4096 events,
    /// `Block`) costs nothing unless [`crate::ShardedEngine::ingest_handle`]
    /// is actually used.
    pub ingest: IngestConfig,
    /// The per-shard replicated-journal plane (see
    /// [`ReplicationConfig`]). Only the cluster layer consumes it; the
    /// in-process engine ignores it entirely. Disabled by default.
    pub replication: ReplicationConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            algo: ShardAlgo::Gma,
            halo_shrink_trigger: 1.5,
            halo_shrink_ticks: 2,
            rebalance_trigger: 0.0,
            rebalance_cooldown: 8,
            ingest: IngestConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with `num_shards` shards and defaults otherwise.
    pub fn with_shards(num_shards: usize) -> Self {
        Self {
            num_shards,
            ..Self::default()
        }
    }

    /// A config with `num_shards` shards and dynamic load-aware
    /// rebalancing enabled at moderate hysteresis (trigger 1.25×,
    /// cooldown 4 ticks), defaults otherwise. This is the configuration
    /// the benchmark harness runs as `ENG-n-RB`.
    pub fn with_rebalancing(num_shards: usize) -> Self {
        Self {
            num_shards,
            rebalance_trigger: 1.25,
            rebalance_cooldown: 4,
            ..Self::default()
        }
    }

    /// Whether shard monitors must attribute per-tick load to partition
    /// cells. The charge hand-off only feeds the rebalance planner, so it
    /// is skipped entirely when rebalancing is disabled or there is
    /// nothing to migrate between.
    pub fn attribute_cells(&self) -> bool {
        self.rebalance_trigger >= 1.0 && self.num_shards >= 2
    }

    /// Instantiates one shard monitor per this config.
    pub fn make_monitor(&self, net: Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor> {
        match self.algo {
            ShardAlgo::Ovh => Box::new(Ovh::new(net)),
            ShardAlgo::Ima => Box::new(Ima::new(net)),
            ShardAlgo::Gma => Box::new(Gma::new(net)),
        }
    }

    /// Validates every knob, returning the first violation as a typed
    /// [`EngineError`]. The engine constructors call this themselves, so a
    /// struct literal can never smuggle a NaN ratio or a zero capacity past
    /// them; call it directly to vet a config built from user input before
    /// anything is spawned.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !(1..=64).contains(&self.num_shards) {
            return Err(EngineError::InvalidShardCount {
                got: self.num_shards,
            });
        }
        let finite_ratio = |field: &'static str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(EngineError::InvalidKnob {
                    field,
                    requirement: "a finite, non-negative ratio",
                })
            }
        };
        finite_ratio("halo_shrink_trigger", self.halo_shrink_trigger)?;
        finite_ratio("rebalance_trigger", self.rebalance_trigger)?;
        if !(1..=IngestHub::MAX_LANES).contains(&self.ingest.lanes) {
            return Err(EngineError::InvalidKnob {
                field: "ingest.lanes",
                requirement: "in 1..=64 (the merge scans lanes linearly)",
            });
        }
        if self.ingest.capacity == 0 {
            return Err(EngineError::InvalidKnob {
                field: "ingest.capacity",
                requirement: "at least 1 event per lane",
            });
        }
        Ok(())
    }
}
