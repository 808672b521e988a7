//! Engine configuration.

use std::sync::Arc;

use rnn_core::{ContinuousMonitor, Gma, Ima, Ovh};
use rnn_roadnet::RoadNetwork;

use crate::engine::EngineError;
use crate::ingest::IngestConfig;

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

/// What can be set on the sharded engine: six values, counting the fields
/// of [`IngestConfig`] and [`ReplicationConfig`]. The halo-shrink and
/// rebalance hysteresis are constants in `halo.rs` and `rebalance.rs`,
/// because no caller ever ran other values.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards (= worker threads), 1 ..= 64.
    /// [`crate::ShardedEngine::new`] panics on anything outside that range
    /// (shard visibility is tracked in a 64-bit mask per edge).
    pub num_shards: usize,
    /// The monitor each shard runs.
    pub algo: ShardAlgo,
    /// Load-aware rebalancing: when the smoothed per-shard load (routed
    /// events plus worker `expansion_steps`) puts one shard above 1.25×
    /// the mean, and more than 4 ticks have passed since the last
    /// migration, boundary cells move from it to an underloaded neighbour.
    /// Off by default: the startup partition then stays fixed.
    pub rebalance: bool,
    /// The out-of-band ingest stage in front of the tick loop: its bound
    /// and admission policy (see [`crate::ingest`]). The default (16,384
    /// open windows, `Block`) costs nothing unless
    /// [`crate::ShardedEngine::ingest_handle`] is actually used.
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
            rebalance: false,
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

    /// A config with `num_shards` shards and load-aware rebalancing on,
    /// defaults otherwise. This is the configuration the benchmark harness
    /// runs as `ENG-n-RB` and as the `churn-engine` workload.
    ///
    /// What it buys is small and mixed, so it stays opt-in: on
    /// `churn-engine` (S = 2, 5 alternating pairs against rebalancing off
    /// on one pinned CPU of a 2-vCPU Xeon VM) `tick_p99_ms` fell 79.7 →
    /// 75.0 ms but `tick_p50_ms` rose 60.7 → 63.7 ms.
    pub fn with_rebalancing(num_shards: usize) -> Self {
        Self {
            num_shards,
            rebalance: true,
            ..Self::default()
        }
    }

    /// Instantiates one shard monitor per this config.
    pub fn make_monitor(&self, net: Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor> {
        match self.algo {
            ShardAlgo::Ovh => Box::new(Ovh::new(net)),
            ShardAlgo::Ima => Box::new(Ima::new(net)),
            ShardAlgo::Gma => Box::new(Gma::new(net)),
        }
    }

    /// Validates every setting, returning the first violation as a typed
    /// [`EngineError`]. The engine constructors call this themselves, so a
    /// struct literal can never smuggle a shard count outside 1..=64 or a
    /// zero capacity past them; call it directly to vet a config built from
    /// user input before anything is spawned.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !(1..=64).contains(&self.num_shards) {
            return Err(EngineError::InvalidShardCount {
                got: self.num_shards,
            });
        }
        if self.ingest.capacity == 0 {
            return Err(EngineError::InvalidKnob {
                field: "ingest.capacity",
                requirement: "at least 1 open window",
            });
        }
        Ok(())
    }
}
