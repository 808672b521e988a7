//! Durable monitor-state snapshots.
//!
//! [`MonitorState`] is the answer-relevant state of a continuous monitor,
//! serialized with the [`rnn_roadnet::wire`] discipline so the cluster's
//! durability plane can persist it and ship it over RPC frames: the
//! dynamic edge weights (as diffs against the network's base weights),
//! the object index, and the query book with each query's current result.
//! Expansion trees and influence lists are deliberately **not**
//! serialized — they are a deterministic function of this state and are
//! recomputed on restore (install-time expansion), which keeps snapshots
//! small and the format independent of the tree-pool memory layout.
//!
//! Restore validation: the stored per-query results and `kNN_dist` must
//! equal, with `==`, what the freshly restored monitor computes. Every
//! monitor answers with the k smallest `(dist, id)`, so an answer does
//! not depend on the order objects arrived in (a restore registers them
//! in id order), and every distance is a multiple of the network's
//! distance unit, so a shifted re-rooted tree and a fresh expansion sum
//! to the same bits.
//!
//! A mismatch beyond that means the snapshot does not describe a
//! reachable monitor state (corruption the CRC missed, or a version
//! skew) and restoring fails with a typed error instead of silently
//! serving wrong answers.

use rnn_roadnet::wire::{
    decode_seq, encode_seq, put_f64, put_u64, WireCodec, WireError, WireReader,
};
use rnn_roadnet::{unit, NetPoint, ObjectId, QueryId, RoadNetwork};

use crate::monitor::{load_population, ContinuousMonitor};
use crate::state::NetworkState;
use crate::types::{EdgeWeightUpdate, Neighbor, UpdateBatch};

/// One query's entry in a snapshot: identity, parameters, position, and
/// the current result (used to validate the restore: the answers the
/// restored monitor recomputes must be the recorded ones).
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySnapshotState {
    /// Query id.
    pub id: QueryId,
    /// Number of neighbors monitored.
    pub k: usize,
    /// Current position.
    pub pos: NetPoint,
    /// Current `kNN_dist` (`∞` while underfull).
    pub knn_dist: f64,
    /// Current result, in canonical `(dist, id)` order.
    pub result: Vec<Neighbor>,
}

impl WireCodec for QuerySnapshotState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        put_u64(out, self.k as u64);
        self.pos.encode(out);
        put_f64(out, self.knn_dist);
        encode_seq(&self.result, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QuerySnapshotState {
            id: QueryId::decode(r)?,
            k: r.u64()? as usize,
            pos: NetPoint::decode(r)?,
            knn_dist: r.f64()?,
            result: decode_seq(r)?,
        })
    }
}

/// The answer-relevant state of a continuous monitor at one instant.
///
/// Captured via [`ContinuousMonitor::snapshot_state`], serialized with
/// [`MonitorState::to_bytes`], restored into a **fresh** monitor with
/// [`MonitorState::restore_into`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorState {
    /// Edge weights that differ from the network's base weights, sorted
    /// by edge id. Absolute values, not deltas.
    pub weight_diffs: Vec<EdgeWeightUpdate>,
    /// All registered objects, sorted by id.
    pub objects: Vec<(ObjectId, NetPoint)>,
    /// All registered queries, sorted by id.
    pub queries: Vec<QuerySnapshotState>,
}

/// Why a [`MonitorState::restore_into`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The restored monitor computed a different result than the snapshot
    /// recorded for this query — the snapshot does not describe a
    /// reachable state of this monitor over this network.
    ResultMismatch(QueryId),
    /// The target monitor already holds state; snapshots restore only
    /// into fresh monitors.
    TargetNotFresh,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ResultMismatch(q) => {
                write!(f, "restored result diverges from snapshot for query {q}")
            }
            RestoreError::TargetNotFresh => {
                write!(f, "snapshot restore requires a fresh monitor")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl MonitorState {
    /// Captures the state of `monitor`, whose weights, objects and query
    /// book are `state`; each query's current answer is read through the
    /// monitor's own `knn_dist` / `result` (copied, not recomputed).
    pub fn capture(
        net: &RoadNetwork,
        state: &NetworkState,
        monitor: &dyn ContinuousMonitor,
    ) -> Self {
        let mut weight_diffs = Vec::new();
        for e in net.edge_ids() {
            let w = state.weights.get(e);
            if w != unit(net.edge(e).base_weight) {
                weight_diffs.push(EdgeWeightUpdate {
                    edge: e,
                    new_weight: w,
                });
            }
        }
        // Ascending ids: the index iterates in its table's order.
        let objects: Vec<(ObjectId, NetPoint)> = state.objects.iter().collect();
        let mut queries: Vec<QuerySnapshotState> = state
            .queries
            .iter()
            .map(|(&id, &(k, pos))| QuerySnapshotState {
                id,
                k,
                pos,
                knn_dist: monitor.knn_dist(id).unwrap_or(f64::INFINITY),
                result: monitor.result(id).unwrap_or(&[]).to_vec(),
            })
            .collect();
        queries.sort_by_key(|q| q.id);
        MonitorState {
            weight_diffs,
            objects,
            queries,
        }
    }

    /// Restores this state into a **fresh** monitor: applies the weight
    /// diffs as one edge-update tick, loads every object and then every
    /// query through [`load_population`] (in id order — installation
    /// recomputes results and expansion state from scratch), then
    /// validates each recomputed result against the stored one (see the
    /// module docs). A state that names an id twice is folded as any batch
    /// is — the last entry wins — and then fails or passes that
    /// validation; it cannot panic the monitor.
    pub fn restore_into(&self, monitor: &mut dyn ContinuousMonitor) -> Result<(), RestoreError> {
        if !monitor.query_ids().is_empty() {
            return Err(RestoreError::TargetNotFresh);
        }
        if !self.weight_diffs.is_empty() {
            let batch = UpdateBatch {
                edges: self.weight_diffs.clone(),
                ..UpdateBatch::default()
            };
            monitor.tick(&batch);
        }
        load_population(
            monitor,
            self.objects.iter().copied(),
            self.queries.iter().map(|q| (q.id, q.k, q.pos)),
        );
        for q in &self.queries {
            let got = monitor.result(q.id).unwrap_or(&[]);
            let dist = monitor.knn_dist(q.id).unwrap_or(f64::INFINITY);
            if dist != q.knn_dist || q.result != got {
                return Err(RestoreError::ResultMismatch(q.id));
            }
        }
        Ok(())
    }

    /// Serializes to the wire form (no framing; callers wrap the bytes in
    /// whatever envelope they need — the cluster uses its CRC'd frame).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Deserializes a snapshot produced by [`Self::to_bytes`]. Never
    /// panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let s = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Invalid("trailing bytes after MonitorState"));
        }
        Ok(s)
    }
}

impl WireCodec for MonitorState {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.weight_diffs, out);
        put_u64(out, self.objects.len() as u64);
        for (id, at) in &self.objects {
            id.encode(out);
            at.encode(out);
        }
        encode_seq(&self.queries, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let weight_diffs = decode_seq(r)?;
        let n = r.u64()?;
        if n > r.remaining() as u64 {
            return Err(WireError::Invalid("object count exceeds payload"));
        }
        let mut objects = Vec::with_capacity(n as usize);
        for _ in 0..n {
            objects.push((ObjectId::decode(r)?, NetPoint::decode(r)?));
        }
        Ok(MonitorState {
            weight_diffs,
            objects,
            queries: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UpdateEvent;
    use crate::{Gma, Ima, Ovh};
    use rnn_roadnet::{generators, EdgeId};
    use std::sync::Arc;

    fn net() -> Arc<RoadNetwork> {
        Arc::new(generators::grid_city(&generators::GridCityConfig {
            nx: 6,
            ny: 6,
            seed: 9,
            ..Default::default()
        }))
    }

    fn populate(m: &mut dyn ContinuousMonitor, net: &RoadNetwork) {
        for (i, e) in net.edge_ids().enumerate().step_by(3) {
            m.apply(UpdateEvent::insert_object(
                ObjectId(i as u32),
                NetPoint::new(e, 0.4),
            ));
        }
        for q in 0..6u32 {
            m.apply(UpdateEvent::install_query(
                QueryId(q),
                3,
                NetPoint::new(EdgeId(q * 5), 0.25),
            ));
        }
        // Churn a few ticks so weights diverge from base and results move.
        for t in 0..4u32 {
            let mut batch = UpdateBatch::default();
            batch.edges.push(EdgeWeightUpdate {
                edge: EdgeId(t * 2),
                new_weight: 2.5 + f64::from(t),
            });
            batch.objects.push(crate::types::ObjectEvent::Move {
                id: ObjectId(0),
                to: NetPoint::new(EdgeId(t * 3 + 1), 0.7),
            });
            m.tick(&batch);
        }
    }

    fn round_trip_restores(
        mut orig: Box<dyn ContinuousMonitor>,
        fresh: &mut dyn ContinuousMonitor,
    ) {
        let n = net();
        populate(orig.as_mut(), &n);
        let snap = orig.snapshot_state().expect("monitor must snapshot");
        let decoded = MonitorState::from_bytes(&snap.to_bytes()).expect("round trip");
        assert_eq!(decoded, snap);
        decoded.restore_into(fresh).expect("restore must validate");
        let mut ids = orig.query_ids();
        ids.sort();
        for q in ids {
            assert_eq!(orig.result(q).unwrap(), fresh.result(q).unwrap());
            assert_eq!(
                orig.knn_dist(q).unwrap().to_bits(),
                fresh.knn_dist(q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn ima_snapshot_round_trips() {
        let n = net();
        round_trip_restores(Box::new(Ima::new(n.clone())), &mut Ima::new(n));
    }

    #[test]
    fn gma_snapshot_round_trips() {
        let n = net();
        round_trip_restores(Box::new(Gma::new(n.clone())), &mut Gma::new(n));
    }

    #[test]
    fn ovh_snapshot_round_trips() {
        let n = net();
        round_trip_restores(Box::new(Ovh::new(n.clone())), &mut Ovh::new(n));
    }

    #[test]
    fn restore_preserves_future_tick_behavior() {
        // The recovered monitor must be algorithmically indistinguishable
        // going forward: identical answers AND identical algorithmic work
        // counters on every subsequent tick (the cluster's crash
        // differential relies on this). Only the allocator-history
        // counters ([`OpCounters::algorithmic`] masks them) may differ
        // while the restored monitor's pools warm up.
        let n = net();
        let mut orig = Gma::new(n.clone());
        populate(&mut orig, &n);
        let snap = orig.snapshot_state().unwrap();
        let mut restored = Gma::new(n.clone());
        snap.restore_into(&mut restored).unwrap();
        for t in 0..5u32 {
            let mut batch = UpdateBatch::default();
            batch.edges.push(EdgeWeightUpdate {
                edge: EdgeId(t * 4 + 1),
                new_weight: 1.5,
            });
            batch.objects.push(crate::types::ObjectEvent::Move {
                id: ObjectId(3),
                to: NetPoint::new(EdgeId(t * 5 + 2), 0.3),
            });
            batch.queries.push(crate::types::QueryEvent::Move {
                id: QueryId(1),
                to: NetPoint::new(EdgeId(t * 7 + 3), 0.6),
            });
            let ra = orig.tick(&batch);
            let rb = restored.tick(&batch);
            assert_eq!(
                ra.counters.algorithmic(),
                rb.counters.algorithmic(),
                "tick {t}: algorithmic counters diverge"
            );
            assert_eq!(ra.counters.work(), rb.counters.work(), "tick {t}");
            assert_eq!(ra.results_changed, rb.results_changed, "tick {t}");
            for q in 0..6u32 {
                assert_eq!(orig.result(QueryId(q)), restored.result(QueryId(q)));
            }
        }
    }

    /// Regression: once queries move, weights churn and objects pile up
    /// on nodes, an incrementally maintained monitor must still capture
    /// states a fresh monitor accepts — the same answers, objects at a
    /// tie included (this used to fail with `ResultMismatch` on last-ulp
    /// noise and on tie order).
    fn churned_state_restores(make: &dyn Fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>) {
        let n = Arc::new(generators::grid_city(&generators::GridCityConfig {
            nx: 8,
            ny: 8,
            seed: 5,
            ..Default::default()
        }));
        let edges = n.num_edges() as u32;
        // xorshift64*: a seeded stream with no state shared between tests.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u32| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32) % m
        };
        let point = |next: &mut dyn FnMut(u32) -> u32| {
            NetPoint::new(EdgeId(next(edges)), f64::from(next(100)) / 100.0)
        };
        // Eight node positions that objects pile up on: exact distance
        // ties, decided by id.
        let pile = |next: &mut dyn FnMut(u32) -> u32| {
            NetPoint::new(EdgeId(next(8) * 13 % edges), f64::from(next(2)))
        };
        let mut orig = make(n.clone());
        for o in 0..60u32 {
            let at = if o % 2 == 0 {
                pile(&mut next)
            } else {
                point(&mut next)
            };
            orig.apply(UpdateEvent::insert_object(ObjectId(o), at));
        }
        for q in 0..10u32 {
            orig.apply(UpdateEvent::install_query(QueryId(q), 4, point(&mut next)));
        }
        for t in 1..=30u32 {
            let mut batch = UpdateBatch::default();
            for _ in 0..4 {
                let e = EdgeId(next(edges));
                let scale = 0.7 + f64::from(next(60)) / 100.0;
                batch.edges.push(EdgeWeightUpdate {
                    edge: e,
                    new_weight: n.edge(e).base_weight * scale,
                });
            }
            for _ in 0..3 {
                batch.queries.push(crate::types::QueryEvent::Move {
                    id: QueryId(next(10)),
                    to: point(&mut next),
                });
            }
            for _ in 0..2 {
                batch.objects.push(crate::types::ObjectEvent::Move {
                    id: ObjectId(next(30) * 2),
                    to: pile(&mut next),
                });
            }
            orig.tick(&batch);
            if t % 3 != 0 {
                continue;
            }
            let snap = orig.snapshot_state().expect("monitor must snapshot");
            let decoded = MonitorState::from_bytes(&snap.to_bytes()).expect("round trip");
            decoded
                .restore_into(make(n.clone()).as_mut())
                .unwrap_or_else(|e| panic!("{}, tick {t}: {e}", orig.name()));
        }
    }

    #[test]
    fn gma_restores_after_query_moves_and_weight_churn() {
        churned_state_restores(&|n| Box::new(Gma::new(n)));
    }

    #[test]
    fn ima_restores_after_query_moves_and_weight_churn() {
        churned_state_restores(&|n| Box::new(Ima::new(n)));
    }

    #[test]
    fn restore_rejects_non_fresh_target() {
        let n = net();
        let mut orig = Ima::new(n.clone());
        populate(&mut orig, &n);
        let snap = orig.snapshot_state().unwrap();
        let mut busy = Ima::new(n);
        busy.apply(UpdateEvent::install_query(
            QueryId(99),
            2,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(
            snap.restore_into(&mut busy),
            Err(RestoreError::TargetNotFresh)
        );
    }

    #[test]
    fn restore_rejects_tampered_results() {
        let n = net();
        let mut orig = Ima::new(n.clone());
        populate(&mut orig, &n);
        let mut snap = orig.snapshot_state().unwrap();
        snap.queries[0].knn_dist += 1.0;
        let mut fresh = Ima::new(n);
        assert_eq!(
            snap.restore_into(&mut fresh),
            Err(RestoreError::ResultMismatch(snap.queries[0].id))
        );
    }

    /// A well-formed state that names an id twice (a hostile or buggy
    /// writer; the codec has no uniqueness rule) is folded like any batch:
    /// refused with a typed error or restored to what its last entries
    /// say — never a panic, which in a shard would take the service down.
    #[test]
    fn a_state_that_repeats_an_id_restores_or_is_refused_without_panicking() {
        let n = net();
        let mut orig = Gma::new(n.clone());
        populate(&mut orig, &n);
        let snap = orig.snapshot_state().unwrap();

        let mut twice_the_query = snap.clone();
        let mut again = snap.queries[0].clone();
        again.pos = NetPoint::new(EdgeId(40), 0.5);
        twice_the_query.queries.push(again);
        let mut twice_the_object = snap.clone();
        let (id, _) = snap.objects[0];
        twice_the_object
            .objects
            .push((id, NetPoint::new(EdgeId(41), 0.5)));

        type Make = fn(Arc<RoadNetwork>) -> Box<dyn ContinuousMonitor>;
        let fresh: [Make; 3] = [
            |n| Box::new(Ovh::new(n)),
            |n| Box::new(Ima::new(n)),
            |n| Box::new(Gma::new(n)),
        ];
        for make in fresh {
            for state in [&twice_the_query, &twice_the_object] {
                let mut m = make(n.clone());
                match state.restore_into(m.as_mut()) {
                    Ok(()) => {}
                    Err(RestoreError::ResultMismatch(_)) => {}
                    Err(e) => panic!("{}: {e}", m.name()),
                }
                // Whatever the verdict, the monitor took every entry once
                // and goes on working.
                assert_eq!(m.query_ids().len(), snap.queries.len(), "{}", m.name());
                m.tick(&UpdateBatch::default());
            }
        }
    }

    #[test]
    fn truncated_snapshot_bytes_never_panic() {
        let n = net();
        let mut orig = Gma::new(n.clone());
        populate(&mut orig, &n);
        let bytes = orig.snapshot_state().unwrap().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                MonitorState::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn empty_state_round_trips() {
        let s = MonitorState::default();
        assert_eq!(MonitorState::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
