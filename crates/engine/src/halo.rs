//! Halo replication: which foreign edges each shard must see, and keeping
//! every object's replica set in step with that.
//!
//! Owns the per-shard radii `halo_r`, the halo edge sets `halo_edges` and
//! bit `s` of every `edge_mask` entry for the edges shard `s` does not
//! own. The invariant it maintains: `edge_mask[e] = owner bit | { s : e ∈
//! halo_edges[s] }`, and once `ShardedEngine::resync_changed` has run over
//! the edges whose membership toggled, every resident object is held by
//! exactly the shards of its edge's mask. Nothing is stored per object: a
//! pass that flips a bit of an edge's mask notes the mask the edge entered
//! the pass with, and the resync ships the difference to the edge's
//! residents. Callers: `tick` (weights moved), `reconcile` (demand grew),
//! `maybe_shrink_halos` (demand fell) and [`crate::rebalance`]'s hand-off
//! tail (a border moved).
//!
//! ## Halo correctness argument
//!
//! A query `q` in shard `s` with result radius `d = kNN_dist(q)` only
//! inspects network points within distance `d` of `q` — at most `d`, not
//! below it: an object at exactly `d` may tie with the k-th and precede it
//! by id. Any such point `p` outside region `s` is reached by a path that
//! exits the region through a boundary node `b`, so `dist(b, p) ≤ d`. Hence if shard `s` additionally
//! sees every object within distance `r_s ≥ max_q kNN_dist(q)` of its
//! boundary (the *halo*), the monitor's candidate set contains every true
//! neighbor of every owned query, and its answers equal a single global
//! monitor's.
//!
//! `kNN_dist` is only known *after* computing results, so the engine closes
//! the loop iteratively (`reconcile`): tick the shards, read back each
//! query's `kNN_dist`, and where it exceeds the shard's current halo
//! radius, grow the halo, ship the newly visible objects in, and tick
//! again. Adding objects can only *shrink* `kNN_dist`, so the needed
//! radius is non-increasing and the loop terminates — in steady state it
//! converges immediately and the extra rounds are rare. Every round walks
//! the query registry for the per-shard demand (the largest `kNN_dist`
//! homed on each shard).
//!
//! Underfull queries (`kNN_dist = ∞`, fewer than `k` objects visible) need
//! the whole reachable network; their demand is capped at a finite
//! **diameter bound** (the sum of current edge weights, which no simple
//! shortest path can exceed — [`rnn_roadnet::EdgeWeights::total`]), so halo
//! radii stay finite and comparable.
//!
//! ## One derivation of membership
//!
//! A halo's edge set is always what `ShardedEngine::recompute_halo`
//! derives at the shard's current radius: the foreign edges incident to a
//! node within `halo_r[s]` of the shard's boundary, found by one bounded
//! multi-source Dijkstra from the boundary nodes under the current
//! weights. Growth, a weight change, a moved border and a shrink all set
//! the radius and recompute; nothing else decides membership. A shrink by
//! recompute admits exactly the edges that dropping the outer annulus
//! would keep: an edge is a member at radius `r` iff one of its endpoints
//! settles within `r`, and below the old radius the bounded search
//! settles the same nodes at the same distances — weights and borders
//! cannot have moved since the last recompute, because any change to
//! either recomputes first. At paper scale all of the halo upkeep
//! (recomputes, shrinks and the registry walks) measured 0.7 %
//! (`paper-engine`) and 1.1 % (`churn-engine`) of the engine's tick time
//! over the first 400 ticks, population included — about 0.1 and 0.25 ms
//! a tick on a 2-vCPU x86-64 host — so no structure is kept to make a
//! shrink or a demand fold cheaper.
//!
//! ## Replica lifecycle: grow, shrink, evict
//!
//! Halos *grow* eagerly (any tick where a query's `kNN_dist` exceeds its
//! shard's radius, correctness demands it) and *shrink* lazily: each tick
//! the engine re-derives every shard's needed radius, and when the current
//! radius has stayed above `needed × (1 + HALO_SLACK) × SHRINK_TRIGGER`
//! (1.5) for `SHRINK_TICKS` (2) consecutive ticks, it decays to `needed ×
//! (1 + HALO_SLACK)` and the replicas beyond it are **evicted**. Shrinking
//! never changes answers: evicted objects lie farther from the boundary
//! than every owned query's `kNN_dist`, so they cannot appear in any
//! result. The hysteresis (trigger ratio + tick count) prevents
//! grow/shrink flapping when `kNN_dist` oscillates.
//!
//! ## Incremental replica maintenance
//!
//! Replica membership is a pure function of each object's edge: bit `s` of
//! the engine's per-edge visibility mask says whether shard `s` must see
//! objects on that edge. When a halo is rebuilt, only the edges whose
//! membership actually *toggled* can invalidate an object's replica set, so
//! the engine re-derives masks only for the objects resident on those
//! edges — found through an [`rnn_roadnet::EdgeObjectIndex`] maintained on
//! every routed object event — instead of rescanning all `N` objects. The
//! work is O(objects on changed edges), observable through the
//! `resync_touched` counter.

use rnn_core::{ObjectEvent, OpCounters};
use rnn_roadnet::{DijkstraEngine, EdgeId, FxHashMap, FxHashSet};

use crate::engine::{ShardBits, ShardedEngine};
use crate::protocol::{BatchKind, ShardLink};

/// Relative slack added when a halo grows: the new radius is `needed × (1 +
/// HALO_SLACK)`. More slack means fewer halo rebuilds when `kNN_dist`
/// drifts upward, at the cost of more replicas.
pub(crate) const HALO_SLACK: f64 = 0.25;

/// Shrink hysteresis: a halo whose radius exceeds `needed × (1 +
/// HALO_SLACK) × SHRINK_TRIGGER` for `SHRINK_TICKS` consecutive ticks
/// shrinks and evicts its stale replicas.
const SHRINK_TRIGGER: f64 = 1.5;
const SHRINK_TICKS: u32 = 2;

impl<L: ShardLink> ShardedEngine<L> {
    /// Current halo radius of shard `s`, `−∞` while it needs no halo.
    pub fn halo_radius(&self, s: usize) -> f64 {
        self.halo_r[s]
    }

    /// Total number of object replicas currently shipped to non-owner
    /// shards (a measure of the replication overhead).
    pub fn replica_count(&self) -> usize {
        let replicas = |e: EdgeId| self.edge_mask[e.index()].count_ones() as usize - 1;
        let on = |e| self.edge_obj.objects_on(e).len();
        self.net.edge_ids().map(|e| on(e) * replicas(e)).sum()
    }

    /// Lifetime count of objects examined by replica resync (distinct per
    /// tick). Proves the O(changed-edges) claim: a halo rebuild visits only the
    /// residents of the edges whose membership toggled, not the whole
    /// object table, so a single tick can never reach the object count.
    pub fn resync_touched(&self) -> u64 {
        self.router_total.resync_touched
    }

    /// Lifetime count of replicas evicted by halo shrink or halo-membership
    /// loss.
    pub fn replica_evictions(&self) -> u64 {
        self.router_total.replica_evictions
    }

    /// Recomputes shard `s`'s halo edge set at its radius under the
    /// current weights ([`Self::halo_members`]), noting every edge whose
    /// membership toggled in `changed`. The only code that decides which
    /// edges a halo holds. A shard at a negative radius has an empty halo
    /// before and after, so calling this for it is free.
    pub(crate) fn recompute_halo(&mut self, s: usize, changed: &mut FxHashMap<EdgeId, u64>) {
        let mut fresh = std::mem::take(&mut self.halo_fresh);
        let mut dijkstra = std::mem::take(&mut self.scratch);
        self.halo_members(s, &mut dijkstra, &mut fresh);
        self.scratch = dijkstra;
        self.replace_halo(s, &mut fresh, changed);
        self.halo_fresh = fresh;
    }

    /// Fills `out` with shard `s`'s halo at radius `halo_r[s]`: every edge
    /// the shard does not own that is incident to a node within that
    /// radius of the shard's boundary, found by a bounded multi-source
    /// Dijkstra from the boundary nodes on `dijkstra`. Radius zero gives
    /// the foreign edges at the boundary nodes, a negative radius (no
    /// demand) an empty halo.
    pub(crate) fn halo_members(
        &self,
        s: usize,
        dijkstra: &mut DijkstraEngine,
        out: &mut FxHashSet<EdgeId>,
    ) {
        out.clear();
        let (r, boundary) = (self.halo_r[s], &self.partition.view(s).boundary_nodes);
        if r < 0.0 || boundary.is_empty() {
            return;
        }
        dijkstra.begin();
        for &b in boundary {
            dijkstra.seed(b, 0.0, None);
        }
        while let Some((n, d)) = dijkstra.pop_settle() {
            if d > r {
                break;
            }
            for &(e, m) in self.net.adjacent(n) {
                if self.partition.shard_of_edge(e) != s as u32 {
                    out.insert(e);
                }
                let nd = d + self.weights.get(e);
                if nd <= r {
                    dijkstra.relax(m, n, nd);
                }
            }
        }
    }

    /// Installs `fresh` as shard `s`'s halo membership, flipping bit `s` of
    /// every toggled edge's visibility mask and recording the edge, with
    /// the mask it had, in `changed` (the first record of a pass stands).
    /// An empty `fresh` clears the halo. The replaced membership comes back
    /// in `fresh`.
    pub(crate) fn replace_halo(
        &mut self,
        s: usize,
        fresh: &mut FxHashSet<EdgeId>,
        changed: &mut FxHashMap<EdgeId, u64>,
    ) {
        let halo = &mut self.halo_edges[s];
        for &e in halo.symmetric_difference(fresh) {
            let mask = &mut self.edge_mask[e.index()];
            changed.entry(e).or_insert(*mask);
            *mask ^= 1u64 << s;
        }
        std::mem::swap(halo, fresh);
    }

    /// Diffs every *changed* edge's mask against the one it entered the
    /// pass with and queues insert/delete events for the difference to
    /// every object resident on it (via the edge→object index).
    /// O(objects on changed edges) — the whole point of this subsystem;
    /// see the module docs.
    pub(crate) fn resync_changed(&mut self, changed: &FxHashMap<EdgeId, u64>) {
        let mut touched = 0u64;
        let mut evicted = 0u64;
        for (&e, &before) in changed {
            let desired = self.edge_mask[e.index()];
            let (added, removed) = (desired & !before, before & !desired);
            for &id in self.edge_obj.objects_on(e) {
                // An edge can toggle out of and back into halos within one
                // tick (e.g. a weight change followed by reconcile growth);
                // count each object once per cycle so the counter stays a
                // faithful "fraction of N examined" measure.
                if self.resync_seen.insert(id) {
                    touched += 1;
                }
                let at = self.objects[id.index()];
                debug_assert_eq!(at.edge, e, "index bucket out of sync");
                for s in ShardBits(added) {
                    self.pending[s].objects.push(ObjectEvent::Insert { id, at });
                }
                for s in ShardBits(removed) {
                    self.pending[s].objects.push(ObjectEvent::Delete { id });
                }
                evicted += u64::from(removed.count_ones());
            }
        }
        self.count(OpCounters {
            resync_touched: touched,
            replica_evictions: evicted,
            ..OpCounters::default()
        });
    }

    /// The lazy half of the replica lifecycle: when a shard's halo radius
    /// has exceeded its demand (with slack and `SHRINK_TRIGGER`) for
    /// `SHRINK_TICKS` consecutive ticks, decay it to the demanded radius
    /// and recompute the halo there, evicting the replicas beyond it. Safe
    /// by the same argument as growth, in reverse: everything evicted is
    /// farther from the boundary than every owned query's `kNN_dist`.
    /// Reads the per-shard demand the tick's `reconcile` left in
    /// `self.demand`.
    pub(crate) fn maybe_shrink_halos(&mut self) {
        let slack = 1.0 + HALO_SLACK;
        let shrunk = self.halo_pass(|eng, toggled| {
            for s in 0..eng.cfg.num_shards {
                let target = eng.demand[s] * slack;
                if eng.halo_r[s] > target * SHRINK_TRIGGER {
                    eng.shrink_streak[s] += 1;
                    if eng.shrink_streak[s] >= SHRINK_TICKS {
                        eng.halo_r[s] = target;
                        eng.recompute_halo(s, toggled);
                        eng.shrink_streak[s] = 0;
                    }
                } else {
                    eng.shrink_streak[s] = 0;
                }
            }
        });
        if shrunk {
            self.dispatch_pending(BatchKind::Resync);
        }
    }

    /// One halo pass in the reused edge map: `pass` records the edges whose
    /// membership it toggled, and their residents are resynced. Returns
    /// whether any edge toggled.
    pub(crate) fn halo_pass(
        &mut self,
        pass: impl FnOnce(&mut Self, &mut FxHashMap<EdgeId, u64>),
    ) -> bool {
        let mut toggled = std::mem::take(&mut self.toggled_edges);
        toggled.clear();
        pass(self, &mut toggled);
        let any = !toggled.is_empty();
        self.resync_changed(&toggled);
        self.toggled_edges = toggled;
        any
    }

    /// The registry walk: `demand[s]` becomes the largest `kNN_dist` among
    /// all of shard `s`'s queries, underfull (∞) demand capped at the
    /// diameter bound under the current weights: no shortest path exceeds
    /// the (exact) sum of all edge weights, since it is simple. A shard
    /// without queries demands `−∞`, no halo at all; a demand of zero (k
    /// objects at a query's very position) still needs the foreign edges
    /// at the boundary, where an object may tie with the k-th.
    pub(crate) fn fold_demand(&mut self) {
        self.demand.fill(f64::NEG_INFINITY);
        for rec in self.queries.values() {
            let s = rec.shard as usize;
            self.demand[s] = self.demand[s].max(rec.knn_dist);
        }
        for n in self.demand.iter_mut().filter(|n| **n == f64::INFINITY) {
            *n = self.weights.total();
        }
    }

    /// What `reconcile` promises (checked in debug builds): every shard's
    /// radius covers the demand of every query homed on it.
    pub(crate) fn demand_is_covered(&self) -> bool {
        (0..self.cfg.num_shards).all(|s| self.halo_r[s] >= self.demand[s])
    }
}

#[cfg(test)]
mod tests {
    use rnn_core::{
        ContinuousMonitor, EdgeWeightUpdate, Gma, QueryEvent, UpdateBatch, UpdateEvent,
    };
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId, QueryId};

    use super::{HALO_SLACK, SHRINK_TICKS};
    use crate::engine::tests::{assert_same_answers, engine, net};

    #[test]
    fn halo_grows_to_cover_results() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..6u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 11) % n), 0.3),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(1),
            4,
            NetPoint::new(EdgeId(2), 0.1),
        ));
        let q = &eng.queries[&QueryId(1)];
        let s = q.shard as usize;
        assert!(
            eng.halo_radius(s) >= q.knn_dist || q.knn_dist == 0.0,
            "halo {} < kNN_dist {}",
            eng.halo_radius(s),
            q.knn_dist
        );
    }

    #[test]
    fn resync_touches_fewer_objects_than_total() {
        // Dense objects keep kNN_dist (and thus the halo) small, so a halo
        // grow event must resync only the residents of the few edges that
        // joined — strictly fewer than the object total. The query sits on
        // a shard-boundary edge so the grown halo is guaranteed to reach
        // across the border.
        let mut eng = engine(4);
        let n = eng.net.num_edges();
        for (i, e) in (0..n).enumerate() {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i as u32),
                NetPoint::new(EdgeId(e as u32), 0.5),
            ));
        }
        assert_eq!(eng.resync_touched(), 0, "no halo yet, no resync");
        let border = eng
            .net
            .edge_ids()
            .find(|&e| {
                let s = eng.partition.shard_of_edge(e);
                let rec = eng.net.edge(e);
                [rec.start, rec.end].into_iter().any(|node| {
                    eng.net
                        .adjacent(node)
                        .iter()
                        .any(|&(e2, _)| eng.partition.shard_of_edge(e2) != s)
                })
            })
            .expect("a 4-way split has boundary edges");
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            4,
            NetPoint::new(border, 0.5),
        ));
        let touched = eng.resync_touched();
        assert!(touched > 0, "halo growth must resync the edges that joined");
        assert!(
            touched < n as u64,
            "resync touched {touched} of {n} objects — not incremental"
        );
        eng.validate_replication().unwrap();

        // Same claim on a *tick* where a shard's halo grows: widening the
        // query (k 4 → 12) forces growth, and the tick's own counters must
        // show a resync strictly smaller than the object total.
        let radius_before = eng.halo_radius(eng.queries[&QueryId(0)].shard as usize);
        let mut batch = UpdateBatch::default();
        batch.queries.push(QueryEvent::Install {
            id: QueryId(0),
            k: 12,
            at: NetPoint::new(border, 0.5),
        });
        let rep = eng.tick(&batch);
        assert!(
            eng.halo_radius(eng.queries[&QueryId(0)].shard as usize) > radius_before,
            "k=12 must widen the halo"
        );
        assert!(rep.counters.resync_touched > 0);
        assert!(
            rep.counters.resync_touched < n as u64,
            "grow tick resynced {} of {n} objects — not incremental",
            rep.counters.resync_touched
        );
        eng.validate_replication().unwrap();
    }

    /// k objects at a query's very position make its `kNN_dist` zero,
    /// yet an object at that spot on a foreign edge ties with them: a
    /// query on a boundary node needs the foreign edges there, at radius
    /// zero, to see the one with the smallest id.
    #[test]
    fn a_zero_knn_dist_still_sees_the_border() {
        let mut eng = engine(2);
        let b = eng.partition.view(0).boundary_nodes[0];
        let owner = |e: EdgeId| eng.partition.shard_of_edge(e);
        let at_b = |e: EdgeId| NetPoint::new(e, if eng.net.edge(e).start == b { 0.0 } else { 1.0 });
        let edges = eng.net.adjacent(b);
        let own = edges.iter().find(|&&(e, _)| owner(e) == 0).unwrap().0;
        let foreign = edges.iter().find(|&&(e, _)| owner(e) != 0).unwrap().0;
        let (mine, theirs) = (at_b(own), at_b(foreign));
        eng.apply(UpdateEvent::insert_object(ObjectId(5), mine));
        eng.apply(UpdateEvent::insert_object(ObjectId(1), theirs));
        eng.apply(UpdateEvent::install_query(QueryId(0), 1, mine));
        let q = &eng.queries[&QueryId(0)];
        assert_eq!((q.shard, q.knn_dist), (0, 0.0));
        assert_eq!(eng.result(QueryId(0)).unwrap()[0].object, ObjectId(1));
        eng.validate_replication().unwrap();
    }

    #[test]
    fn halo_shrinks_and_evicts_after_query_removal() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..40u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            8,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        assert!(eng.replica_count() > 0, "k=8 must replicate across borders");
        eng.apply(UpdateEvent::remove_query(QueryId(0)));
        // Demand is gone; the hysteresis lets the halo decay within
        // SHRINK_TICKS quiet ticks.
        for _ in 0..SHRINK_TICKS + 1 {
            eng.tick(&UpdateBatch::default());
        }
        for s in 0..eng.num_shards() {
            assert!(eng.halo_radius(s) < 0.0, "shard {s} halo did not decay");
        }
        assert_eq!(eng.replica_count(), 0, "stale replicas were not evicted");
        assert!(eng.replica_evictions() > 0);
        eng.validate_replication().unwrap();
    }

    #[test]
    fn underfull_demand_is_capped_at_diameter_bound() {
        // k exceeds the object count: kNN_dist stays ∞, which used to pin
        // halo_r at ∞ permanently. It must cap at the finite diameter bound
        // of the current weights (and still see every object): doubling
        // every weight doubles the bound past the radius, and the halo
        // must grow to the new cap.
        let mut eng = engine(4);
        let mut twin = Gma::new(net());
        let mut events = (0..3u32)
            .map(|i| UpdateEvent::insert_object(ObjectId(i), NetPoint::new(EdgeId(i * 13), 0.5)))
            .collect::<Vec<_>>();
        events.push(UpdateEvent::install_query(
            QueryId(0),
            10,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        for ev in events {
            eng.apply(ev);
            twin.apply(ev);
        }
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
        assert_eq!(eng.knn_dist(QueryId(0)).unwrap(), f64::INFINITY);
        let s = eng.queries[&QueryId(0)].shard as usize;
        let before = eng.halo_radius(s);
        assert_eq!(before, eng.weights.total() * (1.0 + HALO_SLACK));
        let mut batch = UpdateBatch::default();
        for e in eng.net.edge_ids() {
            let new_weight = 2.0 * eng.weights.get(e);
            batch.edges.push(EdgeWeightUpdate {
                edge: e,
                new_weight,
            });
        }
        eng.tick(&batch);
        twin.tick(&batch);
        assert!(eng.weights.total() > before);
        assert_eq!(eng.halo_radius(s), eng.weights.total() * (1.0 + HALO_SLACK));
        assert_eq!(eng.knn_dist(QueryId(0)).unwrap(), f64::INFINITY);
        assert_same_answers(&twin, &eng, "after doubling every weight");
        eng.validate_replication().unwrap();
    }

    #[test]
    fn stable_ticks_do_no_resync() {
        let mut eng = engine(4);
        let n = eng.net.num_edges() as u32;
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId((i * 3) % n), 0.4),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            4,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        // Let any post-install shrink settle first.
        for _ in 0..SHRINK_TICKS + 1 {
            eng.tick(&UpdateBatch::default());
        }
        let before = eng.resync_touched();
        let rep = eng.tick(&UpdateBatch::default());
        assert_eq!(
            eng.resync_touched(),
            before,
            "halo-stable tick must not resync anything"
        );
        assert_eq!(rep.counters.resync_touched, 0);
    }
}
