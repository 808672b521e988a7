//! Halo replication: which foreign edges each shard must see, and keeping
//! every object's replica set in step with that.
//!
//! Owns `HaloRing` (no code outside this module touches a ring's
//! storage), the per-shard radii `halo_r`, and bit `s` of every
//! `edge_mask` entry for the edges shard `s` does not own. The invariant
//! it maintains: `edge_mask[e] = owner bit | { s : e ∈ halo_edges[s] }`,
//! and once `ShardedEngine::resync_changed` has run over the edges whose
//! membership toggled, every resident object is held by exactly the shards
//! of its edge's mask. Nothing is stored per object: a pass that flips a
//! bit of an edge's mask notes the mask the edge entered the pass with,
//! and the resync ships the difference to the edge's residents.
//! Callers: `tick` (weights moved), `reconcile` (demand grew),
//! `maybe_shrink_halos` (demand fell) and
//! [`crate::rebalance`]'s hand-off tail (a border moved).
//!
//! ## Halo correctness argument
//!
//! A query `q` in shard `s` with result radius `d = kNN_dist(q)` only
//! inspects network points within distance `d` of `q`. Any such point `p`
//! outside region `s` is reached by a path that exits the region through a
//! boundary node `b`, so `dist(b, p) ≤ d`. Hence if shard `s` additionally
//! sees every object within distance `r_s ≥ max_q kNN_dist(q)` of its
//! boundary (the *halo*), the monitor's candidate set contains every true
//! neighbor of every owned query, and its answers equal a single global
//! monitor's.
//!
//! `kNN_dist` is only known *after* computing results, so the engine closes
//! the loop iteratively (`reconcile`): tick the shards, read back each
//! query's `kNN_dist`, and where it exceeds the shard's current halo
//! radius, grow the halo (a bounded multi-source Dijkstra from the shard's
//! boundary nodes under the current weights), ship the newly visible
//! objects in, and tick again. Adding objects can only *shrink* `kNN_dist`,
//! so the needed radius is non-increasing and the loop terminates — in
//! steady state it converges immediately and the extra rounds are rare.
//! Halo membership is also refreshed whenever edge weights change, since it
//! is defined in terms of weighted distances.
//!
//! Underfull queries (`kNN_dist = ∞`, fewer than `k` objects visible) need
//! the whole reachable network; their demand is capped at a finite
//! **diameter bound** (the sum of current edge weights, which no simple
//! shortest path can exceed — [`rnn_roadnet::EdgeWeights::total`]), so halo
//! radii stay finite and comparable.
//!
//! ## Demand is folded, not recomputed
//!
//! `reconcile` walks the registry once, for the exact per-shard demand
//! (the largest `kNN_dist` homed on each shard): a weight change moves
//! the diameter cap that stands in for underfull (∞) demand, a hand-off
//! moves queries between shards and the shrink pass lowers radii, so a
//! tick and a hand-off tail both start from every query. The resync
//! rounds that follow do not walk it again: `dispatch_pending` folds the
//! `kNN_dist` of each query an exchange reports into `demand`, and a
//! round compares only that with the radius. This is enough because
//! **`halo_r[s]` already covers every query of shard `s` the round's
//! exchange did not report** — such a query's `kNN_dist` is what the
//! previous round covered, and within a `reconcile` a radius only grows.
//! If any round ran, the registry is walked once more at the end, so
//! `maybe_shrink_halos` reads the exact demand. Every `reconcile` ends by
//! asserting, in debug builds, that the radii cover a from-scratch
//! recomputation of the demand and that the folded demand equals it, so
//! every test run checks the invariant.
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
use rnn_roadnet::{EdgeId, EdgeWeights, FxHashMap};

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

/// One shard's halo edge set, **ring-structured**: every member edge is
/// stored with its *boundary distance* (the minimum settle distance of its
/// adjacent settled nodes during the halo expansion), and the membership is
/// additionally kept sorted by that distance. A shrink then drops exactly
/// the outer annulus — pop the sorted tail — without re-running the
/// boundary Dijkstra. Boundary distances only change when edge weights do,
/// and any weight change forces a full halo recompute earlier in the same
/// tick, so the recorded annuli are always current when the shrink runs.
#[derive(Default)]
pub(crate) struct HaloRing {
    /// Membership, with each edge's boundary distance.
    dist: FxHashMap<EdgeId, f64>,
    /// Member edges sorted ascending by boundary distance (ties by id).
    by_dist: Vec<(f64, EdgeId)>,
}

impl HaloRing {
    #[inline]
    pub(crate) fn contains(&self, e: EdgeId) -> bool {
        self.dist.contains_key(&e)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Drops `e` from the ring (the shard came to *own* it, and a halo
    /// holds foreign edges only). Returns whether it was a member.
    pub(crate) fn remove(&mut self, e: EdgeId) -> bool {
        let was_member = self.dist.remove(&e).is_some();
        if was_member {
            self.by_dist.retain(|&(_, re)| re != e);
        }
        was_member
    }

    /// Replaces the membership with `fresh` (edge → boundary distance),
    /// reporting every edge whose membership toggled as
    /// `toggled(edge, is_member_now)` — leavers first, then joiners. The
    /// old membership map is handed back in `fresh`, for the caller to
    /// refill next time.
    pub(crate) fn replace_with(
        &mut self,
        fresh: &mut FxHashMap<EdgeId, f64>,
        mut toggled: impl FnMut(EdgeId, bool),
    ) {
        for &e in self.dist.keys() {
            if !fresh.contains_key(&e) {
                toggled(e, false);
            }
        }
        for &e in fresh.keys() {
            if !self.dist.contains_key(&e) {
                toggled(e, true);
            }
        }
        self.by_dist.clear();
        self.by_dist.extend(fresh.iter().map(|(&e, &d)| (d, e)));
        self.by_dist
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        std::mem::swap(&mut self.dist, fresh);
    }

    /// Pops the outermost member if it lies beyond `cutoff` — one step of
    /// dropping the outer annulus after a radius decay.
    pub(crate) fn pop_beyond(&mut self, cutoff: f64) -> Option<EdgeId> {
        let &(d, e) = self.by_dist.last()?;
        if d <= cutoff {
            return None;
        }
        self.by_dist.pop();
        self.dist.remove(&e);
        Some(e)
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.dist.capacity() * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<f64>())
            + self.by_dist.capacity() * std::mem::size_of::<(f64, EdgeId)>()
    }
}

impl<L: ShardLink> ShardedEngine<L> {
    /// Current halo radius of shard `s`.
    pub fn halo_radius(&self, s: usize) -> f64 {
        self.halo_r[s]
    }

    /// The finite cap applied to "replicate everything" halo demand — an
    /// upper bound on any shortest-path distance under the current
    /// weights — cached, and refreshed (O(E)) only when weights have
    /// changed since it was last needed.
    pub(crate) fn current_diam_bound(&mut self) -> f64 {
        if self.diam_dirty {
            self.diam_cache = diameter_bound(&self.weights);
            self.diam_dirty = false;
        }
        self.diam_cache
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

    /// Recomputes shard `s`'s halo edge set under the current weights and
    /// radius (one bounded multi-source Dijkstra from the shard boundary),
    /// noting every edge whose membership toggled in `changed`. Also
    /// refreshes the ring structure (each member's boundary distance) that
    /// [`Self::shrink_halo_ring`] later pops from. A shard at radius zero
    /// has an empty halo before and after, so calling this for it is free.
    pub(crate) fn recompute_halo(&mut self, s: usize, changed: &mut FxHashMap<EdgeId, u64>) {
        let r = self.halo_r[s];
        let mut fresh = std::mem::take(&mut self.halo_fresh);
        fresh.clear();
        let boundary = &self.partition.view(s).boundary_nodes;
        if r > 0.0 && !boundary.is_empty() {
            self.scratch.begin();
            for &b in boundary {
                self.scratch.seed(b, 0.0, None);
            }
            while let Some((n, d)) = self.scratch.pop_settle() {
                if d > r {
                    break;
                }
                for &(e, m) in self.net.adjacent(n) {
                    if self.partition.shard_of_edge(e) != s as u32 {
                        fresh.entry(e).and_modify(|x| *x = x.min(d)).or_insert(d);
                    }
                    let nd = d + self.weights.get(e);
                    if nd <= r {
                        self.scratch.relax(m, n, nd);
                    }
                }
            }
        }
        self.replace_halo(s, &mut fresh, changed);
        self.halo_fresh = fresh;
    }

    /// Installs `fresh` as shard `s`'s halo membership, flipping bit `s` of
    /// every toggled edge's visibility mask and recording the edge, with
    /// the mask it had, in `changed` (the first record of a pass stands).
    /// An empty `fresh` clears the halo. The replaced membership comes back
    /// in `fresh`.
    pub(crate) fn replace_halo(
        &mut self,
        s: usize,
        fresh: &mut FxHashMap<EdgeId, f64>,
        changed: &mut FxHashMap<EdgeId, u64>,
    ) {
        let bit = 1u64 << s;
        let masks = &mut self.edge_mask;
        self.halo_edges[s].replace_with(fresh, |e, member| {
            let mask = &mut masks[e.index()];
            changed.entry(e).or_insert(*mask);
            *mask = if member { *mask | bit } else { *mask & !bit };
        });
    }

    /// Ring-structured shrink: after `halo_r[s]` has decayed, drops exactly
    /// the edges in the annulus beyond the new radius by popping the sorted
    /// tail of the ring — O(dropped edges), no Dijkstra re-expansion. A
    /// radius of zero empties the halo (membership requires a settled node
    /// within a *positive* radius, matching [`Self::recompute_halo`]).
    fn shrink_halo_ring(&mut self, s: usize, changed: &mut FxHashMap<EdgeId, u64>) {
        let r = self.halo_r[s];
        let cutoff = if r > 0.0 { r } else { f64::NEG_INFINITY };
        let bit = 1u64 << s;
        while let Some(e) = self.halo_edges[s].pop_beyond(cutoff) {
            changed.entry(e).or_insert(self.edge_mask[e.index()]);
            self.edge_mask[e.index()] &= !bit;
        }
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
                let at = self.objects[&id];
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
    /// `SHRINK_TICKS` consecutive ticks, decay it to the
    /// demanded radius and evict the replicas beyond it. Safe by the same
    /// argument as growth, in reverse: everything evicted is farther from
    /// the boundary than every owned query's `kNN_dist`. Reads the exact
    /// per-shard demand the tick's `reconcile` left in `self.demand`.
    pub(crate) fn maybe_shrink_halos(&mut self) {
        let slack = 1.0 + HALO_SLACK;
        let shrunk = self.halo_pass(|eng, toggled| {
            for s in 0..eng.cfg.num_shards {
                let target = eng.demand[s] * slack;
                if eng.halo_r[s] > target * SHRINK_TRIGGER {
                    eng.shrink_streak[s] += 1;
                    if eng.shrink_streak[s] >= SHRINK_TICKS {
                        eng.halo_r[s] = target;
                        // Decay-only change: drop the outer annulus from the
                        // ring instead of re-running the boundary Dijkstra.
                        eng.shrink_halo_ring(s, toggled);
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

    /// The full walk: `demand[s]` becomes the largest `kNN_dist` among
    /// all of shard `s`'s queries (∞ not yet capped).
    pub(crate) fn fold_all_demand(&mut self) {
        self.demand.fill(0.0);
        for rec in self.queries.values() {
            let s = rec.shard as usize;
            self.demand[s] = self.demand[s].max(rec.knn_dist);
        }
    }

    /// Replaces underfull (∞) demand by the diameter bound. Only then is
    /// the (possibly O(E)) bound refresh worth paying.
    pub(crate) fn cap_underfull_demand(&mut self) {
        if self.demand.iter().any(|n| n.is_infinite()) {
            let cap = self.current_diam_bound();
            for n in &mut self.demand {
                if n.is_infinite() {
                    *n = cap;
                }
            }
        }
    }

    /// What `reconcile` promises, checked against a from-scratch
    /// recomputation (debug builds): every shard's radius covers the
    /// demand of every query homed on it — the queries no resync round
    /// reported included — and `demand` is that recomputation exactly.
    pub(crate) fn demand_is_covered(&mut self) -> bool {
        let folded = self.demand.clone();
        self.fold_all_demand();
        self.cap_underfull_demand();
        let exact = std::mem::replace(&mut self.demand, folded);
        (0..self.cfg.num_shards).all(|s| self.halo_r[s] >= exact[s]) && exact == self.demand
    }
}

/// An upper bound on any shortest-path distance under `weights`: shortest
/// paths are simple, so no path exceeds the sum of all edge weights. The
/// tiny relative margin absorbs summation-order rounding.
pub(crate) fn diameter_bound(weights: &EdgeWeights) -> f64 {
    weights.total() * (1.0 + 1e-9)
}

#[cfg(test)]
mod tests {
    use rnn_core::{ContinuousMonitor, QueryEvent, UpdateBatch, UpdateEvent};
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId, QueryId};

    use super::{diameter_bound, HaloRing, HALO_SLACK, SHRINK_TICKS};
    use crate::engine::tests::engine;

    #[test]
    fn ring_reports_toggles_and_pops_the_outer_annulus_only() {
        let (a, b, c, d) = (EdgeId(1), EdgeId(2), EdgeId(3), EdgeId(4));
        let mut ring = HaloRing::default();
        let mut toggles = Vec::new();
        ring.replace_with(
            &mut [(a, 1.0), (b, 2.0), (c, 3.0)].into_iter().collect(),
            |e, m| {
                toggles.push((e, m));
            },
        );
        toggles.sort();
        assert_eq!(toggles, [(a, true), (b, true), (c, true)]);
        // b stays, a and c leave, d joins: only the three toggles report.
        toggles.clear();
        let mut fresh = [(b, 2.0), (d, 0.5)].into_iter().collect();
        ring.replace_with(&mut fresh, |e, m| {
            toggles.push((e, m));
        });
        assert_eq!(fresh.len(), 3, "the replaced membership comes back");
        toggles.sort();
        assert_eq!(toggles, [(a, false), (c, false), (d, true)]);
        assert!(ring.remove(d) && !ring.remove(d) && !ring.contains(d));
        ring.replace_with(
            &mut [(a, 1.0), (b, 2.0), (c, 3.0)].into_iter().collect(),
            |_, _| {},
        );
        assert_eq!(ring.pop_beyond(1.5), Some(c));
        assert_eq!(ring.pop_beyond(1.5), Some(b));
        assert_eq!(ring.pop_beyond(1.5), None, "a lies inside the cutoff");
        assert!(ring.contains(a) && !ring.is_empty());
    }

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
            assert_eq!(eng.halo_radius(s), 0.0, "shard {s} halo did not decay");
        }
        assert_eq!(eng.replica_count(), 0, "stale replicas were not evicted");
        assert!(eng.replica_evictions() > 0);
        eng.validate_replication().unwrap();
    }

    #[test]
    fn underfull_demand_is_capped_at_diameter_bound() {
        // k exceeds the object count: kNN_dist stays ∞, which used to pin
        // halo_r at ∞ permanently. It must now cap at the finite diameter
        // bound (and still see every object).
        let mut eng = engine(4);
        for i in 0..3u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i * 13), 0.5),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            10,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(eng.result(QueryId(0)).unwrap().len(), 3);
        assert_eq!(eng.knn_dist(QueryId(0)).unwrap(), f64::INFINITY);
        let s = eng.queries[&QueryId(0)].shard as usize;
        assert!(
            eng.halo_radius(s).is_finite(),
            "underfull demand must not produce an infinite radius"
        );
        assert!(eng.halo_radius(s) <= diameter_bound(&eng.weights) * (1.0 + HALO_SLACK) + 1e-9);
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
