//! Moving cells between shards: the load-imbalance detector, the
//! migration planner, the one cell hand-off, and dead-shard adoption.
//!
//! Owns every mutation of the partition after construction —
//! `ShardedEngine::hand_off` is the only caller of
//! `NetworkPartition::reassign`. The detector reads the smoothed per-shard
//! load the exchange folds (routed events plus worker `expansion_steps`);
//! the planner weighs cells by what the coordinator already holds — the
//! objects and queries routed to each edge — so shards report no per-cell
//! work. Callers: `tick` runs
//! `ShardedEngine::maybe_rebalance` before a timestamp's updates land,
//! and `dispatch_pending` runs `ShardedEngine::adopt_dead_shard` when a
//! link answers `Response::Down`. Nothing else enters this module.
//!
//! ## Answer-identity of a hand-off (planned or forced)
//!
//! A planned migration and a dead-shard adoption are the same operation
//! applied to different cell sets, so the argument is made once. A
//! hand-off of cells `C` from shard `A` to shard `B`:
//!
//! 1. happens with no request in flight (the strict request/response
//!    protocol is the barrier), so no shard observes a half-moved
//!    partition;
//! 2. moves ownership, the visibility bit and the resident queries of
//!    exactly `C`, and records `C` as changed;
//! 3. re-derives the halo of every shard whose border moved. A shard
//!    whose border did not move keeps an exactly valid halo: every cell in
//!    `C` was foreign to it before and after;
//! 4. resyncs the residents of every changed edge from the coordinator's
//!    registry (the engine, not the old owner, is the authority for object
//!    positions — which is why `A` may be a corpse);
//! 5. re-installs each moved query on `B`, which computes its result from
//!    scratch, and then runs the same `reconcile` loop that makes a fresh
//!    install answer-identical ([`crate::halo`]): halos grow until every
//!    re-homed result is covered.
//!
//! Steps 2–5 are `ShardedEngine::hand_off` followed by
//! `ShardedEngine::settle_hand_off`. A planned migration calls the pair
//! once for the planner's cells; adoption first buries the corpse (its
//! load, radius and halo ring are zeroed, so its replicas and its share of
//! the masks die with it), then calls `hand_off` once per border it peels
//! and `settle_hand_off` once at the end. Whatever either path addresses
//! to a dead shard — the `Remove`s of re-homed queries, the `Delete`s of
//! its replicas — is discarded unsent by `dispatch_pending`.

use rnn_core::{OpCounters, QueryEvent};
use rnn_roadnet::{EdgeId, FxHashMap};

use crate::engine::{ShardBits, ShardedEngine};
use crate::protocol::{BatchKind, ShardLink};

/// A rebalance never moves more than this fraction of the hot shard's
/// cells at once — migrations stay incremental even under extreme skew.
const MAX_MIGRATION_FRACTION: f64 = 0.25;

impl<L: ShardLink> ShardedEngine<L> {
    /// Lifetime count of load-aware rebalances (each one migration of
    /// boundary cells from the most loaded shard to an underloaded
    /// neighbour).
    pub fn rebalance_events(&self) -> u64 {
        self.router_total.rebalance_events
    }

    /// Lifetime count of partition cells (edges) whose ownership moved to
    /// another shard during rebalancing.
    pub fn cells_migrated(&self) -> u64 {
        self.router_total.cells_migrated
    }

    /// Lifetime count of dead-shard takeovers executed: each one is a full
    /// `adopt_dead_shard` run, re-homing a permanently-down shard's
    /// cells, replicas and queries onto survivors through the migration
    /// machinery. Stays 0 unless a shard actually died.
    pub fn takeovers(&self) -> u64 {
        self.takeovers
    }

    /// The imbalance detector, run once at the start of every tick. When
    /// rebalancing is enabled (`rebalance_trigger ≥ 1`), the cooldown has
    /// elapsed, and the smoothed per-shard load satisfies
    /// `max > mean × trigger`, one migration of boundary cells runs from
    /// the most loaded shard to an underloaded neighbour.
    pub(crate) fn maybe_rebalance(&mut self) {
        if self.cfg.rebalance_trigger < 1.0 {
            return;
        }
        self.ticks_since_rebalance = self.ticks_since_rebalance.saturating_add(1);
        if self.ticks_since_rebalance <= self.cfg.rebalance_cooldown {
            return;
        }
        let Some((hot, mean)) = self.live_load() else {
            return;
        };
        if self.load[hot] <= mean * self.cfg.rebalance_trigger {
            return;
        }
        let Some((cold, cells)) = self.plan_migration(hot) else {
            return; // no underloaded neighbour shares a border — stand pat
        };
        self.migrate_cells(hot, cold, &cells);
        self.ticks_since_rebalance = 0;
    }

    /// The most loaded live shard and the mean smoothed load over live
    /// shards, or `None` while there is nothing to compare (fewer than two
    /// live shards, or no load observed yet). Dead shards carry no load
    /// (zeroed at takeover), so the sum may run over all of them — but the
    /// mean is over survivors only.
    pub(crate) fn live_load(&self) -> Option<(usize, f64)> {
        let live = self.live_shards();
        let total: f64 = self.load.iter().sum();
        if live < 2 || total <= 0.0 {
            return None;
        }
        let mut hot = usize::MAX;
        for s in (0..self.cfg.num_shards).filter(|&s| !self.dead[s]) {
            if hot == usize::MAX || self.load[s] > self.load[hot] {
                hot = s; // strict: ties resolve to the lowest shard id
            }
        }
        Some((hot, total / live as f64))
    }

    /// Every live shard except `except`, least loaded first (ties by id):
    /// the order in which both the planner and dead-shard adoption look
    /// for a shard to hand cells to.
    fn live_by_load(&self, except: usize) -> Vec<usize> {
        let mut targets: Vec<usize> = (0..self.cfg.num_shards)
            .filter(|&s| s != except && !self.dead[s])
            .collect();
        targets.sort_by(|&a, &b| self.load[a].total_cmp(&self.load[b]).then(a.cmp(&b)));
        targets
    }

    /// The migration planner: picks the least-loaded shard that shares a
    /// border with `hot` and the boundary cells to hand over. A cell weighs
    /// `1 + objects on it + Σ k over the queries resident on it`, all read
    /// from the coordinator's own registries at plan time: a query's
    /// expansion settles at least its k neighbours, and the objects are
    /// what every expansion crossing the cell scans. Cells are taken
    /// heaviest-first until roughly half the load gap has moved, capped at
    /// [`MAX_MIGRATION_FRACTION`] of the hot shard's cells so a single
    /// rebalance stays incremental. Fully deterministic: driven by the
    /// deterministic load estimates and sorted by `(weight desc, id)`.
    fn plan_migration(&self, hot: usize) -> Option<(usize, Vec<EdgeId>)> {
        for cold in self.live_by_load(hot) {
            if self.load[cold] >= self.load[hot] {
                break; // only ever move load downhill
            }
            let cells = self
                .partition
                .boundary_cells_between(&self.net, hot as u32, cold as u32);
            if cells.is_empty() {
                continue; // not adjacent; try the next-coldest shard
            }
            let cell_weight = |e: EdgeId| -> u64 {
                let k_sum = self.edge_queries.get(&e).map_or(0, |ids| {
                    ids.iter().map(|id| self.queries[id].k as u64).sum::<u64>()
                });
                1 + self.edge_obj.objects_on(e).len() as u64 + k_sum
            };
            let hot_weight: u64 = self
                .partition
                .view(hot)
                .edges
                .iter()
                .map(|&e| cell_weight(e))
                .sum();
            // Share of the hot shard's resident weight that should move:
            // half the relative load gap to the target.
            let gap = (self.load[hot] - self.load[cold]) / (2.0 * self.load[hot]);
            let target_weight = (hot_weight as f64 * gap).ceil() as u64;
            let cap = ((self.partition.view(hot).edges.len() as f64 * MAX_MIGRATION_FRACTION)
                .floor() as usize)
                .clamp(1, cells.len());
            let mut ranked: Vec<(u64, EdgeId)> =
                cells.into_iter().map(|e| (cell_weight(e), e)).collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut chosen = Vec::new();
            let mut moved_weight = 0u64;
            for (w, e) in ranked {
                if chosen.len() >= cap || (moved_weight >= target_weight && !chosen.is_empty()) {
                    break;
                }
                chosen.push(e);
                moved_weight += w;
            }
            if !chosen.is_empty() {
                return Some((cold, chosen));
            }
        }
        None
    }

    /// Executes one planned migration: plan → hand off once → settle.
    fn migrate_cells(&mut self, hot: usize, cold: usize, cells: &[EdgeId]) {
        let mut changed = FxHashMap::default();
        self.hand_off(hot, cold, cells, &mut changed);
        self.count(OpCounters {
            rebalance_events: 1,
            cells_migrated: cells.len() as u64,
            ..OpCounters::default()
        });
        self.settle_hand_off([hot, cold], changed);
    }

    /// The one place cell ownership moves: reassigns `cells` from shard
    /// `from` to shard `to` in the partition, transfers their visibility
    /// bit (recording each cell, with the mask it had, in `changed` so its
    /// residents resync), and
    /// re-homes the queries living on them — `Remove` at the old owner,
    /// `Install` at the new, which recomputes the result from scratch and
    /// reports it in the hand-off's own exchange (the coordinator's cached
    /// result is parked in the change log until then, and the query counts
    /// as changed only if the new home's answer differs from it). `from`
    /// may be a corpse:
    /// [`Self::dispatch_pending`] discards whatever is addressed to one.
    ///
    /// The strict request/response worker protocol is the pause/resume
    /// barrier: no request is in flight when the partition mutates, and
    /// [`Self::settle_hand_off`] blocks on every shard's response before
    /// the tick proceeds — workers never observe a half-moved partition.
    fn hand_off(
        &mut self,
        from: usize,
        to: usize,
        cells: &[EdgeId],
        changed: &mut FxHashMap<EdgeId, u64>,
    ) {
        let moves: Vec<(EdgeId, u32)> = cells.iter().map(|&e| (e, to as u32)).collect();
        self.partition.reassign(&self.net, &moves);
        let (from_bit, to_bit) = (1u64 << from, 1u64 << to);
        for &e in cells {
            // A moved cell may sit in the new owner's halo ring; it is now
            // owned, so drop it from the ring before the mask transfer (a
            // halo recompute excludes owned edges by construction).
            self.halo_edges[to].remove(e);
            let mask = &mut self.edge_mask[e.index()];
            changed.entry(e).or_insert(*mask);
            *mask = (*mask & !from_bit) | to_bit;
            let Some(bucket) = self.edge_queries.get(&e) else {
                continue;
            };
            let mut qids = bucket.clone();
            qids.sort_unstable();
            for id in qids {
                let rec = self.queries.get_mut(&id).expect("indexed query registered");
                debug_assert_eq!(rec.pos.edge, e, "query index bucket out of sync");
                if rec.shard == from as u32 {
                    let (k, at) = (rec.k, rec.pos);
                    self.pending[from].queries.push(QueryEvent::Remove { id });
                    self.pending[to]
                        .queries
                        .push(QueryEvent::Install { id, k, at });
                    rec.shard = to as u32;
                    self.log.installed(id, rec, false);
                }
            }
        }
    }

    /// The tail every hand-off shares. The shards in `moved_borders` had
    /// their boundary-node sets change, so their halo memberships are
    /// re-derived under the new border; every other shard's halo stays
    /// exactly valid (a moved cell was foreign to it before and after).
    /// Then the residents of every changed edge are handed off — O(moved
    /// cells + toggled halo edges) through the edge→object index, objects
    /// resyncing from the coordinator's registry — and the batch ships and
    /// halos grow until every re-homed query's result is covered again:
    /// the same loop that makes installs answer-identical makes planned
    /// migrations and dead-shard adoptions answer-identical.
    fn settle_hand_off(
        &mut self,
        moved_borders: impl IntoIterator<Item = usize>,
        mut changed: FxHashMap<EdgeId, u64>,
    ) {
        for s in moved_borders {
            self.recompute_halo(s, &mut changed);
        }
        self.resync_changed(&changed);
        self.dispatch_pending(BatchKind::Migration);
        self.reconcile();
    }

    /// Reacts to a shard link reporting itself permanently down
    /// (`Response::Down`: its transport died and recovery exhausted every
    /// retry). Recovery is rebalance away from a corpse, counted in
    /// [`Self::takeovers`]: bury it (it neither receives nor reports
    /// anything any more, and its halo replicas die with it), peel its
    /// cells onto survivors through [`Self::hand_off`] — ownership
    /// reassigns, objects resync from the coordinator's registry, queries
    /// re-home with freshly computed results — and settle exactly as a
    /// planned migration does.
    ///
    /// # Panics
    /// Panics when no live shard remains to adopt the corpse's cells.
    pub(crate) fn adopt_dead_shard(&mut self, dead: usize) {
        if self.dead[dead] {
            return; // already buried (a late Down from a nested dispatch)
        }
        self.dead[dead] = true;
        self.takeovers += 1;
        assert!(
            self.live_shards() > 0,
            "every shard is dead — no survivor can adopt shard {dead}'s cells"
        );
        self.active[dead] = None;
        self.load[dead] = 0.0;
        self.tick_load[dead] = 0;
        self.halo_r[dead] = 0.0;
        self.shrink_streak[dead] = 0;
        // Clearing the ring clears the corpse's bit on every member edge,
        // so resync queues the (discarded) deletes and the masks stay the
        // invariant `ownership + live halos`.
        let mut changed = FxHashMap::default();
        self.replace_halo(dead, &mut FxHashMap::default(), &mut changed);
        let adopters = self.peel_cells(dead, &mut changed);
        self.settle_hand_off(ShardBits(adopters), changed);
    }

    /// Hands every cell of shard `from` to the other live shards: cells
    /// peel off along shared borders to the least-loaded adjacent shard
    /// (keeping regions as connected as the planner would), with a bulk
    /// hand-off to the least-loaded shard as the fallback for a remainder
    /// that borders none of them (an island of `from`'s region). Returns
    /// the adopters as a shard bit set.
    fn peel_cells(&mut self, from: usize, changed: &mut FxHashMap<EdgeId, u64>) -> u64 {
        let targets = self.live_by_load(from);
        let mut adopters = 0u64;
        while !self.partition.view(from).edges.is_empty() {
            let bordering = targets.iter().find_map(|&to| {
                let cells =
                    self.partition
                        .boundary_cells_between(&self.net, from as u32, to as u32);
                (!cells.is_empty()).then_some((to, cells))
            });
            let (to, cells) =
                bordering.unwrap_or_else(|| (targets[0], self.partition.view(from).edges.clone()));
            self.hand_off(from, to, &cells, changed);
            adopters |= 1u64 << to;
        }
        adopters
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;

    use rnn_core::{
        load_population, ContinuousMonitor, Gma, ObjectEvent, QueryEvent, UpdateBatch, UpdateEvent,
    };
    use rnn_roadnet::{EdgeId, FxHashMap, FxHashSet, NetPoint, ObjectId, QueryId};
    use rnn_workload::{Scenario, ScenarioConfig};

    use crate::config::{EngineConfig, ShardAlgo};
    use crate::engine::tests::{assert_same_answers, engine, mortal_engine, net, MortalLink};
    use crate::engine::{ShardBits, ShardedEngine};
    use crate::protocol::{BatchKind, Request, Response, ShardLink};
    use crate::worker::ShardWorker;

    /// Installs objects on every edge and a tight query cluster on one
    /// shard, then churns the cluster every tick so all monitor work lands
    /// on that shard.
    fn hotspot_setup<L: ShardLink>(eng: &mut ShardedEngine<L>) -> Vec<(QueryId, EdgeId)> {
        let hot = eng.partition.shard_of_edge(EdgeId(0));
        let placed: Vec<(QueryId, EdgeId)> = eng
            .net
            .edge_ids()
            .filter(|&e| eng.partition.shard_of_edge(e) == hot)
            .take(6)
            .enumerate()
            .map(|(q, e)| (QueryId(q as u32), e))
            .collect();
        // Two timestamps (objects, then queries): inside a cooldown of two
        // set-up cannot rebalance, so a caller that sums the per-tick
        // reports of its own ticks sees every migration.
        let edges: Vec<EdgeId> = eng.net.edge_ids().collect();
        load_population(
            eng,
            edges
                .iter()
                .map(|&e| (ObjectId(e.0), NetPoint::new(e, 0.5))),
            placed.iter().map(|&(q, e)| (q, 4, NetPoint::new(e, 0.25))),
        );
        placed
    }

    fn churn_tick(t: u32, placed: &[(QueryId, EdgeId)]) -> UpdateBatch {
        let mut batch = UpdateBatch::default();
        for &(q, e) in placed {
            let frac = if t % 2 == 0 { 0.2 } else { 0.8 };
            batch.queries.push(QueryEvent::Move {
                id: q,
                to: NetPoint::new(e, frac),
            });
        }
        batch
    }

    #[test]
    fn rebalancing_is_disabled_by_default() {
        let mut eng = engine(4);
        let placed = hotspot_setup(&mut eng);
        for t in 0..12 {
            eng.tick(&churn_tick(t, &placed));
        }
        assert_eq!(eng.rebalance_events(), 0);
        assert_eq!(eng.cells_migrated(), 0);
        // The skew is visible in the load estimates even though nothing
        // acts on it.
        assert!(eng.shard_load_ratio().unwrap() > 1.5);
    }

    #[test]
    fn hotspot_triggers_migration_and_improves_balance() {
        let mk = |trigger: f64| {
            ShardedEngine::new(
                net(),
                EngineConfig {
                    num_shards: 4,
                    algo: ShardAlgo::Ima,
                    rebalance_trigger: trigger,
                    rebalance_cooldown: 2,
                    ..EngineConfig::default()
                },
            )
        };
        let mut fixed = mk(0.0);
        let mut dynamic = mk(1.1);
        let placed_f = hotspot_setup(&mut fixed);
        let placed_d = hotspot_setup(&mut dynamic);
        assert_eq!(placed_f, placed_d, "identical partitions, identical setup");
        let mut reported_rebalances = 0u64;
        let mut reported_cells = 0u64;
        for t in 0..20 {
            let batch = churn_tick(t, &placed_f);
            fixed.tick(&batch);
            let rep = dynamic.tick(&batch);
            reported_rebalances += rep.counters.rebalance_events;
            reported_cells += rep.counters.cells_migrated;
            dynamic.validate_replication().unwrap();
            // Answer identity under migration: both engines agree.
            assert_same_answers(&fixed, &dynamic, &format!("tick {t}"));
        }
        assert!(dynamic.rebalance_events() > 0, "hotspot must trigger");
        assert!(dynamic.cells_migrated() > 0);
        // The per-tick counter slices add up to the lifetime totals.
        assert_eq!(reported_rebalances, dynamic.rebalance_events());
        assert_eq!(reported_cells, dynamic.cells_migrated());
        let (rf, rd) = (
            fixed.shard_load_ratio().unwrap(),
            dynamic.shard_load_ratio().unwrap(),
        );
        assert!(
            rd < rf,
            "rebalancing must improve the load ratio: {rd} !< {rf}"
        );
        // The lifetime totals flowed into OpCounters as well.
        assert_eq!(fixed.cells_migrated(), 0);
    }

    #[test]
    fn migration_preserves_partition_and_query_routing() {
        let mut eng = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 2,
                algo: ShardAlgo::Gma,
                rebalance_trigger: 1.0,
                rebalance_cooldown: 1,
                ..EngineConfig::default()
            },
        );
        let placed = hotspot_setup(&mut eng);
        for t in 0..14 {
            eng.tick(&churn_tick(t, &placed));
            eng.validate_replication().unwrap();
            eng.partition.validate(&eng.net).unwrap();
        }
        assert!(eng.cells_migrated() > 0);
        // Every clustered query still answers with k results from its
        // (possibly new) owner shard.
        for &(q, _) in &placed {
            assert_eq!(eng.result(q).unwrap().len(), 4);
        }
    }

    #[test]
    fn planner_ranks_cells_by_resident_objects_and_query_k() {
        // Two cells on the hot shard's border: A hosts one k = 40 query,
        // B hosts 30 objects. A query's expansion settles at least its k
        // neighbours, so A outweighs B (41 against 31) although B holds
        // more entities.
        let mut eng = engine(2);
        let cells = eng.partition.boundary_cells_between(&eng.net, 0, 1);
        assert!(cells.len() >= 2, "2-way split has a multi-cell border");
        let (a, b) = (cells[0], cells[1]);
        for i in 0..30u32 {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(b, 0.3 + f64::from(i % 4) * 0.1),
            ));
        }
        eng.apply(UpdateEvent::install_query(
            QueryId(0),
            40,
            NetPoint::new(a, 0.5),
        ));
        eng.load = vec![10_000.0, 1.0];
        let (cold, chosen) = eng.plan_migration(0).expect("imbalance has a plan");
        assert_eq!(cold, 1);
        assert_eq!(
            chosen[0], a,
            "the k = 40 cell must outrank the 30-object one"
        );
    }

    #[test]
    fn a_handed_off_query_that_gets_its_answer_back_counts_as_unchanged() {
        // A real flap. Shard 1 serves no query, so its halo is empty. A
        // query on shard 0's border cell is handed to it: shard 1 first
        // answers from its own cells alone (round 1, not the answer the
        // query had), its halo grows, the neighbours on shard 0's side
        // arrive, and it reports the query again (round 2) with the answer
        // it entered the hand-off with. Two reports, no change.
        let mut eng = ShardedEngine::new(
            net(),
            EngineConfig {
                num_shards: 2,
                algo: ShardAlgo::Gma,
                ..EngineConfig::default()
            },
        );
        for e in net().edge_ids() {
            eng.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        let cell = eng.partition.boundary_cells_between(&eng.net, 0, 1)[0];
        let q = QueryId(0);
        eng.apply(UpdateEvent::install_query(q, 6, NetPoint::new(cell, 0.5)));
        assert_eq!(eng.changed_queries(), [q]);
        let before = eng.result(q).unwrap().to_vec();
        let foreign = |eng: &ShardedEngine, owner: u32| {
            before
                .iter()
                .filter(|n| eng.partition.shard_of_edge(EdgeId(n.object.0)) != owner)
                .count()
        };
        assert_eq!(eng.halo_radius(1), 0.0, "nothing to replicate for yet");

        eng.log.begin();
        let mut changed = FxHashMap::default();
        eng.hand_off(0, 1, &[cell], &mut changed);
        assert!(
            foreign(&eng, 1) > 0,
            "the new home cannot answer from its own cells"
        );
        eng.settle_hand_off([0, 1], changed);
        let results_changed = eng.log.finish(&eng.queries);

        assert_eq!(eng.queries[&q].shard, 1);
        assert!(eng.halo_radius(1) > 0.0, "a reconcile round grew the halo");
        assert_eq!(eng.result(q).unwrap(), before.as_slice());
        assert_eq!(results_changed, 0);
        assert!(eng.changed_queries().is_empty());
        eng.validate_replication().unwrap();
    }

    /// A [`ShardWorker`] that keeps a ledger of the objects its shard has
    /// been sent and not told to delete: what the shard holds, read off
    /// the wire rather than off the coordinator's own tables.
    struct LedgerLink {
        inner: ShardWorker,
        held: RefCell<FxHashSet<ObjectId>>,
    }

    impl ShardLink for LedgerLink {
        fn send(&self, req: Request) {
            if let Request::Tick(delta) = &req {
                let mut held = self.held.borrow_mut();
                for ev in &delta.objects {
                    match *ev {
                        ObjectEvent::Insert { id, .. } | ObjectEvent::Move { id, .. } => {
                            held.insert(id);
                        }
                        ObjectEvent::Delete { id } => {
                            held.remove(&id);
                        }
                    }
                }
            }
            self.inner.send(req);
        }

        fn recv(&self) -> Response {
            self.inner.recv()
        }
    }

    /// The coordinator stores no per-object shard set: the shards that
    /// hold an object are those of its edge's mask. Checked against what
    /// the shards were actually sent, after every tick of a run in which
    /// objects wander, come and go, weights move, a wide query grows a
    /// halo and its removal shrinks it, and a hotspot migrates cells.
    #[test]
    fn shards_hold_exactly_the_objects_their_edge_masks_say() {
        let cfg = EngineConfig {
            num_shards: 4,
            algo: ShardAlgo::Ima,
            rebalance_trigger: 1.1,
            rebalance_cooldown: 2,
            ..EngineConfig::default()
        };
        let net = net();
        let links = (0..cfg.num_shards)
            .map(|s| LedgerLink {
                inner: ShardWorker::spawn(s, cfg.make_monitor(net.clone())),
                held: RefCell::default(),
            })
            .collect();
        let mut eng = ShardedEngine::with_links(net, cfg, links).expect("valid config");
        let check = |eng: &ShardedEngine<LedgerLink>, ctx: &str| {
            for (&id, pos) in &eng.objects {
                let holders = (0..eng.num_shards())
                    .filter(|&s| eng.workers[s].held.borrow().contains(&id))
                    .fold(0u64, |bits, s| bits | 1 << s);
                let mask = eng.edge_mask[pos.edge.index()];
                assert_eq!(holders, mask, "{ctx}: {id:?} on {:?}", pos.edge);
            }
            // ... and nothing else: no copy of a deleted object lingers.
            let held: usize = eng.workers.iter().map(|w| w.held.borrow().len()).sum();
            assert_eq!(held, eng.objects.len() + eng.replica_count(), "{ctx}");
            eng.validate_replication().unwrap();
        };

        let placed = hotspot_setup(&mut eng);
        check(&eng, "set-up");
        let n = eng.net.num_edges() as u32;
        let hot = eng.partition.shard_of_edge(EdgeId(0));
        let far = (eng.net.edge_ids())
            .find(|&e| eng.partition.shard_of_edge(e) != hot)
            .expect("a 4-way split has foreign edges");
        for t in 0..24u32 {
            let mut batch = churn_tick(t, &placed);
            for i in (t % 3..n).step_by(3) {
                batch.objects.push(ObjectEvent::Move {
                    id: ObjectId(i),
                    to: NetPoint::new(EdgeId((7 * i + t) % n), 0.5),
                });
            }
            batch.objects.push(match t % 4 {
                0 => ObjectEvent::Delete { id: ObjectId(t) },
                _ => ObjectEvent::Insert {
                    id: ObjectId(t - t % 4),
                    at: NetPoint::new(EdgeId(5 * t % n), 0.1),
                },
            });
            match t {
                4 => batch.queries.push(QueryEvent::Install {
                    id: QueryId(100),
                    k: 30,
                    at: NetPoint::new(far, 0.5),
                }),
                10 => batch.queries.push(QueryEvent::Remove { id: QueryId(100) }),
                15 => batch.edges.push(rnn_core::EdgeWeightUpdate {
                    edge: far,
                    new_weight: 3.0 * eng.weights.get(far),
                }),
                _ => {}
            }
            eng.tick(&batch);
            check(&eng, &format!("tick {t}"));
        }
        assert!(eng.cells_migrated() > 0, "the hotspot must migrate cells");
        assert!(eng.replica_evictions() > 0, "the halo must shrink");
        assert!(eng.resync_touched() > 0 && eng.replica_count() > 0);
    }

    // --- Dead-shard adoption -------------------------------------------

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(
            net(),
            ScenarioConfig {
                num_objects: 80,
                num_queries: 12,
                k: 4,
                seed,
                ..Default::default()
            },
        )
    }

    /// Drives an engine through a seeded scenario against a single-`Gma`
    /// oracle, killing shard `s` just before tick `t` for every `(t, s)`
    /// in `deaths`; answers and the replication invariants are checked
    /// every tick.
    fn run_with_deaths(shards: usize, deaths: &[(usize, usize)]) -> ShardedEngine<MortalLink> {
        let (mut eng, kills) = mortal_engine(EngineConfig::with_shards(shards), &[]);
        let mut oracle = Gma::new(net());
        let mut scenario = scenario(44 + shards as u64);
        scenario.install_into(&mut eng);
        scenario.install_into(&mut oracle);
        for t in 1..=14 {
            for &(_, s) in deaths.iter().filter(|d| d.0 == t) {
                kills[s].store(true, Ordering::SeqCst);
            }
            let batch = scenario.tick();
            oracle.tick(&batch);
            eng.tick(&batch);
            let ctx = format!("S={shards}, deaths {deaths:?}, tick {t}");
            assert_same_answers(&oracle, &eng, &ctx);
            eng.validate_replication()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        eng
    }

    #[test]
    fn survivors_adopt_a_shard_that_dies_mid_run() {
        for shards in [3, 4] {
            let eng = run_with_deaths(shards, &[(5, 1)]);
            assert_eq!(eng.takeovers(), 1, "S={shards}");
            assert!(eng.is_shard_dead(1), "S={shards}");
            assert_eq!(eng.live_shards(), shards - 1, "S={shards}");
            assert_eq!(
                eng.cells_migrated(),
                0,
                "adoption is not a planned migration"
            );
        }
    }

    #[test]
    fn cascading_deaths_leave_one_shard_owning_everything() {
        let eng = run_with_deaths(4, &[(3, 0), (6, 2), (9, 1)]);
        assert_eq!(eng.takeovers(), 3);
        assert_eq!(eng.live_shards(), 1);
        assert_eq!(eng.partition.view(3).edges.len(), eng.net.num_edges());
        assert_eq!(eng.replica_count(), 0, "one live shard needs no replicas");
    }

    #[test]
    fn a_shard_dying_inside_a_migration_dispatch_is_adopted() {
        // The victim dies on the first migration hand-off addressed to it,
        // i.e. inside `settle_hand_off`'s dispatch: its adoption (a second
        // hand-off, dispatch and reconcile) runs nested in the planned one.
        let mut victims_died = 0;
        for victim in 0..4 {
            let cfg = EngineConfig {
                algo: ShardAlgo::Ima,
                rebalance_trigger: 1.1,
                rebalance_cooldown: 2,
                ..EngineConfig::with_shards(4)
            };
            let (mut eng, _) = mortal_engine(cfg, &[(victim, BatchKind::Migration)]);
            let placed = hotspot_setup(&mut eng);
            let mut oracle = Gma::new(net());
            for e in eng.net.edge_ids() {
                oracle.apply(UpdateEvent::insert_object(
                    ObjectId(e.0),
                    NetPoint::new(e, 0.5),
                ));
            }
            for &(q, e) in &placed {
                oracle.apply(UpdateEvent::install_query(q, 4, NetPoint::new(e, 0.25)));
            }
            for t in 0..20 {
                let batch = churn_tick(t, &placed);
                oracle.tick(&batch);
                eng.tick(&batch);
                let ctx = format!("victim {victim}, tick {t}");
                assert_same_answers(&oracle, &eng, &ctx);
                eng.validate_replication()
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
            assert!(
                eng.rebalance_events() > 0,
                "victim {victim}: hotspot must trigger"
            );
            assert_eq!(eng.takeovers(), u64::from(eng.is_shard_dead(victim)));
            victims_died += usize::from(eng.is_shard_dead(victim));
        }
        assert!(
            victims_died >= 2,
            "the hot shard and at least one receiver see a migration batch"
        );
    }

    #[test]
    fn adopting_a_dead_shard_equals_handing_its_cells_off_while_alive() {
        // The unification's claim: adoption is the planned hand-off applied
        // to all of a shard's cells. Evacuate shard x by hand-offs on one
        // engine, let x die on its twin, and compare what is left.
        for x in 0..3usize {
            let (mut planned, _) = mortal_engine(EngineConfig::with_shards(3), &[]);
            let (mut dying, kills) = mortal_engine(EngineConfig::with_shards(3), &[]);
            let mut scenario = scenario(7);
            scenario.install_into(&mut planned);
            scenario.install_into(&mut dying);
            for _ in 0..5 {
                let batch = scenario.tick();
                planned.tick(&batch);
                dying.tick(&batch);
            }
            let mut changed = FxHashMap::default();
            let adopters = planned.peel_cells(x, &mut changed);
            planned.settle_hand_off(ShardBits(adopters | 1u64 << x), changed);
            // x must be sent something to be found dead; re-reporting an
            // object where it already is changes no answer.
            kills[x].store(true, Ordering::SeqCst);
            let (&id, &to) = dying
                .objects
                .iter()
                .filter(|(_, pos)| dying.partition.shard_of_edge(pos.edge) == x as u32)
                .min_by_key(|(id, _)| **id)
                .expect("an object on one of x's cells");
            let mut still = UpdateBatch::default();
            still.objects.push(ObjectEvent::Move { id, to });
            for t in 0..6 {
                let batch = if t == 0 {
                    still.clone()
                } else {
                    scenario.tick()
                };
                planned.tick(&batch);
                dying.tick(&batch);
                let ctx = format!("x={x}, tick {t} after the hand-off");
                assert!(dying.is_shard_dead(x), "{ctx}");
                assert_eq!(dying.takeovers(), 1, "{ctx}");
                for e in dying.net.edge_ids() {
                    assert_eq!(
                        planned.partition.shard_of_edge(e),
                        dying.partition.shard_of_edge(e),
                        "{ctx}: owner of {e:?}"
                    );
                }
                assert_eq!(planned.edge_mask, dying.edge_mask, "{ctx}: masks");
                assert_same_answers(&planned, &dying, &ctx);
                planned.validate_replication().unwrap();
                dying.validate_replication().unwrap();
            }
        }
    }
}
