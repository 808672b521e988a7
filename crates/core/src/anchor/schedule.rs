//! Figure 10, lines 1–19: one timestamp's updates classified into
//! per-anchor pending work, and co-rooted recomputations grouped.
//!
//! ## Invariant kept here
//!
//! When classification ends, every anchor whose record the tick's updates
//! may have invalidated is in the `queued` list exactly once, with a
//! [`Pending`] that over-approximates what happened to it; an anchor that
//! is not queued is untouched by every update of the tick, so its record is
//! still exact. Anchors due a from-scratch recomputation at bit-identical
//! roots share one expansion at the group's largest k.
//!
//! ## Resolution order
//!
//! Queued anchors are resolved in ascending **owner id** (the set's key —
//! see the parent module), and root groups expand in the order of their
//! smallest member. The order an owner installed its anchors in is
//! therefore not an input: two sets holding the same anchors run the same
//! expansions in the same sequence whatever their history. (Until PR 24
//! the key was a counter handed out by `add`, so resolution followed
//! installation order.) Answers, the list of changed anchors and the
//! expansion work do not depend on the order at all; what does is which
//! pool slots a re-expansion recycles, hence the allocator-history
//! counters (`tree_nodes_recycled`, a pool growth landing a tick earlier
//! or later).
//!
//! ## Deviation from the paper's §4.4 pruning (documented)
//!
//! For decreasing weights the paper keeps (i) the subtree under the updated
//! edge with shifted distances and (ii) the rest of the tree up to the
//! updated edge's far endpoint. With several simultaneous updates the
//! interactions of rule (i) are subtle (the paper prescribes a processing
//! order to stay correct), so this implementation uses the *batched
//! conservative* form of rule (ii): all decreases affecting an anchor are
//! folded into one radius `θ = min over decreased edges e of
//! (min distance of e's verified endpoints + new weight of e)` and the tree
//! is pruned to `θ` in one step. Every kept distance is provably still
//! optimal under the post-tick weights (any improved path must cross a
//! decreased edge, paying at least `θ` to do so), for any number of
//! concurrent increases and decreases. The cost is a somewhat smaller kept
//! tree than the paper's rule (i) would retain; correctness is validated
//! differentially against from-scratch recomputation in the test suite.

use std::fmt::Debug;
use std::hash::Hash;

use rnn_roadnet::{EdgeId, FxHashSet, NetPoint, NodeId, ObjectId, RoadNetwork};

use super::resolve::interval_slack;
use super::{AnchorRec, AnchorSet};
use crate::counters::{push_charged, OpCounters, SCRATCH_ROOM};
use crate::influence::IntervalSet;
use crate::state::{EdgeDelta, NetworkState, ObjectDelta};
use crate::types::{Neighbor, RootPos};

/// Per-anchor work accumulated while scanning a tick's updates.
#[derive(Clone, Copy)]
pub(super) struct Pending {
    /// The anchor is in the tick's list of anchors to resolve.
    pub(super) queued: bool,
    /// Re-run the initial computation from scratch …
    pub(super) full: bool,
    /// … served from this shared multi-k expansion of the tick, if any.
    pub(super) group: Option<usize>,
    /// Conservative decrease radius (∞ = no decrease affects this anchor).
    pub(super) theta: f64,
    /// Child-side nodes of increased tree-link edges (subtrees to cut).
    pub(super) cuts: Chain,
    /// Tree surgery happened → stored NN distances may be stale.
    pub(super) dirty_tree: bool,
    /// Object deltas touching this anchor: `(object, new position)`.
    pub(super) objects: Chain,
    /// New root, when the anchor moved within its tree this tick.
    pub(super) moved_root: Option<RootPos>,
}

impl Pending {
    pub(super) const IDLE: Self = Self {
        queued: false,
        full: false,
        group: None,
        theta: f64::INFINITY,
        cuts: Chain::EMPTY,
        dirty_tree: false,
        objects: Chain::EMPTY,
        moved_root: None,
    };
}

/// Many short append-only lists in one reused buffer: what a tick collects
/// *per anchor* (a handful of entries each, for hundreds of anchors) costs
/// no `Vec` per anchor, and anchors that come and go bring no buffers of
/// their own to grow. Entries link to their successor; every list is
/// dropped at once by clearing the buffer.
pub(super) struct Chains<T> {
    entries: Vec<(T, u32)>,
}

/// One list of a [`Chains`] (meaningless once that is cleared).
#[derive(Clone, Copy)]
pub(super) struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    /// Past-the-end link; no buffer gets that long.
    const NIL: u32 = u32::MAX;
    const EMPTY: Self = Self {
        head: Self::NIL,
        tail: Self::NIL,
    };
}

impl<T: Copy> Chains<T> {
    fn new() -> Self {
        Self {
            entries: Vec::with_capacity(SCRATCH_ROOM),
        }
    }

    /// Appends `x` to `chain`, charging buffer growth to `allocs`.
    fn push(&mut self, chain: &mut Chain, x: T, allocs: &mut u64) {
        let at = self.entries.len() as u32;
        push_charged(&mut self.entries, (x, Chain::NIL), allocs);
        match chain.tail {
            Chain::NIL => chain.head = at,
            tail => self.entries[tail as usize].1 = at,
        }
        chain.tail = at;
    }

    /// The entries of `chain`, in the order they were appended.
    pub(super) fn iter(&self, chain: Chain) -> impl Iterator<Item = T> + '_ {
        let mut at = chain.head;
        std::iter::from_fn(move || {
            let &(x, next) = self.entries.get(at as usize)?;
            at = next;
            Some(x)
        })
    }
}

/// Reused buffers of [`AnchorSet::tick`] and of the anchor resolutions it
/// runs. Each starts with [`SCRATCH_ROOM`], and the lists of anchors are
/// given room for every anchor whenever one is added; a tick that still
/// outgrows one charges that to `alloc_events`.
pub(super) struct TickScratch<K> {
    /// Anchors with pending work, each once; sorted before resolution.
    pub(super) queued: Vec<K>,
    /// The lists their work records refer to.
    pub(super) objects: Chains<(ObjectId, Option<NetPoint>)>,
    pub(super) cuts: Chains<NodeId>,
    /// Anchors one update affects.
    pub(super) affected: Vec<K>,
    /// Edges whose weight changed this tick.
    pub(super) changed_edges: FxHashSet<EdgeId>,
    /// `(root identity, anchor)` of every anchor due a from-scratch
    /// recomputation, sorted: co-rooted anchors are adjacent.
    pub(super) by_root: Vec<((u8, u32, u64), K)>,
    /// Survivor candidates of the resolution in progress (§4.2) …
    pub(super) candidates: Vec<Neighbor>,
    /// … and, sorted, the objects this tick's updates touch, which are
    /// not survivors.
    pub(super) touched: Vec<ObjectId>,
    /// `(edge, interval)` pairs of the influence rebuild in progress.
    pub(super) intervals: Vec<(EdgeId, IntervalSet)>,
}

impl<K> TickScratch<K> {
    pub(super) fn new() -> Self {
        Self {
            queued: Vec::with_capacity(SCRATCH_ROOM),
            objects: Chains::new(),
            cuts: Chains::new(),
            affected: Vec::with_capacity(SCRATCH_ROOM),
            changed_edges: FxHashSet::with_capacity_and_hasher(SCRATCH_ROOM, Default::default()),
            by_root: Vec::with_capacity(SCRATCH_ROOM),
            candidates: Vec::with_capacity(SCRATCH_ROOM),
            touched: Vec::with_capacity(SCRATCH_ROOM),
            intervals: Vec::with_capacity(SCRATCH_ROOM),
        }
    }
}

impl<K: Copy + Ord + Hash + Debug> AnchorSet<K> {
    /// Processes one timestamp of updates and returns the work it took;
    /// [`Self::changed`] then lists the anchors whose result changed.
    /// `state` must already reflect the post-tick weights and object
    /// placement (see [`NetworkState::apply_batch`]); `objects` / `edges`
    /// carry the coalesced deltas with old values; `root_moves` carries
    /// anchor movements (IMA queries; empty for GMA's static nodes).
    pub fn tick(
        &mut self,
        state: &NetworkState,
        objects: &[ObjectDelta],
        edges: &[EdgeDelta],
        root_moves: &[(K, RootPos)],
    ) -> OpCounters {
        let mut counters = OpCounters::default();
        // The records are set aside for the tick, so that a record and the
        // rest of the set — what resolves it — can be borrowed together.
        let mut anchors = std::mem::take(&mut self.anchors);
        let scratch = &mut self.scratch;
        scratch.queued.clear();
        scratch.cuts.entries.clear();
        // Most object deltas are handed to at most one anchor: room for one
        // entry per delta up front keeps the list from creeping up to that
        // size one re-allocation at a time. (With no anchor to hand them
        // to — a population being loaded — the list is left as it is.)
        scratch.objects.entries.clear();
        if !anchors.is_empty() && scratch.objects.entries.capacity() < objects.len() {
            counters.alloc_events += 1;
            scratch.objects.entries.reserve(objects.len());
        }

        // ---- Figure 10, lines 1-3: roots moving outside their trees.
        for &(key, new_root) in root_moves {
            let Some(rec) = anchors.get_mut(&key) else {
                continue;
            };
            let outside = !root_within_tree(&self.expander.net, rec, new_root);
            let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
            p.moved_root = Some(new_root);
            if outside {
                p.full = true;
            }
        }

        // ---- Lines 4-13: edge updates.
        //
        // Per affected anchor, a weight change is first tested for
        // *harmlessness to the expansion tree*: if no shortest path in the
        // tree region can improve through the updated edge, the stored
        // distances all stay valid and only the objects **on** that edge
        // change distance — those are funneled into the cheap object
        // fast path. Otherwise the conservative batched rule applies: θ
        // across all decreases, subtree cuts for increased tree links.
        for d in edges {
            scratch.affected.clear();
            if self.use_influence_lists {
                for &(k, _) in self.il.on_edge(d.edge) {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            } else {
                for &k in anchors.keys() {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            }
            if scratch.affected.is_empty() {
                counters.updates_ignored += 1;
                continue;
            }
            for &key in &scratch.affected {
                let Some(rec) = anchors.get_mut(&key) else {
                    continue;
                };
                let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
                if p.full {
                    continue; // recomputation already scheduled
                }
                if rec.root.edge() == Some(d.edge) {
                    // Weight change on the root's own edge rescales both
                    // root branches; recompute (documented simplification
                    // of the paper's §4.4 special case).
                    p.full = true;
                    continue;
                }
                let erec = self.expander.net.edge(d.edge);
                let da = rec.tree.dist(&self.expander.pool, erec.start);
                let db = rec.tree.dist(&self.expander.pool, erec.end);
                if d.new_w < d.old_w {
                    // A decrease can only invalidate tree distances by
                    // creating a shortcut through the edge; entering at a
                    // verified endpoint and crossing costs at least
                    // `d(endpoint) + new_w`.
                    let harmless = match (da, db) {
                        (Some(a), Some(b)) => a + d.new_w >= b && b + d.new_w >= a,
                        (Some(a), None) => a + d.new_w >= rec.knn_dist,
                        (None, Some(b)) => b + d.new_w >= rec.knn_dist,
                        // No verified endpoint: strictly beyond kNN_dist.
                        (None, None) => true,
                    };
                    if harmless {
                        requeue_objects_on(d.edge, state, p, &mut scratch.objects, &mut counters);
                        // The stored influencing interval is a *fraction*
                        // of the edge computed under the old weight; with a
                        // smaller weight the same fraction covers less
                        // distance, i.e. it would under-cover. Re-derive it
                        // from the tree distances and the new weight
                        // (increases over-cover, which is safe, so only
                        // decreases need this).
                        let slack = interval_slack(rec.knn_dist);
                        let mut ivs = IntervalSet::empty();
                        if let Some(a) = da {
                            let f = ((rec.knn_dist - a + slack) / d.new_w).min(1.0);
                            ivs.add(0.0, f);
                        }
                        if let Some(b) = db {
                            let f = ((rec.knn_dist - b + slack) / d.new_w).min(1.0);
                            ivs.add(1.0 - f, 1.0);
                        }
                        self.il.insert(d.edge, key, ivs);
                    } else {
                        p.dirty_tree = true;
                        let d_min = [da, db].into_iter().flatten().fold(f64::INFINITY, f64::min);
                        if d_min.is_finite() {
                            p.theta = p.theta.min(d_min + d.new_w);
                        }
                    }
                } else if let Some(child) =
                    rec.tree
                        .link_child_of_edge(&self.expander.pool, &self.expander.net, d.edge)
                {
                    // Increase of a tree link: the subtree below it may be
                    // reachable on cheaper alternate paths (§4.4).
                    scratch
                        .cuts
                        .push(&mut p.cuts, child, &mut counters.alloc_events);
                    p.dirty_tree = true;
                } else {
                    // Increase of a non-link edge: no shortest path used
                    // it, so the tree is untouched; only the objects on the
                    // edge drift away.
                    requeue_objects_on(d.edge, state, p, &mut scratch.objects, &mut counters);
                }
            }
        }

        // ---- Lines 16-19: object updates, classified via influence lists.
        for d in objects {
            scratch.affected.clear();
            if self.use_influence_lists {
                for p in [d.old, d.new].into_iter().flatten() {
                    for k in self.il.covering(p.edge, p.frac) {
                        push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                    }
                }
            } else {
                for &k in anchors.keys() {
                    push_charged(&mut scratch.affected, k, &mut counters.alloc_events);
                }
            }
            if scratch.affected.is_empty() {
                counters.updates_ignored += 1;
                continue;
            }
            // Deterministic order, duplicates dropped (an anchor may cover
            // both the old and the new position).
            scratch.affected.sort_unstable();
            scratch.affected.dedup();
            for &key in &scratch.affected {
                let Some(rec) = anchors.get_mut(&key) else {
                    continue;
                };
                let p = enqueue(key, &mut rec.work, &mut scratch.queued, &mut counters);
                if !p.full {
                    scratch
                        .objects
                        .push(&mut p.objects, (d.id, d.new), &mut counters.alloc_events);
                }
            }
        }

        // ---- Lines 20-26: resolve every affected anchor, in owner-id order.
        let edge_set_capacity = scratch.changed_edges.capacity();
        scratch.changed_edges.clear();
        scratch.changed_edges.extend(edges.iter().map(|d| d.edge));
        counters.alloc_events += u64::from(scratch.changed_edges.capacity() > edge_set_capacity);
        scratch.queued.sort_unstable();
        self.changed.clear();

        // Shared multi-k expansion: anchors that need a *from-scratch*
        // recomputation this tick and sit at bit-identical roots run ONE
        // expansion at the group's largest k; every member is served from
        // that outcome (its own top-k prefix plus the tree pruned to its
        // own kNN_dist — exactly what an independent expansion returns).
        scratch.by_root.clear();
        for &key in &scratch.queued {
            let rec = &anchors[&key];
            if rec.work.full {
                let root = rec.work.moved_root.unwrap_or(rec.root);
                push_charged(
                    &mut scratch.by_root,
                    (root_group_key(root), key),
                    &mut counters.alloc_events,
                );
            }
        }
        scratch.by_root.sort_unstable();
        // Groups expand in the order of their first (smallest) member:
        // deterministic counters and engine epochs.
        for i in 0..self.scratch.queued.len() {
            let first = &anchors[&self.scratch.queued[i]];
            if !first.work.full || first.work.group.is_some() {
                continue;
            }
            let root = first.work.moved_root.unwrap_or(first.root);
            let id = root_group_key(root);
            let members = {
                let by_root = &self.scratch.by_root;
                let lo = by_root.partition_point(|g| g.0 < id);
                let hi = by_root.partition_point(|g| g.0 <= id);
                &by_root[lo..hi]
            };
            if members.len() < 2 {
                continue;
            }
            let k_max = members
                .iter()
                .map(|(_, k)| anchors[k].k)
                .max()
                .expect("non-empty group");
            counters.shared_expansions += members.len() as u64 - 1;
            let out = self
                .expander
                .expand(state, root, k_max, None, &[], &mut counters);
            let group = Some(self.shared_outcomes.len());
            push_charged(&mut self.shared_outcomes, out, &mut counters.alloc_events);
            for (_, member) in members {
                anchors
                    .get_mut(member)
                    .expect("group members are queued anchors")
                    .work
                    .group = group;
            }
        }

        for i in 0..self.scratch.queued.len() {
            let key = self.scratch.queued[i];
            let rec = anchors.get_mut(&key).expect("queued anchors exist");
            let work = std::mem::replace(&mut rec.work, Pending::IDLE);
            let did_change = match work.group {
                Some(group) => {
                    self.serve_from_shared(state, key, rec, work.moved_root, group, &mut counters)
                }
                None => self.resolve_anchor(state, key, rec, work, &mut counters),
            };
            if did_change {
                push_charged(&mut self.changed, key, &mut counters.alloc_events);
            }
        }
        self.anchors = anchors;
        for out in self.shared_outcomes.drain(..) {
            self.expander.pool.release(out.tree);
        }

        self.harvest_scratch_counters(&mut counters);
        counters
    }
}

/// Puts `key` on the tick's list of anchors to resolve (once) and returns
/// the work record to add to.
fn enqueue<'a, K>(
    key: K,
    work: &'a mut Pending,
    queued: &mut Vec<K>,
    counters: &mut OpCounters,
) -> &'a mut Pending {
    if !work.queued {
        work.queued = true;
        push_charged(queued, key, &mut counters.alloc_events);
    }
    work
}

/// A weight change that leaves the tree as it is still moves the objects
/// on the edge: hands them to the object fast path at their (unchanged)
/// positions.
fn requeue_objects_on(
    edge: EdgeId,
    state: &NetworkState,
    work: &mut Pending,
    objects: &mut Chains<(ObjectId, Option<NetPoint>)>,
    counters: &mut OpCounters,
) {
    for &(obj, frac) in state.objects.on_edge(edge) {
        let at = Some(NetPoint::new(edge, frac));
        objects.push(&mut work.objects, (obj, at), &mut counters.alloc_events);
    }
}

/// Hashable identity of a root position. Point roots group only on
/// bit-identical fractions — the precondition for two expansions being the
/// same expansion.
fn root_group_key(root: RootPos) -> (u8, u32, u64) {
    match root {
        RootPos::Node(n) => (0, n.0, 0),
        RootPos::Point(p) => (1, p.edge.0, p.frac.to_bits()),
    }
}

/// Whether `new_root` falls inside the anchor's current expansion-tree
/// region (§4.3: "if q′ falls in some edge of q.tree" — including partial
/// edges, detected via the tree distances of the edge endpoints).
fn root_within_tree(net: &RoadNetwork, rec: &AnchorRec, new_root: RootPos) -> bool {
    match new_root {
        RootPos::Node(n) => rec.tree.contains(n),
        RootPos::Point(p) => {
            // Within the old root's own edge is always "inside".
            if rec.root.edge() == Some(p.edge) {
                return true;
            }
            let erec = net.edge(p.edge);
            rec.tree.contains(erec.start) || rec.tree.contains(erec.end)
        }
    }
}
