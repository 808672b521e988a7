//! **ET** (partially) — the dynamic network state shared by all monitors:
//! current edge weights and per-edge object lists (§3, edge table items
//! (iii) and (iv); endpoints and adjacency live in the immutable
//! [`RoadNetwork`], influence lists in [`crate::influence`]).
//!
//! Each monitor owns one [`NetworkState`] and applies the same
//! [`UpdateBatch`] to it, so that OVH / IMA / GMA can be driven side by side
//! from a single stream. Applying a batch also performs the paper's §4.5
//! preprocessing: multiple updates of one entity within a timestamp are
//! coalesced into a single `(first old value, last new value)` record.

use std::collections::hash_map::Entry;

use rnn_roadnet::{
    unit, EdgeId, EdgeWeights, FxHashMap, NetPoint, ObjectId, QueryId, RoadNetwork, SpanArena,
};

use crate::types::{object_slot, ObjectEvent, QueryEvent, UpdateBatch, NOWHERE};

/// An object's position plus its index within its edge's arena span (the
/// positional back-reference that makes removal O(1) instead of a linear
/// scan of the edge list). A slot at [`NOWHERE`] holds no object.
#[derive(Clone, Copy, Debug)]
struct ObjSlot {
    at: NetPoint,
    /// Index within the edge span; [`NOT_PLACED`] for a slot on no edge:
    /// a vacant one, or inside [`ObjectIndex::apply_events`] an id the
    /// batch mentions that is on no edge yet.
    idx: u32,
    /// `stamp_base + i` of the batch that last touched this object, `i`
    /// being its delta's index in that batch's output (0 = never touched).
    /// Sits in what was padding, so the table entry did not grow.
    stamp: u32,
}

const NOT_PLACED: u32 = u32::MAX;

/// One entry of an edge's object list.
#[derive(Clone, Copy, Debug)]
pub struct OnEdge {
    /// The object.
    pub object: ObjectId,
    /// The index of the entry that comes at this one's position in the
    /// list's order by fraction, once [`ObjectIndex::ranked`] has written it
    /// (see there). Sits in what was padding, so the entry did not grow.
    pub rank: u32,
    /// Its fraction along the edge.
    pub frac: f64,
}

/// An entry equals the `(object, fraction)` pair it holds; its `rank` is
/// not part of its value.
impl PartialEq<(ObjectId, f64)> for OnEdge {
    fn eq(&self, &(object, frac): &(ObjectId, f64)) -> bool {
        self.object == object && self.frac == frac
    }
}

impl ObjSlot {
    /// A slot no object holds.
    const VACANT: ObjSlot = ObjSlot {
        at: NOWHERE,
        idx: NOT_PLACED,
        stamp: 0,
    };

    /// Whether an object is in this slot.
    #[inline]
    fn live(&self) -> bool {
        self.at.edge != NOWHERE.edge
    }
}

/// Per-edge object lists plus the object → position table.
///
/// The per-edge lists live in one [`SpanArena`] (no per-edge `Vec`
/// allocations; steady-state ticks reuse spans), and each object's table
/// entry carries its index within its edge span, so removal is a
/// positional `swap_remove` — no scan of long edge lists.
///
/// [`Self::ranked`] reads a list in order of fraction without moving an
/// entry: the order is a permutation kept in the entries' `rank`s, written
/// the first time it is asked for after the list last changed.
///
/// The table is indexed by object id, not hashed: it holds one 24 B slot
/// per id up to the largest id seen, so it takes (largest id + 1) × 24 B,
/// at most 48 MiB under [`crate::types::OBJECT_ID_BOUND`].
#[derive(Clone, Debug)]
pub struct ObjectIndex {
    per_edge: SpanArena<OnEdge>,
    /// Whether each edge's `rank`s hold its order by fraction: cleared
    /// whenever the list changes, set by [`Self::ranked`].
    ranked: Vec<bool>,
    /// Slot `id.index()` is object `id`'s; vacant slots are at [`NOWHERE`].
    positions: Vec<ObjSlot>,
    /// Number of live slots.
    len: usize,
    /// Every stamp a finished batch left behind is below this.
    stamp_base: u32,
}

impl Default for ObjectIndex {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ObjectIndex {
    /// Creates an index for `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        Self {
            per_edge: SpanArena::new(num_edges),
            // lint: allow(hot-path-alloc): construction
            ranked: vec![false; num_edges],
            // lint: allow(hot-path-alloc): grows only when a new largest id registers
            positions: Vec::new(),
            len: 0,
            stamp_base: 1,
        }
    }

    /// Inserts a new object. Returns `false` (and does nothing) if the id
    /// already exists.
    ///
    /// # Panics
    /// Panics if `id` is not below [`crate::types::OBJECT_ID_BOUND`].
    pub fn insert(&mut self, id: ObjectId, at: NetPoint) -> bool {
        let slot = object_slot(&mut self.positions, id, ObjSlot::VACANT);
        if slot.live() {
            return false;
        }
        let idx = self.push(id, at);
        let slot = &mut self.positions[id.index()];
        *slot = ObjSlot {
            at,
            idx: idx as u32,
            stamp: 0,
        };
        self.len += 1;
        true
    }

    /// Appends object `id` at `at` to its edge's list; returns its index
    /// there.
    fn push(&mut self, id: ObjectId, at: NetPoint) -> usize {
        self.ranked[at.edge.index()] = false;
        let entry = OnEdge {
            object: id,
            rank: 0,
            frac: at.frac,
        };
        self.per_edge.push(at.edge.index(), entry)
    }

    /// Unlinks entry `idx` of edge `e` (a positional `swap_remove`) and
    /// fixes up the back-reference of the one entry that took its place.
    fn unlink(&mut self, e: usize, idx: u32, id: ObjectId) {
        self.ranked[e] = false;
        let removed = self.per_edge.swap_remove(e, idx as usize);
        debug_assert_eq!(removed.object, id, "object list out of sync");
        if let Some(moved) = self.per_edge.get(e).get(idx as usize) {
            self.positions[moved.object.index()].idx = idx;
        }
    }

    /// Removes an object, returning its last position. O(1): the stored
    /// back-reference replaces the edge-list scan.
    pub fn remove(&mut self, id: ObjectId) -> Option<NetPoint> {
        let slot = self.positions.get_mut(id.index()).filter(|s| s.live())?;
        let ObjSlot { at, idx, .. } = std::mem::replace(slot, ObjSlot::VACANT);
        self.len -= 1;
        self.unlink(at.edge.index(), idx, id);
        Some(at)
    }

    /// Moves an object, returning its previous position. Returns `None`
    /// (and does nothing) for unknown ids. The table entry is rewritten in
    /// place; the edge lists change exactly as a removal followed by an
    /// insertion would change them.
    pub fn relocate(&mut self, id: ObjectId, to: NetPoint) -> Option<NetPoint> {
        let slot = self.positions.get_mut(id.index()).filter(|s| s.live())?;
        let (old, old_idx) = (slot.at, slot.idx);
        slot.at = to;
        // Where the push below will land: the end of the target list, one
        // earlier when the unlink takes an entry out of that same list.
        let same_edge = old.edge == to.edge;
        slot.idx = (self.per_edge.len_of(to.edge.index()) - usize::from(same_edge)) as u32;
        self.unlink(old.edge.index(), old_idx, id);
        let idx = self.push(id, to);
        debug_assert_eq!(idx as u32, self.positions[id.index()].idx);
        Some(old)
    }

    /// §4.5 preprocessing and application of one timestamp's object
    /// events: every id is folded into one `(first old, last new)` delta,
    /// deltas come out in first-appearance order with no-ops dropped, and
    /// the index ends up holding each id's last position.
    ///
    /// The table lookup an event needs anyway (its old position) is also
    /// what recognises a repeated id: the first event of an id stamps its
    /// slot with the index of the delta it opens, so a later event of the
    /// same id finds that delta in O(1) and no side table is built. An id
    /// not in the index is stamped in its vacant slot, which stays on no
    /// edge until the fold is over, so `insert → delete` and `delete →
    /// insert` fold the same way.
    ///
    /// Kept out of line: inlined into [`NetworkState::apply_batch`] the
    /// fold shares registers with the edge and query folds and a tick of
    /// 50K moves takes a quarter longer (3.6 → 4.6 ms), whichever way the
    /// other two happen to be written.
    ///
    /// # Panics
    /// Panics if an event's id is not below
    /// [`crate::types::OBJECT_ID_BOUND`], before the table grows for it.
    #[inline(never)]
    fn apply_events(&mut self, events: &[ObjectEvent]) -> Vec<ObjectDelta> {
        let base = self.open_stamps(events.len());
        let mut deltas: Vec<ObjectDelta> = Vec::with_capacity(events.len());
        for ev in events {
            let (id, new) = match *ev {
                ObjectEvent::Move { id, to } => (id, Some(to)),
                ObjectEvent::Insert { id, at } => (id, Some(at)),
                ObjectEvent::Delete { id } => (id, None),
            };
            let slot = object_slot(&mut self.positions, id, ObjSlot::VACANT);
            if slot.stamp >= base {
                deltas[(slot.stamp - base) as usize].new = new;
                continue;
            }
            slot.stamp = base + deltas.len() as u32;
            let old = slot.live().then_some(slot.at);
            deltas.push(ObjectDelta { id, old, new });
        }

        let mut kept = 0;
        for i in 0..deltas.len() {
            let d = deltas[i];
            match (d.old, d.new) {
                // Appeared and vanished within the tick: the slot stays
                // vacant.
                (None, None) => continue,
                (Some(o), Some(n)) if o == n => continue, // no net movement
                (None, Some(n)) => {
                    let idx = self.push(d.id, n);
                    let slot = &mut self.positions[d.id.index()];
                    slot.at = n;
                    slot.idx = idx as u32;
                    self.len += 1;
                }
                (Some(_), Some(n)) => {
                    self.relocate(d.id, n);
                }
                (Some(_), None) => {
                    self.remove(d.id);
                }
            }
            deltas[kept] = d;
            kept += 1;
        }
        deltas.truncate(kept);
        deltas
    }

    /// Reserves the stamp range `base .. base + events` for one batch and
    /// returns `base`; every stamp left by earlier batches is below it.
    fn open_stamps(&mut self, events: usize) -> u32 {
        let span = u32::try_from(events).expect("batch exceeds u32 events");
        if self.stamp_base.checked_add(span).is_none() {
            // Stamp wrap (once per ~4·10^9 events): forget every stamp.
            for slot in &mut self.positions {
                slot.stamp = 0;
            }
            self.stamp_base = 1;
        }
        let base = self.stamp_base;
        self.stamp_base += span;
        base
    }

    /// Current position of `id`.
    #[inline]
    pub fn position(&self, id: ObjectId) -> Option<NetPoint> {
        let slot = self.positions.get(id.index())?;
        slot.live().then_some(slot.at)
    }

    /// Objects currently on edge `e`.
    #[inline]
    pub fn on_edge(&self, e: EdgeId) -> &[OnEdge] {
        self.per_edge.get(e.index())
    }

    /// Objects currently on edge `e`, with its order by `(frac, id)`
    /// threaded through their `rank`s: the entry at index `list[0].rank`
    /// comes first, the one at `list[1].rank` second, and so on. An offset
    /// along the edge never decreases with the fraction
    /// ([`rnn_roadnet::offset`]), so that order sorts the list by distance
    /// from the edge's start under any weight, ties aside.
    ///
    /// The order is written (a sort of the `rank`s in place, O(n log n),
    /// moving no entry) only when the list has changed since it was last
    /// written, and nothing is allocated.
    pub fn ranked(&mut self, e: EdgeId) -> &[OnEdge] {
        let list = self.per_edge.get_mut(e.index());
        if !std::mem::replace(&mut self.ranked[e.index()], true) {
            rank_by_fraction(list);
        }
        list
    }

    /// Every object id the index holds is below this: the length of its
    /// table, one past the largest id it has a slot for.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.positions.len()
    }

    /// Number of objects in the system.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over all `(id, position)` pairs, in ascending id order
    /// (the table's own order).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, NetPoint)> + '_ {
        (self.positions.iter().enumerate())
            .filter(|(_, s)| s.live())
            .map(|(i, s)| (ObjectId::from_index(i), s.at))
    }

    /// Validates the index against itself (tests and debugging): every
    /// object sits exactly once in the list of the edge it is positioned
    /// on, at the index its table entry refers back to, with its fraction;
    /// the lists hold nothing else; vacant slots are on no edge; and
    /// [`Self::len`] counts the live slots.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        for (i, slot) in self.positions.iter().enumerate() {
            let id = ObjectId::from_index(i);
            if !slot.live() {
                assert_eq!(slot.idx, NOT_PLACED, "vacant {id:?} is placed");
                continue;
            }
            let list = self.on_edge(slot.at.edge);
            assert!(
                list.get(slot.idx as usize)
                    .is_some_and(|x| *x == (id, slot.at.frac)),
                "{id:?} is not at its back-referenced index"
            );
            assert_eq!(
                list.iter().filter(|x| x.object == id).count(),
                1,
                "{id:?} listed more than once on its edge"
            );
        }
        for e in (0..self.ranked.len()).filter(|&e| self.ranked[e]) {
            let list = self.per_edge.get(e);
            let nth = |x: &OnEdge| &list[x.rank as usize];
            let sorted = (list.windows(2)).all(|p| by_fraction(nth(&p[0]), nth(&p[1])).is_lt());
            assert!(sorted, "edge {e}'s ranks do not sort it");
        }
        assert_eq!(self.iter().count(), self.len, "len is not the live count");
        let listed: usize = (0..self.per_edge.num_slots())
            .map(|e| self.per_edge.len_of(e))
            .sum();
        assert_eq!(listed, self.len, "edge lists hold strays");
    }

    /// Arena alloc events accumulated since the last take (backing-buffer
    /// reallocations; zero across a tick = the tick's object churn ran
    /// entirely in reused spans).
    pub fn take_alloc_events(&mut self) -> u64 {
        self.per_edge.take_alloc_events()
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.per_edge.memory_bytes()
            + self.positions.capacity() * std::mem::size_of::<ObjSlot>()
            + self.ranked.capacity()
    }
}

/// The order [`ObjectIndex::ranked`] threads through a list: by fraction,
/// ties by id.
fn by_fraction(x: &OnEdge, y: &OnEdge) -> std::cmp::Ordering {
    x.frac.total_cmp(&y.frac).then(x.object.cmp(&y.object))
}

/// Writes into the `rank`s of `list` its order by `(frac, id)`: afterwards
/// `list[list[i].rank]` is the i-th entry in that order. A sort of the
/// `rank`s in place (a heapsort, O(n log n)), so no entry moves and
/// nothing is allocated.
fn rank_by_fraction(list: &mut [OnEdge]) {
    for (i, x) in list.iter_mut().enumerate() {
        x.rank = i as u32;
    }
    // Whether the entry ranked at position `a` comes before the one at `b`.
    let before = |list: &[OnEdge], a: usize, b: usize| {
        let (x, y) = (&list[list[a].rank as usize], &list[list[b].rank as usize]);
        by_fraction(x, y).is_lt()
    };
    let swap = |list: &mut [OnEdge], a: usize, b: usize| {
        let r = list[a].rank;
        list[a].rank = list[b].rank;
        list[b].rank = r;
    };
    // Moves position `at` down the max-heap over positions `..end`.
    let sift = |list: &mut [OnEdge], mut at: usize, end: usize| loop {
        let mut child = 2 * at + 1;
        if child >= end {
            break;
        }
        if child + 1 < end && before(list, child, child + 1) {
            child += 1;
        }
        if !before(list, at, child) {
            break;
        }
        swap(list, at, child);
        at = child;
    };
    let n = list.len();
    for at in (0..n / 2).rev() {
        sift(list, at, n);
    }
    for end in (1..n).rev() {
        swap(list, 0, end);
        sift(list, 0, end);
    }
}

/// A coalesced object event with the old position resolved (§4.5
/// preprocessing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectDelta {
    /// The object.
    pub id: ObjectId,
    /// Position before the tick (`None` = the object just appeared).
    pub old: Option<NetPoint>,
    /// Position after the tick (`None` = the object disappeared).
    pub new: Option<NetPoint>,
}

/// A coalesced edge-weight change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeDelta {
    /// The edge.
    pub edge: EdgeId,
    /// Weight before the tick.
    pub old_w: f64,
    /// Weight after the tick.
    pub new_w: f64,
}

/// A coalesced query event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryDelta {
    /// The query.
    pub id: QueryId,
    /// `(k, position)` before the tick (`None` = just installed).
    pub old: Option<(usize, NetPoint)>,
    /// `(k, position)` after the tick (`None` = terminated).
    pub new: Option<(usize, NetPoint)>,
}

/// The effects of one batch after §4.5 preprocessing, with old values
/// captured *before* the state mutation.
#[derive(Clone, Debug, Default)]
pub struct CoalescedTick {
    /// Net object movements/appearances/disappearances (no-op events, e.g.
    /// insert+delete in the same tick, are dropped).
    pub objects: Vec<ObjectDelta>,
    /// Net edge weight changes (`old_w != new_w`).
    pub edges: Vec<EdgeDelta>,
    /// Net query movements/installs/removals.
    pub queries: Vec<QueryDelta>,
}

/// Dynamic network state: weights + object index.
pub struct NetworkState {
    /// Current edge weights.
    pub weights: EdgeWeights,
    /// Current object placement.
    pub objects: ObjectIndex,
    /// Registered queries: id → (k, position). Maintained here so every
    /// monitor coalesces query events identically.
    pub queries: FxHashMap<QueryId, (usize, NetPoint)>,
    /// Scratch of [`Self::apply_batch`]: raw edge / query id → index of the
    /// delta the id opened this tick. Cleared, never rebuilt; it holds at
    /// most one entry per edge or query, so what it keeps is bounded by the
    /// network, not by the largest batch ever seen.
    delta_of: FxHashMap<u32, u32>,
}

impl NetworkState {
    /// Fresh state over `net` with base weights and no objects.
    pub fn new(net: &RoadNetwork) -> Self {
        Self {
            weights: EdgeWeights::from_base(net),
            objects: ObjectIndex::new(net.num_edges()),
            // lint: allow(hot-path-alloc): construction; grows only when queries are installed
            queries: FxHashMap::default(),
            // lint: allow(hot-path-alloc): construction; apply_batch clears and refills it in kept capacity
            delta_of: FxHashMap::default(),
        }
    }

    /// Applies a raw batch: coalesces per-entity events (§4.5), mutates the
    /// state, and returns the deltas (old values captured pre-mutation).
    ///
    /// Per kind, each id is folded into one `(first old, last new)` delta,
    /// deltas are in first-appearance order, and deltas without a net
    /// effect are dropped. The three lists are sized to the batch and
    /// handed to the caller, so a one-off resync batch leaves nothing
    /// resident here.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> CoalescedTick {
        let objects = self.objects.apply_events(&batch.objects);

        // --- Edges: last weight wins, rounded to the distance unit first so
        // that a change smaller than one unit is no change.
        let mut edges: Vec<EdgeDelta> = Vec::with_capacity(batch.edges.len());
        self.delta_of.clear();
        for u in &batch.edges {
            let new_w = unit(u.new_weight);
            match self.delta_of.entry(u.edge.0) {
                Entry::Occupied(e) => edges[*e.get() as usize].new_w = new_w,
                Entry::Vacant(e) => {
                    e.insert(edges.len() as u32);
                    edges.push(EdgeDelta {
                        edge: u.edge,
                        old_w: self.weights.get(u.edge),
                        new_w,
                    });
                }
            }
        }
        edges.retain(|d| d.new_w != d.old_w);
        for d in &edges {
            self.weights.set(d.edge, d.new_w);
        }

        // --- Queries.
        let mut queries: Vec<QueryDelta> = Vec::with_capacity(batch.queries.len());
        self.delta_of.clear();
        for ev in &batch.queries {
            let id = match *ev {
                QueryEvent::Move { id, .. }
                | QueryEvent::Install { id, .. }
                | QueryEvent::Remove { id } => id,
            };
            let open = self.delta_of.get(&id.0).map(|&i| i as usize);
            let old = match open {
                Some(i) => queries[i].old,
                None => self.queries.get(&id).copied(),
            };
            let new = match *ev {
                QueryEvent::Move { to, .. } => {
                    // Keep the k the query has by now: what this tick's
                    // earlier events left it with, else what it had before
                    // the tick. A move of a query that is not registered
                    // by now — never was, or removed earlier this tick —
                    // is invalid and dropped.
                    let current = open.map_or(old, |i| queries[i].new);
                    match current {
                        Some((k, _)) => Some((k, to)),
                        None => continue,
                    }
                }
                QueryEvent::Install { k, at, .. } => Some((k, at)),
                QueryEvent::Remove { .. } => None,
            };
            match open {
                Some(i) => queries[i].new = new,
                None => {
                    self.delta_of.insert(id.0, queries.len() as u32);
                    queries.push(QueryDelta { id, old, new });
                }
            }
        }
        queries.retain(|d| d.old != d.new);
        for d in &queries {
            match d.new {
                Some(n) => {
                    self.queries.insert(d.id, n);
                }
                None => {
                    self.queries.remove(&d.id);
                }
            }
        }

        CoalescedTick {
            objects,
            edges,
            queries,
        }
    }

    /// Approximate resident bytes of the dynamic state.
    pub fn memory_bytes(&self) -> usize {
        self.weights.memory_bytes()
            + self.objects.memory_bytes()
            + self.queries.capacity()
                * (std::mem::size_of::<QueryId>() + std::mem::size_of::<(usize, NetPoint)>())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::types::{EdgeWeightUpdate, OBJECT_ID_BOUND};
    use rnn_roadnet::generators::line_network;

    fn state() -> NetworkState {
        NetworkState::new(&line_network(4, 1.0)) // 3 edges
    }

    #[test]
    fn object_lifecycle() {
        let mut s = state();
        assert!(s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(0), 0.5)));
        assert!(
            !s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(1), 0.5)),
            "dup insert"
        );
        assert_eq!(s.objects.len(), 1);
        assert_eq!(s.objects.on_edge(EdgeId(0)).len(), 1);

        let old = s
            .objects
            .relocate(ObjectId(1), NetPoint::new(EdgeId(2), 0.25))
            .unwrap();
        assert_eq!(old.edge, EdgeId(0));
        assert!(s.objects.on_edge(EdgeId(0)).is_empty());
        assert_eq!(s.objects.on_edge(EdgeId(2)), &[(ObjectId(1), 0.25)]);

        let last = s.objects.remove(ObjectId(1)).unwrap();
        assert_eq!(last.edge, EdgeId(2));
        assert!(s.objects.is_empty());
        assert!(s.objects.remove(ObjectId(1)).is_none());
    }

    #[test]
    fn batch_coalesces_multiple_object_moves() {
        let mut s = state();
        s.objects.insert(ObjectId(7), NetPoint::new(EdgeId(0), 0.1));
        let batch = UpdateBatch {
            objects: vec![
                ObjectEvent::Move {
                    id: ObjectId(7),
                    to: NetPoint::new(EdgeId(1), 0.5),
                },
                ObjectEvent::Move {
                    id: ObjectId(7),
                    to: NetPoint::new(EdgeId(2), 0.9),
                },
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.objects.len(), 1, "two moves coalesce into one delta");
        let d = tick.objects[0];
        assert_eq!(d.old.unwrap().edge, EdgeId(0));
        assert_eq!(d.new.unwrap().edge, EdgeId(2));
        assert_eq!(s.objects.position(ObjectId(7)).unwrap().edge, EdgeId(2));
    }

    #[test]
    fn batch_insert_then_delete_is_noop() {
        let mut s = state();
        let batch = UpdateBatch {
            objects: vec![
                ObjectEvent::Insert {
                    id: ObjectId(3),
                    at: NetPoint::new(EdgeId(1), 0.5),
                },
                ObjectEvent::Delete { id: ObjectId(3) },
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.objects.is_empty());
        assert!(s.objects.is_empty());
    }

    #[test]
    fn batch_coalesces_edge_updates_and_drops_noops() {
        let mut s = state();
        let batch = UpdateBatch {
            edges: vec![
                EdgeWeightUpdate {
                    edge: EdgeId(0),
                    new_weight: 2.0,
                },
                EdgeWeightUpdate {
                    edge: EdgeId(0),
                    new_weight: 3.0,
                },
                EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 1.0,
                }, // == old
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.edges.len(), 1);
        assert_eq!(
            tick.edges[0],
            EdgeDelta {
                edge: EdgeId(0),
                old_w: 1.0,
                new_w: 3.0
            }
        );
        assert_eq!(s.weights.get(EdgeId(0)), 3.0);
        assert_eq!(s.weights.get(EdgeId(1)), 1.0);
    }

    #[test]
    fn batch_query_lifecycle() {
        let mut s = state();
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Install {
                id: QueryId(1),
                k: 3,
                at: NetPoint::new(EdgeId(0), 0.5),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.queries.len(), 1);
        assert!(tick.queries[0].old.is_none());
        assert_eq!(tick.queries[0].new.unwrap().0, 3);

        // Move keeps k.
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(1),
                to: NetPoint::new(EdgeId(2), 0.1),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(
            tick.queries[0].new.unwrap(),
            (3, NetPoint::new(EdgeId(2), 0.1))
        );

        // Remove.
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Remove { id: QueryId(1) }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.queries[0].new.is_none());
        assert!(s.queries.is_empty());
    }

    #[test]
    fn move_of_unknown_query_is_dropped() {
        let mut s = state();
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(9),
                to: NetPoint::new(EdgeId(0), 0.5),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.queries.is_empty());

        // Unknown by now counts too: a move after the batch's own remove
        // does not bring the query back.
        let at = NetPoint::new(EdgeId(1), 0.5);
        s.queries.insert(QueryId(9), (2, at));
        let batch = UpdateBatch {
            queries: vec![
                QueryEvent::Remove { id: QueryId(9) },
                QueryEvent::Move {
                    id: QueryId(9),
                    to: NetPoint::new(EdgeId(0), 0.5),
                },
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.queries.len(), 1);
        assert_eq!(
            (tick.queries[0].old, tick.queries[0].new),
            (Some((2, at)), None)
        );
        assert!(s.queries.is_empty());
    }

    /// A hot edge that moves every round pulls objects in (lists fill past
    /// 64) and the edges it left drain, so spans shrink over and over:
    /// every edge list stays equal, element for element, to a `Vec` per
    /// edge with the same `swap_remove`/`push` history, and the positional
    /// back-references stay exact.
    #[test]
    fn seeded_fill_and_drain_churn_keeps_order_and_back_references() {
        const EDGES: u32 = 6;
        let mut idx = ObjectIndex::new(EDGES as usize);
        let mut model: Vec<Vec<(ObjectId, f64)>> = vec![Vec::new(); EDGES as usize];
        let mut live: Vec<ObjectId> = Vec::new();
        let mut next_id = 0u32;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let unlink = |model: &mut Vec<Vec<(ObjectId, f64)>>, e: EdgeId, id: ObjectId| {
            let list = &mut model[e.index()];
            let i = list.iter().position(|&(o, _)| o == id).expect("modelled");
            list.swap_remove(i);
        };
        let mut longest = 0;
        for round in 0..60u32 {
            let hot = EdgeId(round % EDGES);
            for _ in 0..150 {
                let at = NetPoint::new(hot, draw(1000) as f64 / 1000.0);
                match draw(10) {
                    0..=1 => {
                        let id = ObjectId(next_id);
                        next_id += 1;
                        assert!(idx.insert(id, at));
                        model[hot.index()].push((id, at.frac));
                        live.push(id);
                    }
                    2 if !live.is_empty() => {
                        let id = live.swap_remove(draw(live.len() as u64) as usize);
                        let old = idx.remove(id).expect("live");
                        unlink(&mut model, old.edge, id);
                    }
                    _ if !live.is_empty() => {
                        let id = live[draw(live.len() as u64) as usize];
                        let old = idx.relocate(id, at).expect("live");
                        unlink(&mut model, old.edge, id);
                        model[hot.index()].push((id, at.frac));
                    }
                    _ => {}
                }
                for e in 0..EDGES {
                    assert_eq!(idx.on_edge(EdgeId(e)), model[e as usize].as_slice());
                }
                longest = longest.max(model[hot.index()].len());
            }
            idx.check_invariants();
        }
        assert!(longest >= 64, "lists must fill past 64 ({longest})");
        assert_eq!(idx.len(), live.len());
    }

    /// The §4.5 fold of `events` over `model`, written from its rule: one
    /// delta per id in first-appearance order, `(position before the
    /// batch, its last event's position)`, deltas without a net effect
    /// dropped; `model` ends at each id's last position.
    fn reference_fold(
        model: &mut BTreeMap<ObjectId, NetPoint>,
        events: &[ObjectEvent],
    ) -> Vec<ObjectDelta> {
        let mut deltas: Vec<ObjectDelta> = Vec::new();
        for ev in events {
            let (id, new) = match *ev {
                ObjectEvent::Move { id, to } | ObjectEvent::Insert { id, at: to } => (id, Some(to)),
                ObjectEvent::Delete { id } => (id, None),
            };
            match deltas.iter_mut().find(|d| d.id == id) {
                Some(d) => d.new = new,
                None => deltas.push(ObjectDelta {
                    id,
                    old: model.get(&id).copied(),
                    new,
                }),
            }
        }
        deltas.retain(|d| d.old != d.new);
        for d in &deltas {
            match d.new {
                Some(n) => model.insert(d.id, n),
                None => model.remove(&d.id),
            };
        }
        deltas
    }

    /// The index holds `model`'s count and every probed id's position.
    fn assert_holds(idx: &ObjectIndex, model: &BTreeMap<ObjectId, NetPoint>, probes: &[ObjectId]) {
        assert_eq!(idx.len(), model.len());
        for &id in probes {
            assert_eq!(idx.position(id), model.get(&id).copied(), "{id:?}");
        }
    }

    /// The invariants, the count and ascending iteration, which walk the
    /// whole table.
    fn assert_holds_all(idx: &ObjectIndex, model: &BTreeMap<ObjectId, NetPoint>) {
        idx.check_invariants();
        assert_eq!(idx.len(), model.len());
        let listed: Vec<_> = idx.iter().collect();
        let expected: Vec<_> = model.iter().map(|(&id, &at)| (id, at)).collect();
        assert_eq!(
            listed, expected,
            "iter() is the model in ascending id order"
        );
    }

    #[test]
    fn table_slots_stay_24_bytes() {
        assert_eq!(std::mem::size_of::<ObjSlot>(), 24);
        // The rank sits in what was padding beside the id.
        assert_eq!(std::mem::size_of::<OnEdge>(), 16);
    }

    /// `ranked` threads a list's order by `(frac, id)` through its `rank`s,
    /// and every change to the list makes the next call write it anew.
    #[test]
    fn ranked_follows_every_change_to_a_list() {
        let (e, other) = (EdgeId(0), EdgeId(1));
        let mut idx = ObjectIndex::new(2);
        let order = |idx: &mut ObjectIndex| {
            let list = idx.ranked(e);
            let nth = |x: &OnEdge| list[x.rank as usize];
            list.iter()
                .map(|x| (nth(x).frac, nth(x).object.0))
                .collect::<Vec<_>>()
        };
        for (id, f) in [(5, 0.5), (9, 0.25), (2, 0.5), (7, 1.0), (3, 0.0), (8, 0.5)] {
            idx.insert(ObjectId(id), NetPoint::new(e, f));
        }
        let want = [(0.0, 3), (0.25, 9), (0.5, 2), (0.5, 5), (0.5, 8), (1.0, 7)];
        assert_eq!(order(&mut idx), want);
        idx.check_invariants();
        idx.remove(ObjectId(3));
        idx.relocate(ObjectId(7), NetPoint::new(e, 0.125));
        idx.relocate(ObjectId(9), NetPoint::new(other, 0.5));
        // Stale ranks are not checked until the order is asked for again.
        idx.check_invariants();
        assert_eq!(order(&mut idx), [(0.125, 7), (0.5, 2), (0.5, 5), (0.5, 8)]);
        idx.check_invariants();
        // A crowded list, inserted out of order.
        for i in 0..300u32 {
            idx.insert(
                ObjectId(100 + i),
                NetPoint::new(e, f64::from(i * 37 % 64) / 64.0),
            );
        }
        let crowded = order(&mut idx);
        assert_eq!(crowded.len(), 304);
        assert!(crowded.windows(2).all(|p| p[0] < p[1]));
        idx.check_invariants();
    }

    /// Random programs of direct calls and batches over ids `0..64` plus
    /// the largest id the bound admits, checked against a `BTreeMap` after
    /// every step. The programs open with the in-batch folds by name:
    /// insert → delete, delete → insert and move → move → delete.
    #[test]
    fn random_programs_match_a_btreemap_model() {
        const EDGES: u32 = 6;
        let top = ObjectId(OBJECT_ID_BOUND - 1);
        let ids: Vec<ObjectId> = (0..64).map(ObjectId).chain([top]).collect();
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e % EDGES), f);
        let mut idx = ObjectIndex::new(EDGES as usize);
        let mut model = BTreeMap::new();
        let fold = |idx: &mut ObjectIndex, model: &mut BTreeMap<_, _>, events: &[ObjectEvent]| {
            let got = idx.apply_events(events);
            assert_eq!(got, reference_fold(model, events), "{events:?}");
            assert_holds(idx, model, &ids);
            got
        };

        use ObjectEvent::{Delete, Insert, Move};
        let setup = [
            Insert {
                id: ObjectId(2),
                at: at(0, 0.5),
            },
            Insert {
                id: ObjectId(3),
                at: at(1, 0.5),
            },
            Insert {
                id: top,
                at: at(2, 0.5),
            },
        ];
        assert_eq!(fold(&mut idx, &mut model, &setup).len(), 3);
        let insert_delete = [
            Insert {
                id: ObjectId(1),
                at: at(3, 0.25),
            },
            Delete { id: ObjectId(1) },
        ];
        assert!(fold(&mut idx, &mut model, &insert_delete).is_empty());
        let delete_insert = [
            Delete { id: ObjectId(2) },
            Insert {
                id: ObjectId(2),
                at: at(4, 0.75),
            },
        ];
        assert_eq!(fold(&mut idx, &mut model, &delete_insert).len(), 1);
        let move_move_delete = [
            Move {
                id: ObjectId(3),
                to: at(2, 0.125),
            },
            Move {
                id: top,
                to: at(5, 0.125),
            },
            Move {
                id: ObjectId(3),
                to: at(3, 0.625),
            },
            Move {
                id: top,
                to: at(1, 0.625),
            },
            Delete { id: ObjectId(3) },
            Delete { id: top },
        ];
        let deltas = fold(&mut idx, &mut model, &move_move_delete);
        assert!(deltas.iter().all(|d| d.old.is_some() && d.new.is_none()));
        assert_eq!(deltas.len(), 2);
        assert_holds_all(&idx, &model);

        fn draw(rng: &mut u64, n: u64) -> u64 {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        }
        let point = |rng: &mut u64| at(draw(rng, EDGES as u64) as u32, draw(rng, 8) as f64 / 8.0);
        let pick = |rng: &mut u64, pool: u64| ids[draw(rng, pool) as usize];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..600 {
            // Most steps draw from a few ids, so batches repeat ids often;
            // some draw from all 65, the largest id included.
            let pool = if draw(&mut rng, 4) == 0 {
                ids.len() as u64
            } else {
                6
            };
            match draw(&mut rng, 5) {
                0 => {
                    let (id, p) = (pick(&mut rng, pool), point(&mut rng));
                    assert_eq!(idx.insert(id, p), !model.contains_key(&id));
                    model.entry(id).or_insert(p);
                }
                1 => {
                    let (id, p) = (pick(&mut rng, pool), point(&mut rng));
                    let old = model.get(&id).copied();
                    assert_eq!(idx.relocate(id, p), old);
                    if old.is_some() {
                        model.insert(id, p);
                    }
                }
                2 => {
                    let id = pick(&mut rng, pool);
                    assert_eq!(idx.remove(id), model.remove(&id));
                }
                _ => {
                    let events: Vec<ObjectEvent> = (0..1 + draw(&mut rng, 10))
                        .map(|_| match draw(&mut rng, 3) {
                            0 => Insert {
                                id: pick(&mut rng, pool),
                                at: point(&mut rng),
                            },
                            1 => Move {
                                id: pick(&mut rng, pool),
                                to: point(&mut rng),
                            },
                            _ => Delete {
                                id: pick(&mut rng, pool),
                            },
                        })
                        .collect();
                    fold(&mut idx, &mut model, &events);
                }
            }
            assert_holds(&idx, &model, &ids);
            if step % 50 == 0 {
                assert_holds_all(&idx, &model);
            }
        }
        assert_holds_all(&idx, &model);
    }

    /// A batch whose stamp range would run past `u32::MAX` restarts the
    /// range, and the stamps earlier batches left near the top must not
    /// read as the new batch's.
    #[test]
    fn a_batch_that_straddles_the_stamp_wrap_folds_correctly() {
        use ObjectEvent::{Delete, Insert, Move};
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        let ids: Vec<ObjectId> = (0..6).map(ObjectId).collect();
        let mut idx = ObjectIndex::new(4);
        let mut model = BTreeMap::new();
        let mut fold = |idx: &mut ObjectIndex, events: &[ObjectEvent]| {
            assert_eq!(idx.apply_events(events), reference_fold(&mut model, events));
            assert_holds(idx, &model, &ids);
            assert_holds_all(idx, &model);
        };
        let setup: Vec<ObjectEvent> = (0..5)
            .map(|i| Insert {
                id: ObjectId(i),
                at: at(i % 4, 0.5),
            })
            .collect();
        fold(&mut idx, &setup);

        idx.stamp_base = u32::MAX - 8;
        let near_the_top = [
            Move {
                id: ObjectId(0),
                to: at(1, 0.25),
            },
            Move {
                id: ObjectId(1),
                to: at(2, 0.25),
            },
            Move {
                id: ObjectId(0),
                to: at(3, 0.25),
            },
            Delete { id: ObjectId(2) },
        ];
        fold(&mut idx, &near_the_top);
        assert_eq!(idx.stamp_base, u32::MAX - 4);

        let straddling = [
            Move {
                id: ObjectId(1),
                to: at(0, 0.75),
            },
            Move {
                id: ObjectId(0),
                to: at(0, 0.125),
            },
            Insert {
                id: ObjectId(2),
                at: at(2, 0.75),
            },
            Delete { id: ObjectId(3) },
            Move {
                id: ObjectId(1),
                to: at(1, 0.75),
            },
            Insert {
                id: ObjectId(3),
                at: at(3, 0.75),
            },
            Delete { id: ObjectId(0) },
        ];
        fold(&mut idx, &straddling);
        assert_eq!(
            idx.stamp_base,
            1 + straddling.len() as u32,
            "the range restarted"
        );

        let after = [
            Move {
                id: ObjectId(1),
                to: at(3, 0.5),
            },
            Insert {
                id: ObjectId(5),
                at: at(0, 0.5),
            },
            Move {
                id: ObjectId(1),
                to: at(2, 0.5),
            },
        ];
        fold(&mut idx, &after);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let mut s = state();
        s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(0), 0.5));
        assert!(s.memory_bytes() > 0);
    }
}
