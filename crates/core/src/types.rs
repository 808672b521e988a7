//! Public value types: query results, anchor roots, and the per-timestamp
//! update batch that drives every monitor.

use rnn_roadnet::{EdgeId, NetPoint, NodeId, ObjectId, QueryId, RoadNetwork};
use serde::{Deserialize, Serialize};

/// One entry of a k-NN result: a data object and its network distance from
/// the query.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The data object.
    pub object: ObjectId,
    /// Network distance from the query (sum of edge weights along the
    /// shortest path, §3).
    pub dist: f64,
}

impl Neighbor {
    /// Deterministic ordering: by distance, ties by object id.
    #[inline]
    pub fn sort_key(&self) -> (f64, ObjectId) {
        (self.dist, self.object)
    }
}

/// The canonical result order: by `(dist, object)`. Distances are
/// non-negative and never NaN, where `total_cmp` is the numeric order.
#[inline]
pub fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist
        .total_cmp(&b.dist)
        .then_with(|| a.object.cmp(&b.object))
}

/// Sorts neighbors by `(dist, object)` — the canonical result order.
pub fn sort_neighbors(v: &mut [Neighbor]) {
    v.sort_by(cmp_neighbors);
}

/// Where a monitored expansion is rooted: a user query sits at an arbitrary
/// point on an edge, while GMA's active nodes sit exactly on network nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RootPos {
    /// Rooted at a network node (GMA active nodes).
    Node(NodeId),
    /// Rooted at a point on an edge (user queries).
    Point(NetPoint),
}

impl RootPos {
    /// The edge the root lies on, if it is a point root.
    #[inline]
    pub fn edge(&self) -> Option<EdgeId> {
        match self {
            RootPos::Point(p) => Some(p.edge),
            RootPos::Node(_) => None,
        }
    }

    /// Interprets the root as a node if it is one (or a point pinned to an
    /// edge endpoint).
    pub fn as_node(&self, net: &RoadNetwork) -> Option<NodeId> {
        match self {
            RootPos::Node(n) => Some(*n),
            RootPos::Point(p) => p.as_node(net),
        }
    }
}

/// A data-object event, as delivered to the server (§3: objects issue
/// updates containing their id, old and new location; we also model
/// appearance and disappearance, §4.2: "objects that appear in (disappear
/// from) the system are handled as incoming (outgoing) ones").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ObjectEvent {
    /// Object moved to a new network position.
    Move {
        /// Object id.
        id: ObjectId,
        /// New position.
        to: NetPoint,
    },
    /// A new object appeared.
    Insert {
        /// Object id.
        id: ObjectId,
        /// Initial position.
        at: NetPoint,
    },
    /// An existing object disappeared.
    Delete {
        /// Object id.
        id: ObjectId,
    },
}

/// A query event: movement, installation, or termination of a continuous
/// query, submitted via [`crate::monitor::ContinuousMonitor::apply`] or
/// batched through [`UpdateBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum QueryEvent {
    /// Query moved to a new network position.
    Move {
        /// Query id.
        id: QueryId,
        /// New position.
        to: NetPoint,
    },
    /// A new continuous query is installed.
    Install {
        /// Query id.
        id: QueryId,
        /// Number of neighbors to monitor.
        k: usize,
        /// Initial position.
        at: NetPoint,
    },
    /// An existing query terminates.
    Remove {
        /// Query id.
        id: QueryId,
    },
}

/// An edge-weight update (e.g. issued by congestion sensors, §3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeWeightUpdate {
    /// The edge whose weight changed.
    pub edge: EdgeId,
    /// The new weight (absolute, not a delta).
    pub new_weight: f64,
}

/// The largest `k` a query may be installed with: its best-k buffer
/// reserves `k + 1` neighbours up front, and 65,536 keeps that near a
/// megabyte, three orders of magnitude above Table 2's k = 50.
pub const MAX_K: usize = 1 << 16;

/// Every object id is below this bound: object ids index the object
/// tables (a monitor's [`crate::state::ObjectIndex`], 24 B a slot, and the
/// engine's router, 16 B a slot), which are as long as the largest id seen
/// plus one. 2^21 is above the largest population the scale sweep plans
/// (1.6M objects) and caps what one valid id can cost at 48 MiB in a
/// monitor's table and 32 MiB in the router's. [`UpdateEvent::fits`]
/// refuses an object event whose id is not below it; query ids are not
/// bounded.
pub const OBJECT_ID_BOUND: u32 = 1 << 21;

/// The position an object table holds for an id that is not in the
/// system: an edge no network has, so a live slot is told from a vacant
/// one by its edge alone.
pub const NOWHERE: NetPoint = NetPoint {
    edge: EdgeId(u32::MAX),
    frac: 0.0,
};

/// The slot of `id` in an object table indexed by id, growing `table`
/// with `vacant` slots to hold it first.
///
/// # Panics
/// Panics if `id` is not below [`OBJECT_ID_BOUND`], before `table` grows:
/// no table is sized by an unchecked id ([`UpdateEvent::fits`] is the
/// check for input from outside the program).
#[inline]
pub fn object_slot<T: Clone>(table: &mut Vec<T>, id: ObjectId, vacant: T) -> &mut T {
    assert!(
        id.0 < OBJECT_ID_BOUND,
        "object id {id} is not below OBJECT_ID_BOUND ({OBJECT_ID_BOUND})"
    );
    let i = id.index();
    if i >= table.len() {
        // Grows only when a new largest id registers (amortised).
        table.resize(i + 1, vacant);
    }
    &mut table[i]
}

/// One submission to a monitor, unifying the three event planes. This is
/// the currency of [`crate::monitor::ContinuousMonitor::apply`] and of the
/// ingest front-end: producers hand the server single events out-of-band,
/// and a batching stage (or the monitor itself) folds them into per-tick
/// [`UpdateBatch`]es.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum UpdateEvent {
    /// A data-object event.
    Object(ObjectEvent),
    /// A query event.
    Query(QueryEvent),
    /// An edge-weight change.
    Edge(EdgeWeightUpdate),
}

impl UpdateEvent {
    /// A new object appearing at `at`.
    pub fn insert_object(id: ObjectId, at: NetPoint) -> Self {
        UpdateEvent::Object(ObjectEvent::Insert { id, at })
    }

    /// An existing object moving to `to`.
    pub fn move_object(id: ObjectId, to: NetPoint) -> Self {
        UpdateEvent::Object(ObjectEvent::Move { id, to })
    }

    /// An object leaving the system.
    pub fn delete_object(id: ObjectId) -> Self {
        UpdateEvent::Object(ObjectEvent::Delete { id })
    }

    /// A new continuous `k`-NN query installed at `at`.
    pub fn install_query(id: QueryId, k: usize, at: NetPoint) -> Self {
        UpdateEvent::Query(QueryEvent::Install { id, k, at })
    }

    /// A registered query moving to `to`.
    pub fn move_query(id: QueryId, to: NetPoint) -> Self {
        UpdateEvent::Query(QueryEvent::Move { id, to })
    }

    /// A registered query terminating.
    pub fn remove_query(id: QueryId) -> Self {
        UpdateEvent::Query(QueryEvent::Remove { id })
    }

    /// An edge-weight change to an absolute `new_weight`.
    pub fn edge(edge: EdgeId, new_weight: f64) -> Self {
        UpdateEvent::Edge(EdgeWeightUpdate { edge, new_weight })
    }

    /// Whether the event fits a network of `edges` edges: every edge it
    /// names is below `edges`, an object id is below [`OBJECT_ID_BOUND`],
    /// an install's `k` is in `1..=MAX_K`, and a weight is one
    /// [`rnn_roadnet::EdgeWeights`] stores ([`rnn_roadnet::admits`]: in
    /// `[UNIT, MAX_WEIGHT]`). A monitor panics on one that does not, so
    /// ingest and the cluster's shards refuse it first.
    pub fn fits(&self, edges: usize) -> bool {
        use {ObjectEvent as O, QueryEvent as Q, UpdateEvent as U};
        let on_net = |at: NetPoint| at.edge.index() < edges;
        let bounded = |id: ObjectId| id.0 < OBJECT_ID_BOUND;
        match *self {
            U::Object(O::Insert { id, at } | O::Move { id, to: at }) => bounded(id) && on_net(at),
            U::Object(O::Delete { id }) => bounded(id),
            U::Query(Q::Move { to: at, .. }) => on_net(at),
            U::Query(Q::Install { k, at, .. }) => (1..=MAX_K).contains(&k) && on_net(at),
            U::Query(Q::Remove { .. }) => true,
            U::Edge(EdgeWeightUpdate { edge, new_weight }) => {
                edge.index() < edges && rnn_roadnet::admits(new_weight)
            }
        }
    }
}

/// Everything that happens in one timestamp.
///
/// §4.5: if an entity issues several updates in one timestamp they are
/// coalesced (first old value, last new value) before processing; the
/// monitors perform that preprocessing internally, so batches may contain
/// multiple events per entity.
///
/// # What repeated and unknown ids mean
///
/// Each id is folded, in event order, into one `(value before the tick,
/// value after its last event)` delta; a delta without a net effect is
/// dropped. [`crate::state::NetworkState::apply_batch`] is that fold, the
/// engine's router follows the same table (its ingest stage never folds
/// across a `Delete` / `Remove`, so a drained batch means what the
/// submitted events meant), and `tests/engine_differential.rs` enumerates
/// every batch of up to three events against it:
///
/// | events of one id, in order | net effect |
/// |---|---|
/// | query `[Remove, Move]` | removed; a query not registered *by now* cannot move, so the move is dropped |
/// | query `[Remove, Install]` | one re-placement at the install's `k` and position, judged against the pre-tick answer |
/// | query `[Install, Remove]` | an unknown id: nothing happened; a live id: removed |
/// | query `[Install, Install]` | the last install's `k` and position |
/// | query `[Move]`, id unknown | dropped |
/// | object `[Delete, Move]` | one move to the last position (a move of an object unknown by now is an appearance) |
/// | object `[Move]`, id unknown | an appearance, as `Insert` |
/// | object `[Insert]`, id known | a move |
///
/// The event `Vec`s are public for zero-copy construction by the engine's
/// drain paths, but producers should prefer the [`Self::push_object`] /
/// [`Self::push_query`] / [`Self::push_edge`] / [`Self::push`]
/// constructors over reaching into the fields directly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateBatch {
    /// Object movements / appearances / disappearances.
    pub objects: Vec<ObjectEvent>,
    /// Query movements / installations / terminations.
    pub queries: Vec<QueryEvent>,
    /// Edge weight changes.
    pub edges: Vec<EdgeWeightUpdate>,
}

impl UpdateBatch {
    /// Whether the batch carries no events at all.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty() && self.queries.is_empty() && self.edges.is_empty()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.objects.len() + self.queries.len() + self.edges.len()
    }

    /// Appends an object event.
    pub fn push_object(&mut self, ev: ObjectEvent) {
        self.objects.push(ev);
    }

    /// Appends a query event.
    pub fn push_query(&mut self, ev: QueryEvent) {
        self.queries.push(ev);
    }

    /// Appends an edge-weight update.
    pub fn push_edge(&mut self, ev: EdgeWeightUpdate) {
        self.edges.push(ev);
    }

    /// Appends one [`UpdateEvent`] to the matching event plane.
    pub fn push(&mut self, ev: UpdateEvent) {
        match ev {
            UpdateEvent::Object(e) => self.objects.push(e),
            UpdateEvent::Query(e) => self.queries.push(e),
            UpdateEvent::Edge(e) => self.edges.push(e),
        }
    }

    /// Empties the batch while keeping the allocated capacity, so a
    /// per-tick batch can be reused without reallocating.
    pub fn clear(&mut self) {
        self.objects.clear();
        self.queries.clear();
        self.edges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_sorting_is_deterministic() {
        let mut v = vec![
            Neighbor {
                object: ObjectId(5),
                dist: 2.0,
            },
            Neighbor {
                object: ObjectId(1),
                dist: 2.0,
            },
            Neighbor {
                object: ObjectId(9),
                dist: 1.0,
            },
        ];
        sort_neighbors(&mut v);
        assert_eq!(v[0].object, ObjectId(9));
        assert_eq!(v[1].object, ObjectId(1));
        assert_eq!(v[2].object, ObjectId(5));
    }

    #[test]
    fn batch_len_and_emptiness() {
        let mut b = UpdateBatch::default();
        assert!(b.is_empty());
        b.push_object(ObjectEvent::Delete { id: ObjectId(1) });
        b.push_edge(EdgeWeightUpdate {
            edge: EdgeId(0),
            new_weight: 2.0,
        });
        assert!(!b.is_empty());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn push_routes_update_events_to_the_matching_plane() {
        let mut b = UpdateBatch::default();
        b.push(UpdateEvent::Object(ObjectEvent::Delete { id: ObjectId(7) }));
        b.push(UpdateEvent::Query(QueryEvent::Remove { id: QueryId(3) }));
        b.push(UpdateEvent::Edge(EdgeWeightUpdate {
            edge: EdgeId(2),
            new_weight: 1.5,
        }));
        assert_eq!(b.objects.len(), 1);
        assert_eq!(b.queries.len(), 1);
        assert_eq!(b.edges.len(), 1);
        let cap = (
            b.objects.capacity(),
            b.queries.capacity(),
            b.edges.capacity(),
        );
        b.clear();
        assert!(b.is_empty());
        assert_eq!(
            cap,
            (
                b.objects.capacity(),
                b.queries.capacity(),
                b.edges.capacity()
            )
        );
    }

    #[test]
    fn rootpos_edge_accessor() {
        let p = RootPos::Point(NetPoint::new(EdgeId(3), 0.5));
        assert_eq!(p.edge(), Some(EdgeId(3)));
        assert_eq!(RootPos::Node(NodeId(1)).edge(), None);
    }
}
