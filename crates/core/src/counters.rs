//! Operation counters, per-timestamp reports, and memory accounting.
//!
//! The paper reports CPU seconds per timestamp and memory KBytes (Figs.
//! 13–19). Wall-clock time on a different machine cannot match absolute
//! numbers, so in addition to timing we expose deterministic operation
//! counters — they make the *shape* of every curve reproducible and
//! machine-independent (see DESIGN.md, substitution #3).

use std::time::Duration;

/// Declares a plain-data struct of cumulative `u64` counters from **one
/// field table** — the struct body itself, every doc comment and derive
/// kept — and derives from that table everything that has to name every
/// field: `merge`, the wire order ([`crate::codec`] encodes and decodes
/// through `each` / `try_from_fn`, so declaration order *is* wire order)
/// and a name → value walk that lets tests and the bench harness cover
/// every field without listing them. The expansion is straight-line code
/// per field; nothing is tabulated at run time. Adding a counter is one
/// line here.
macro_rules! counter_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Adds `other` into `self`, field by field.
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )+
            }

            /// What was counted since the reading `earlier` of the same
            /// cumulative block, field by field.
            pub fn since(&self, earlier: &$name) -> $name {
                $name { $( $field: self.$field.saturating_sub(earlier.$field), )+ }
            }

            /// Visits every `(field name, value)` in declaration order.
            pub fn each(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($field), self.$field); )+
            }

            /// Builds a value by asking `f` for every field, by name, in
            /// declaration order.
            pub fn from_fn(mut f: impl FnMut(&'static str) -> u64) -> Self {
                Self { $( $field: f(stringify!($field)), )+ }
            }

            /// [`Self::from_fn`] that stops at the first error.
            pub fn try_from_fn<E>(
                mut f: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok(Self { $( $field: f(stringify!($field))?, )+ })
            }
        }
    };
}
pub(crate) use counter_struct;

counter_struct! {
    /// Deterministic work counters accumulated while processing a timestamp.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct OpCounters {
        /// Network nodes settled by expansions (Dijkstra pops).
        pub nodes_settled: u64,
        /// Edges scanned for objects during expansions.
        pub edges_scanned: u64,
        /// Object entries considered as result candidates.
        pub objects_considered: u64,
        /// Heap relaxations performed.
        pub relaxations: u64,
        /// Updates discarded without touching any query (the influence-list
        /// fast path, §4.2: "irrelevant updates are simply ignored").
        pub updates_ignored: u64,
        /// Queries (or active nodes) whose result was re-derived this tick.
        pub reevaluations: u64,
        /// Expansion-tree nodes pruned while invalidating tree parts.
        pub tree_nodes_pruned: u64,
        /// Distinct objects examined while re-deriving replica membership
        /// after halo changes this tick (sharded engine only; single monitors
        /// keep this at 0). With the edge→objects index this scales with
        /// *changed* halo edges, so it never reaches the total object count.
        pub resync_touched: u64,
        /// Replicas evicted because a halo shrank or an edge left a halo
        /// (sharded engine only).
        pub replica_evictions: u64,
        /// Heap-allocation events on the instrumented tick-path structures
        /// during *maintenance* work: per-edge arena backing-buffer
        /// reallocations (object lists, influence lists, replica buckets),
        /// Dijkstra-heap capacity growth, and tree-pool slab/directory growth.
        /// Zero on a steady-state tick — all list churn, expansion work and
        /// tree surgery ran in reused capacity. Allocations made while
        /// *installing* a new monitored entity are counted separately in
        /// `install_alloc_events`.
        pub alloc_events: u64,
        /// Heap-allocation events attributable to installing a brand-new
        /// monitored entity: a query install's initial computation (§4.1) or a
        /// GMA active-node activation. New entities legitimately materialise
        /// new state (a tree directory, slab headroom), so these are kept out
        /// of the steady-state `alloc_events` guarantee the CI gate enforces.
        pub install_alloc_events: u64,
        /// Raw Dijkstra expansion steps (heap pops, including lazily discarded
        /// stale entries) — the machine-independent measure of heap traffic.
        pub expansion_steps: u64,
        /// Queries/anchors served from a *shared* expansion instead of running
        /// their own: root-grouped multi-k re-expansions in the anchor set, and
        /// GMA queries answered from an active-node expansion that already
        /// served another query this tick. Each count is one network expansion
        /// that did **not** run.
        pub shared_expansions: u64,
        /// Expansion-tree nodes served from the tree pool's free list instead
        /// of fresh slab space — the tree-surgery reuse counter. Together with
        /// `alloc_events` staying 0 it proves subtree cuts and re-expansion
        /// inserts ran entirely in recycled capacity.
        pub tree_nodes_recycled: u64,
        /// Load-aware shard rebalances executed this tick (sharded engine
        /// only): each is one migration of boundary cells from the most loaded
        /// shard to an underloaded neighbour.
        pub rebalance_events: u64,
        /// Partition cells (edges) whose ownership moved to another shard
        /// during rebalancing this tick (sharded engine only).
        pub cells_migrated: u64,
        /// Submitted events dropped by the ingest stage because a later
        /// submission for the same entity superseded them within the tick
        /// window (last-write-wins coalescing, §4.5 generalized to the
        /// out-of-band ingest path). Each count is one event the monitor
        /// never had to process.
        pub coalesced_superseded: u64,
        /// Entity windows (a surviving event and every report folded into
        /// it) dropped by the ingest stage's `AdmissionPolicy::ShedOldest`
        /// load shedding because the bounded queue was full. Unlike
        /// `coalesced_superseded`, shed events are *lost* — answers may lag
        /// until a fresher submission arrives.
        pub shed_events: u64,
        /// Heap-allocation events of the ingest stage: queue buffer growth
        /// and open-window index growth at submit, counted at the drain.
        /// Zero on a steady-state tick — the queue runs entirely in reused
        /// capacity, like the monitors' own `alloc_events` guarantee.
        pub drain_alloc_events: u64,
    }
}

impl OpCounters {
    /// A single scalar proxy for CPU work (used by tests that assert one
    /// strategy does less work than another).
    pub fn work(&self) -> u64 {
        self.nodes_settled + self.edges_scanned + self.objects_considered + self.relaxations
    }

    /// The allocator-independent view: this report with the memory-pool
    /// counters (`alloc_events`, `install_alloc_events`,
    /// `tree_nodes_recycled`, `drain_alloc_events`) zeroed. Those describe
    /// *capacity history* — how much slab headroom and free-list content a
    /// monitor accumulated — not the algorithm's work, so they are the one
    /// part of a tick report a snapshot-restored monitor may legitimately
    /// differ in during its first post-restore ticks (its pools were
    /// warmed by the restore, not by the full run). Every other counter is
    /// a pure function of the answer-relevant state and must match
    /// bit-for-bit, which the crash-recovery differential asserts through
    /// this view.
    pub fn algorithmic(&self) -> OpCounters {
        OpCounters {
            alloc_events: 0,
            install_alloc_events: 0,
            tree_nodes_recycled: 0,
            drain_alloc_events: 0,
            ..*self
        }
    }

    /// The view a **snapshot-restored shard** must still match: the
    /// [`Self::algorithmic`] mask plus every *tree-shape-coupled*
    /// counter zeroed.
    ///
    /// A restore rebuilds expansion trees from scratch for the restored
    /// query set (sorted by id) instead of replaying the exact install
    /// interleaving, so the recovered trees are *equivalent* — same
    /// answers, same monitored coverage — but not node-for-node
    /// identical to incrementally maintained ones: a maintained tree
    /// carries stale branches a fresh recompute never grows, and tree
    /// shape steers every expansion, scan, reevaluation, and prune that
    /// follows. What must (and does) stay bit-identical through
    /// recovery: every answer and `knn_dist`, `results_changed`, and
    /// the counters this view keeps, which depend only on replica
    /// content and the coordinator's event stream — `updates_ignored`,
    /// `resync_touched`, `replica_evictions`, `rebalance_events`,
    /// `cells_migrated`.
    pub fn restore_stable(&self) -> OpCounters {
        OpCounters {
            nodes_settled: 0,
            edges_scanned: 0,
            objects_considered: 0,
            relaxations: 0,
            reevaluations: 0,
            tree_nodes_pruned: 0,
            expansion_steps: 0,
            shared_expansions: 0,
            ..self.algorithmic()
        }
    }
}

/// What happened while processing one timestamp.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TickReport {
    /// Wall-clock processing time for the tick.
    pub elapsed: Duration,
    /// Number of queries whose reported `(kNN_dist, result)` this tick
    /// changed: the length of [`crate::ContinuousMonitor::changed_queries`]
    /// plus the queries the tick removed that had an answer.
    pub results_changed: usize,
    /// Deterministic work counters.
    pub counters: OpCounters,
}

impl TickReport {
    /// Folds another report into this one: counters and changed-result
    /// counts add up, elapsed takes the **maximum** (shards tick in
    /// parallel, so wall-clock cost is the slowest worker, not the sum).
    pub fn absorb_parallel(&mut self, other: &TickReport) {
        self.elapsed = self.elapsed.max(other.elapsed);
        self.results_changed += other.results_changed;
        self.counters.merge(&other.counters);
    }
}

/// Breakdown of a monitor's resident memory (Fig. 18 reports KBytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Edge table: per-edge object lists and weights.
    pub edge_table: usize,
    /// Query/anchor table: positions, results.
    pub query_table: usize,
    /// Expansion trees.
    pub expansion_trees: usize,
    /// Influence lists.
    pub influence_lists: usize,
    /// Auxiliary structures (sequence table, active-node bookkeeping,
    /// scratch Dijkstra state).
    pub auxiliary: usize,
}

impl MemoryUsage {
    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.edge_table
            + self.query_table
            + self.expansion_trees
            + self.influence_lists
            + self.auxiliary
    }
}

/// Elements a reused buffer with no bound of its own is given up front
/// (and the least [`push_charged`] grows one to): more than a tick puts in
/// such a buffer at any scale the benchmarks run, and a few tens of KB.
pub(crate) const SCRATCH_ROOM: usize = 1024;

/// `v.push(x)` for a reused buffer: a push that has to grow the buffer is
/// charged to `allocs` (normally [`OpCounters::alloc_events`]), the way
/// the arenas and the candidate scratch charge theirs. Like the arenas it
/// then grows ×4: a workload's high-water marks creep up for a long time,
/// and the steep factor gets a buffer past them within the first ticks
/// instead of re-allocating, ever more rarely, throughout a run.
#[inline]
pub(crate) fn push_charged<T>(v: &mut Vec<T>, x: T, allocs: &mut u64) {
    if v.len() == v.capacity() {
        *allocs += 1;
        v.reserve_exact((3 * v.capacity()).max(SCRATCH_ROOM));
    }
    v.push(x);
}

/// Gives the reused buffer `v` room for `total` elements, charging a
/// growth to `allocs`. For lists bounded by a count of installed entities:
/// reserved where the entity is installed, they never grow in a tick.
pub(crate) fn reserve_charged<T>(v: &mut Vec<T>, total: usize, allocs: &mut u64) {
    if v.capacity() < total {
        *allocs += 1;
        v.reserve(total - v.len());
    }
}

/// Overwrites the reused buffer `v` with `with`, charging a growth of the
/// buffer to `allocs` like [`push_charged`].
#[inline]
pub(crate) fn refill_charged<T: Copy>(v: &mut Vec<T>, with: &[T], allocs: &mut u64) {
    *allocs += u64::from(v.capacity() < with.len());
    v.clear();
    v.extend_from_slice(with);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        // Every field of the table, each with its own value, so a field
        // the generated `merge` skipped or crossed would show.
        let mut i = 0;
        let mut a = OpCounters::from_fn(|_| {
            i += 1;
            i
        });
        let b = OpCounters::from_fn(|name| if name == "edges_scanned" { 0 } else { 100 });
        a.merge(&b);
        let mut seen = 0;
        a.each(|name, v| {
            seen += 1;
            let added = if name == "edges_scanned" { 0 } else { 100 };
            assert_eq!(v, seen + added, "{name}");
        });
        assert_eq!(seen, 19);
        assert_eq!(a.work(), (1 + 100) + 2 + (3 + 100) + (4 + 100));
    }

    #[test]
    fn memory_totals() {
        let m = MemoryUsage {
            edge_table: 1024,
            query_table: 1024,
            expansion_trees: 2048,
            influence_lists: 0,
            auxiliary: 0,
        };
        assert_eq!(m.total_bytes(), 4096);
    }
}
