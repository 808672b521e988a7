//! Influence lists and influencing intervals (§3).
//!
//! > "An edge e affects q, if it contains an interval where the network
//! > distance is less than q.kNN_dist. We call this interval the
//! > influencing interval of e. We store q in the influence list of each
//! > affecting edge e, together with the corresponding influencing
//! > interval. We use the influence list information to process only object
//! > and edge updates that affect the result of q and ignore the rest."
//!
//! An edge can carry up to **two** disjoint influencing intervals for one
//! query (Figure 3: one from each verified endpoint); overlapping intervals
//! merge into one. Intervals are stored as fraction ranges in the edge's
//! own coordinate system, so point-membership tests need no distance
//! computation. A bound `reach` along an edge of weight `w` becomes the
//! fraction `(reach + INTERVAL_SLACK) / w`.
//!
//! The table is generic over the influencee key: IMA stores [`rnn_roadnet::QueryId`]s,
//! GMA's node-monitoring module stores active-node ids, and GMA's sequence
//! layer stores query ids again.

use rnn_roadnet::{EdgeId, SpanArena, UNIT};

/// How far past `kNN_dist` every influencing interval reaches: one
/// distance unit. An interval is a fraction (`reach / w`) while an entity's
/// distance is its offset rounded to the unit, so an entity exactly at
/// `kNN_dist` (the k-th NN itself) can sit up to half a unit beyond the
/// unwidened fraction. Over-covering is safe: it can only cause a spurious
/// re-check, never a missed update.
pub(crate) const INTERVAL_SLACK: f64 = UNIT;

/// Up to two disjoint fraction intervals on one edge.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IntervalSet {
    n: u8,
    iv: [(f64, f64); 2],
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A set with a single interval (clamped to `[0, 1]`, ignored if empty
    /// after clamping with `lo > hi`).
    pub fn single(lo: f64, hi: f64) -> Self {
        let mut s = Self::empty();
        s.add(lo, hi);
        s
    }

    /// The full edge.
    pub fn full() -> Self {
        Self::single(0.0, 1.0)
    }

    /// Adds an interval, merging overlapping/touching ranges.
    ///
    /// # Panics
    /// Panics if a third disjoint interval would be required (cannot happen
    /// for influencing intervals, which are anchored at the edge ends or at
    /// the query position).
    pub fn add(&mut self, lo: f64, hi: f64) {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        if lo > hi {
            return;
        }
        let mut lo = lo;
        let mut hi = hi;
        // Merge with any existing overlapping interval.
        let mut i = 0;
        while i < self.n as usize {
            let (a, b) = self.iv[i];
            if lo <= b && a <= hi {
                lo = lo.min(a);
                hi = hi.max(b);
                // Remove interval i (swap with last).
                self.n -= 1;
                self.iv[i] = self.iv[self.n as usize];
            } else {
                i += 1;
            }
        }
        assert!(
            self.n < 2,
            "influencing intervals: more than two disjoint ranges"
        );
        self.iv[self.n as usize] = (lo, hi);
        self.n += 1;
        // Keep deterministic order (by lo).
        if self.n == 2 && self.iv[0].0 > self.iv[1].0 {
            self.iv.swap(0, 1);
        }
    }

    /// Whether the fraction `t` lies inside the set (boundary inclusive).
    #[inline]
    pub fn covers(&self, t: f64) -> bool {
        (0..self.n as usize).any(|i| {
            let (a, b) = self.iv[i];
            t >= a && t <= b
        })
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the set covers the entire edge.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.n == 1 && self.iv[0] == (0.0, 1.0)
    }

    /// The stored intervals.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.iv[..self.n as usize]
    }
}

/// Influence lists: for each edge, the set of influencees with their
/// influencing intervals.
///
/// Backed by a [`SpanArena`]: all per-edge lists share one flat buffer
/// with free-list span reuse, so the constant interval churn of the tick
/// path (every re-expansion rebuilds its anchor's intervals) does no
/// per-edge heap allocation in steady state.
#[derive(Clone, Debug)]
pub struct InfluenceTable<K: Copy + Eq> {
    per_edge: SpanArena<(K, IntervalSet)>,
}

impl<K: Copy + Eq> InfluenceTable<K> {
    /// A table covering `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        Self {
            per_edge: SpanArena::new(num_edges),
        }
    }

    /// Registers `who` on edge `e` with the given intervals (replaces any
    /// previous registration of `who` on `e`).
    pub fn insert(&mut self, e: EdgeId, who: K, ivs: IntervalSet) {
        if ivs.is_empty() {
            self.remove(e, who);
            return;
        }
        let list = self.per_edge.get_mut(e.index());
        match list.iter_mut().find(|(k, _)| *k == who) {
            Some(slot) => slot.1 = ivs,
            None => {
                self.per_edge.push(e.index(), (who, ivs));
            }
        }
    }

    /// Removes `who` from edge `e`'s list.
    pub fn remove(&mut self, e: EdgeId, who: K) {
        let list = self.per_edge.get(e.index());
        if let Some(idx) = list.iter().position(|(k, _)| *k == who) {
            self.per_edge.swap_remove(e.index(), idx);
        }
    }

    /// All influencees registered on edge `e`.
    #[inline]
    pub fn on_edge(&self, e: EdgeId) -> &[(K, IntervalSet)] {
        self.per_edge.get(e.index())
    }

    /// Influencees whose interval on `e` covers fraction `t`.
    pub fn covering(&self, e: EdgeId, t: f64) -> impl Iterator<Item = K> + '_ {
        self.per_edge
            .get(e.index())
            .iter()
            .filter(move |(_, ivs)| ivs.covers(t))
            .map(|&(k, _)| k)
    }

    /// Arena alloc events accumulated since the last take (see
    /// [`SpanArena::take_alloc_events`]).
    pub fn take_alloc_events(&mut self) -> u64 {
        self.per_edge.take_alloc_events()
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.per_edge.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::QueryId;

    #[test]
    fn single_interval_membership() {
        let s = IntervalSet::single(0.2, 0.6);
        assert!(s.covers(0.2) && s.covers(0.4) && s.covers(0.6));
        assert!(!s.covers(0.1) && !s.covers(0.7));
        assert!(!s.is_empty() && !s.is_full());
    }

    #[test]
    fn two_disjoint_intervals() {
        // Figure 3(a): influencing intervals from both endpoints.
        let mut s = IntervalSet::single(0.0, 0.3);
        s.add(0.8, 1.0);
        assert!(s.covers(0.1) && s.covers(0.9));
        assert!(!s.covers(0.5));
        assert_eq!(s.intervals(), &[(0.0, 0.3), (0.8, 1.0)]);
    }

    #[test]
    fn overlapping_intervals_merge_to_full() {
        // Figure 3(b): the two intervals overlap -> whole edge.
        let mut s = IntervalSet::single(0.0, 0.6);
        s.add(0.4, 1.0);
        assert!(s.is_full());
        assert_eq!(s.intervals(), &[(0.0, 1.0)]);
    }

    #[test]
    fn touching_intervals_merge() {
        let mut s = IntervalSet::single(0.0, 0.5);
        s.add(0.5, 0.8);
        assert_eq!(s.intervals(), &[(0.0, 0.8)]);
    }

    #[test]
    fn clamping_and_degenerate() {
        let s = IntervalSet::single(-0.5, 1.5);
        assert!(s.is_full());
        let s = IntervalSet::single(0.7, 0.2); // inverted -> ignored
        assert!(s.is_empty());
        // A zero-length interval is a valid point interval (a mark sitting
        // exactly at a node).
        let s = IntervalSet::single(0.5, 0.5);
        assert!(s.covers(0.5));
        assert!(!s.covers(0.500001));
    }

    #[test]
    fn table_insert_replace_remove() {
        let mut t: InfluenceTable<QueryId> = InfluenceTable::new(3);
        t.insert(EdgeId(1), QueryId(7), IntervalSet::single(0.0, 0.5));
        t.insert(EdgeId(1), QueryId(8), IntervalSet::full());
        assert_eq!(t.on_edge(EdgeId(1)).len(), 2);
        assert_eq!(t.covering(EdgeId(1), 0.25).count(), 2);
        assert_eq!(
            t.covering(EdgeId(1), 0.75).collect::<Vec<_>>(),
            vec![QueryId(8)]
        );

        // Replace q7's intervals.
        t.insert(EdgeId(1), QueryId(7), IntervalSet::single(0.9, 1.0));
        assert_eq!(t.on_edge(EdgeId(1)).len(), 2);
        assert_eq!(t.covering(EdgeId(1), 0.95).count(), 2);

        t.remove(EdgeId(1), QueryId(8));
        assert_eq!(t.on_edge(EdgeId(1)).len(), 1);
        // Removing a non-member is a no-op.
        t.remove(EdgeId(2), QueryId(8));
        assert!(t.on_edge(EdgeId(2)).is_empty());
    }

    #[test]
    fn inserting_empty_set_removes() {
        let mut t: InfluenceTable<QueryId> = InfluenceTable::new(1);
        t.insert(EdgeId(0), QueryId(1), IntervalSet::full());
        t.insert(EdgeId(0), QueryId(1), IntervalSet::empty());
        assert!(t.on_edge(EdgeId(0)).is_empty());
    }
}
