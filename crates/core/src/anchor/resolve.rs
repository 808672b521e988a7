//! Figure 10, lines 20–26: one queued anchor brought back to an exact
//! record, reusing what survives of its expansion tree.
//!
//! ## Invariant kept here
//!
//! A resolution restores the record invariant of the parent module for its
//! anchor. Whatever part of the tree it keeps holds only distances that are
//! still shortest under the post-tick weights (θ-prune, subtree cuts,
//! re-rooting with a uniform shift), survivor candidates never
//! under-estimate a distance, and whatever the kept region cannot vouch
//! for is re-found by the expansion itself. Every expansion that writes a
//! record goes through `store_outcome`, which returns the replaced tree to
//! the pool.

use std::fmt::Debug;
use std::hash::Hash;

use rnn_roadnet::{NodeId, RoadNetwork};

use super::schedule::Pending;
use super::{AnchorRec, AnchorSet};
use crate::counters::{push_charged, refill_charged, OpCounters};
use crate::influence::IntervalSet;
use crate::search::{Expander, KeptTree, SearchOutcome};
use crate::state::NetworkState;
use crate::types::{cmp_neighbors, Neighbor, RootPos};

impl<K: Copy + Ord + Hash + Debug> AnchorSet<K> {
    /// Serves one anchor of a root group from the group's shared multi-k
    /// expansion: its result is the top-`k` prefix of the shared result
    /// (the top-`k` of a top-`k_max` is the top-`k`), and its tree is the
    /// shared tree pruned to its own `kNN_dist` — the region an independent
    /// expansion would have verified. Returns whether the reported result
    /// changed.
    pub(super) fn serve_from_shared(
        &mut self,
        state: &NetworkState,
        key: K,
        rec: &mut AnchorRec,
        moved_root: Option<RootPos>,
        group: usize,
        counters: &mut OpCounters,
    ) -> bool {
        let (out, pool) = (&self.shared_outcomes[group], &mut self.expander.pool);
        if let Some(r) = moved_root {
            rec.root = r;
        }
        let served = &out.result[..rec.k.min(out.result.len())];
        let did_change = results_differ(&rec.result, served);
        refill_charged(&mut rec.result, served, &mut counters.alloc_events);
        rec.knn_dist = if served.len() == rec.k {
            rec.result[rec.k - 1].dist
        } else {
            f64::INFINITY
        };
        // Copy in place: the member's own cleared tree (slots + directory)
        // absorbs the shared outcome, so serving a group member never
        // touches the spare stack.
        let mut tree = std::mem::take(&mut rec.tree);
        pool.clone_into(&mut tree, &out.tree);
        rec.tree = tree;
        counters.tree_nodes_pruned += pool.retain_within(&mut rec.tree, rec.knn_dist) as u64;
        self.rebuild_influence(state, key, rec, counters);
        did_change
    }

    /// Applies pending work to one anchor and refreshes its result, reusing
    /// the surviving tree. Returns whether the reported result changed.
    pub(super) fn resolve_anchor(
        &mut self,
        state: &NetworkState,
        key: K,
        rec: &mut AnchorRec,
        work: Pending,
        counters: &mut OpCounters,
    ) -> bool {
        let mut old_result = std::mem::take(&mut rec.result);

        if work.full {
            if let Some(r) = work.moved_root {
                rec.root = r;
            }
            // Hand the invalidated tree to the search *cleared*: an empty kept
            // tree behaves exactly like a from-scratch expansion, but the
            // anchor's own slots and directory serve the recomputation
            // directly — no spare-stack round-trip, no allocation.
            let mut tree = std::mem::take(&mut rec.tree);
            counters.tree_nodes_pruned += self.expander.pool.clear(&mut tree) as u64;
            let kept = Some(KeptTree::full(tree));
            let out = self
                .expander
                .expand(state, rec.root, rec.k, kept, &[], counters);
            self.store_outcome(rec, out);
            self.rebuild_influence(state, key, rec, counters);
            return results_differ(&old_result, &rec.result);
        }

        let (ex, scratch) = (&mut self.expander, &mut self.scratch);
        let (candidates, touched) = (&mut scratch.candidates, &mut scratch.touched);

        // kNN_dist of the last structural rebuild: the selective re-scan rule
        // is stated relative to the region the tree/intervals were built for.
        let old_knn = rec.knn_dist;
        // Coverage radius for the selective re-scan. Re-rooting shifts every
        // kept distance down by the old distance of the new root, so the
        // radius must shift identically for the "strictly fully covered" test
        // to keep referring to the *old* region.
        let mut coverage_knn = old_knn;
        let mut dirty = work.dirty_tree;

        // Tree surgery from edge updates — pointer unlinks and free-list
        // pushes in the shared pool, no heap traffic.
        if work.theta < f64::INFINITY {
            counters.tree_nodes_pruned += ex.pool.retain_within(&mut rec.tree, work.theta) as u64;
        }
        for c in scratch.cuts.iter(work.cuts) {
            counters.tree_nodes_pruned += ex.pool.remove_subtree(&mut rec.tree, c) as u64;
        }

        // Root movement within the tree (queries only).
        if let Some(new_root) = work.moved_root {
            match valid_subtree_after_move(ex, &state.weights, rec, new_root) {
                Some((sub, shift)) => {
                    counters.tree_nodes_pruned +=
                        ex.pool.reroot_at_subtree(&mut rec.tree, sub, shift) as u64;
                    coverage_knn -= shift;
                }
                None => {
                    counters.tree_nodes_pruned += ex.pool.clear(&mut rec.tree) as u64;
                }
            }
            rec.root = new_root;
            dirty = true;
        }

        // Survivor candidates: previous NNs (and any incoming objects), with
        // distances re-derived from the surviving tree under current weights.
        // `dist_via_tree` only produces achievable path lengths, so a stale
        // survivor can never rank better than the truth; objects whose optimal
        // path now runs through re-expanded territory are re-found exactly by
        // the expansion itself.
        candidates.clear();
        touched.clear();
        for (id, _) in scratch.objects.iter(work.objects) {
            push_charged(touched, id, &mut counters.alloc_events);
        }
        touched.sort_unstable();
        for n in &old_result {
            if touched.binary_search(&n.object).is_ok() {
                continue;
            }
            if dirty {
                // Stored distance may be stale — re-derive (exact within the
                // kept region, a safe over-estimate outside it).
                if let Some(p) = state.objects.position(n.object) {
                    let d = ex.dist_via_tree(&state.weights, &rec.tree, rec.root, p);
                    counters.objects_considered += 1;
                    if d.is_finite() {
                        let survivor = Neighbor {
                            object: n.object,
                            dist: d,
                        };
                        push_charged(candidates, survivor, &mut counters.alloc_events);
                    }
                }
            } else {
                push_charged(candidates, *n, &mut counters.alloc_events);
            }
        }
        let slack = interval_slack(old_knn);
        for (id, new_pos) in scratch.objects.iter(work.objects) {
            let Some(p) = new_pos else { continue };
            let d = ex.dist_via_tree(&state.weights, &rec.tree, rec.root, p);
            counters.objects_considered += 1;
            let within = if dirty {
                d.is_finite()
            } else {
                d <= old_knn + slack
            };
            if within {
                let incoming = Neighbor {
                    object: id,
                    dist: d,
                };
                push_charged(candidates, incoming, &mut counters.alloc_events);
            }
        }
        candidates.sort_unstable_by(cmp_neighbors);
        candidates.dedup_by_key(|n| n.object);

        if !dirty && candidates.len() >= rec.k {
            // Object-only fast path (§4.2) with outgoing ≤ incoming: at least k
            // objects within the old kNN_dist, and the tree is intact so every
            // candidate distance above is exact.
            candidates.truncate(rec.k);
            rec.knn_dist = candidates[rec.k - 1].dist;
            let did_change = results_differ(&old_result, candidates);
            // The new result is written over the old one, in the anchor's own
            // buffer: nothing is allocated or freed.
            refill_charged(&mut old_result, candidates, &mut counters.alloc_events);
            rec.result = old_result;
            // The tree and the influence intervals are deliberately *not*
            // shrunk here even though kNN_dist may have decreased: a too-wide
            // influence region is always safe (it can only cause a spurious
            // affected-check later), and skipping the rebuild makes the §4.2
            // fast path allocation-free. The next structural re-expansion
            // re-tightens both.
            return did_change;
        }

        // Structural case (tree surgery and/or result underflow): re-expand
        // from the surviving tree. Kept-region edges strictly inside the old
        // result region need no re-scan — their objects are all among the
        // survivor candidates (see `KeptTree::selective`). An emptied tree
        // is handed over too: it expands as a from-scratch search would, in
        // the anchor's own directory.
        let kept = KeptTree {
            tree: std::mem::take(&mut rec.tree),
            selective: Some((coverage_knn, &scratch.changed_edges)),
        };
        let out = ex.expand(state, rec.root, rec.k, Some(kept), candidates, counters);
        self.store_outcome(rec, out);
        self.rebuild_influence(state, key, rec, counters);
        results_differ(&old_result, &rec.result)
    }

    /// Rebuilds the influence-list entries of one anchor from its tree and
    /// kNN_dist (§3: intervals where the network distance is below
    /// kNN_dist).
    pub(super) fn rebuild_influence(
        &mut self,
        state: &NetworkState,
        key: K,
        rec: &mut AnchorRec,
        counters: &mut OpCounters,
    ) {
        let net: &RoadNetwork = &self.expander.net;
        let (pool, il, pairs) = (
            &self.expander.pool,
            &mut self.il,
            &mut self.scratch.intervals,
        );
        for e in rec.influenced.drain(..) {
            il.remove(e, key);
        }
        let slack = interval_slack(rec.knn_dist);
        // Collect one (edge, interval) pair per tree-adjacent half-edge, then
        // merge by edge id with a sort — cheaper than a hash map for the few
        // dozen entries a tree produces.
        pairs.clear();
        for (n, dist) in rec.tree.iter(pool) {
            let reach = rec.knn_dist - dist + slack;
            if reach < 0.0 {
                continue;
            }
            for &(e, _) in net.adjacent(n) {
                let w = state.weights.get(e);
                let f = (reach / w).min(1.0);
                let ivs = if net.edge(e).start == n {
                    IntervalSet::single(0.0, f)
                } else {
                    IntervalSet::single(1.0 - f, 1.0)
                };
                push_charged(pairs, (e, ivs), &mut counters.alloc_events);
            }
        }
        if let RootPos::Point(p) = rec.root {
            let w = state.weights.get(p.edge);
            let r = (rec.knn_dist + slack) / w;
            let ivs = IntervalSet::single(p.frac - r, p.frac + r);
            push_charged(pairs, (p.edge, ivs), &mut counters.alloc_events);
        }
        pairs.sort_unstable_by_key(|&(e, _)| e);
        let mut i = 0;
        while i < pairs.len() {
            let (e, mut ivs) = pairs[i];
            i += 1;
            while i < pairs.len() && pairs[i].0 == e {
                for &(lo, hi) in pairs[i].1.intervals() {
                    ivs.add(lo, hi);
                }
                i += 1;
            }
            if !ivs.is_empty() {
                il.insert(e, key, ivs);
                rec.influenced.push(e);
            }
        }
    }

    /// Writes the outcome of an expansion from `rec`'s root into the
    /// record, returning the record's previous tree to the pool.
    pub(super) fn store_outcome(&mut self, rec: &mut AnchorRec, out: SearchOutcome) {
        rec.result = out.result;
        rec.knn_dist = out.knn_dist;
        let old = std::mem::replace(&mut rec.tree, out.tree);
        self.expander.pool.release(old);
    }
}

/// §4.3: the part of the tree that remains valid when the root moves to
/// `new_root`. Returns `(subtree root, distance shift)`, or `None` when
/// nothing survives (recompute from scratch).
fn valid_subtree_after_move(
    ex: &Expander,
    weights: &rnn_roadnet::EdgeWeights,
    rec: &AnchorRec,
    new_root: RootPos,
) -> Option<(NodeId, f64)> {
    let (net, pool): (&RoadNetwork, _) = (&ex.net, &ex.pool);
    let RootPos::Point(p) = new_root else {
        return None; // node-rooted anchors never move
    };
    let w = weights.get(p.edge);
    if let RootPos::Point(op) = rec.root {
        if op.edge == p.edge {
            // Moving along the root edge: the branch on the far side of q′
            // (in the movement direction) stays valid.
            let toward = if p.frac > op.frac {
                net.edge(p.edge).end
            } else if p.frac < op.frac {
                net.edge(p.edge).start
            } else {
                return None; // no net movement; caller treats as recompute
            };
            let shift = (p.frac - op.frac).abs() * w;
            // Only if that branch hangs directly off the root (it may have
            // been reached around the network instead).
            if rec.tree.parent_of(pool, toward)?.is_none() {
                return Some((toward, shift));
            }
            return None;
        }
    }
    // q′ on a tree-link edge: the subtree rooted at the child side stays
    // valid, shifted by the old distance of q′.
    let child = rec.tree.link_child_of_edge(pool, net, p.edge)?;
    let (parent, _) = rec.tree.parent_of(pool, child)??;
    let along = rnn_roadnet::NetPoint {
        edge: p.edge,
        frac: p.frac,
    }
    .dist_to_endpoint(net, weights, parent);
    let d_old_q = rec.tree.dist(pool, parent)? + along;
    Some((child, d_old_q))
}

fn results_differ(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() != b.len()
        || a.iter()
            .zip(b)
            .any(|(x, y)| x.object != y.object || x.dist != y.dist)
}

/// Relative widening applied to influencing intervals so that an entity
/// sitting *exactly* at distance `kNN_dist` (e.g. the k-th NN itself) is
/// always inside them despite float rounding when deriving mark fractions.
/// Over-covering is safe: it can only cause a spurious re-check, never a
/// missed update.
pub(crate) fn interval_slack(knn_dist: f64) -> f64 {
    if knn_dist.is_finite() {
        1e-9 * knn_dist.max(1.0)
    } else {
        0.0
    }
}
