//! The coordinator's change log: which queries the tick in progress
//! touched, and the answer each of them entered the tick with.
//!
//! A shard reports a query when its monitor changed the query's answer
//! (or the batch installed it), so a tick's exchanges already name the
//! changed queries; what they cannot say is whether a query reported in
//! round 1 and again in a reconcile round ended where it started. The log
//! keeps exactly what that question needs. The first time a tick touches a
//! query, the `(kNN_dist, result)` the query entered the tick with is
//! **moved** out of its `QueryRec` into `ChangeLog::parked` — no copy —
//! and the record is stamped with the tick's epoch and the entry's slot,
//! which is how later touches find the entry. When the tick ends, a query
//! reported by one exchange and not otherwise touched is changed by
//! construction (its shard's monitor said so); only the ones touched again
//! — reported by a second exchange, (re-)installed, or removed — are
//! compared, final answer against parked answer. Then every parked answer
//! is dropped: nothing per query outlives the tick but the 12 bytes of
//! stamp and slot.
//!
//! Callers: `route` (`ChangeLog::installed`, `ChangeLog::removed`),
//! `rebalance`'s hand-off (`ChangeLog::installed`), `dispatch_pending`
//! (`ChangeLog::absorb`), and `tick`, which brackets its work with
//! `ChangeLog::begin` and `ChangeLog::finish`.

use rnn_core::Neighbor;
use rnn_roadnet::{FxHashMap, QueryId};

use crate::engine::QueryRec;
use crate::protocol::QuerySnapshot;

/// The answer one touched query entered the tick with.
struct Parked {
    id: QueryId,
    knn_dist: f64,
    result: Vec<Neighbor>,
    /// Touched otherwise than by one exchange reporting it: "reported,
    /// hence changed" does not follow, so the final answer is compared
    /// with this one.
    recheck: bool,
}

/// See the module docs.
#[derive(Default)]
pub(crate) struct ChangeLog {
    /// The tick in progress. A record whose `parked` stamp equals it has
    /// its entry at `parked[rec.slot]`.
    epoch: u64,
    parked: Vec<Parked>,
    /// Queries removed so far this tick: while zero, an `Install` of an
    /// unregistered id cannot be a re-install with a parked answer.
    removals: usize,
    /// What the last finished tick changed, ascending.
    changed: Vec<QueryId>,
}

impl ChangeLog {
    /// Opens a tick: every record's stamp is now stale. (Anything parked
    /// outside a tick — a hand-off driven directly, as tests do — is
    /// dropped here.)
    pub(crate) fn begin(&mut self) {
        self.parked.clear();
        self.epoch += 1;
        self.removals = 0;
        self.changed.clear();
    }

    /// The parked entry of `rec`, moving the record's answer into the log
    /// first if this tick has not yet (which leaves the record at
    /// `(∞, [])` until an exchange fills it again).
    fn park(&mut self, id: QueryId, rec: &mut QueryRec) -> &mut Parked {
        if rec.parked != self.epoch {
            rec.parked = self.epoch;
            rec.slot = self.parked.len() as u32;
            self.parked.push(Parked {
                id,
                knn_dist: std::mem::replace(&mut rec.knn_dist, f64::INFINITY),
                result: std::mem::take(&mut rec.result),
                recheck: false,
            });
        }
        &mut self.parked[rec.slot as usize]
    }

    /// A shard reported `snap` for `rec`: the record takes the answer,
    /// the log the one it replaces (first report) or a note that there was
    /// a second.
    pub(crate) fn absorb(&mut self, rec: &mut QueryRec, snap: QuerySnapshot) {
        let again = rec.parked == self.epoch;
        self.park(snap.id, rec).recheck |= again;
        rec.knn_dist = snap.knn_dist;
        rec.result = snap.result;
    }

    /// An `Install` for `rec` was routed to a shard, which recomputes the
    /// answer and reports it whether or not it changed. `fresh` says the
    /// record was created for it; if the id was removed earlier this tick
    /// the record is tied back to the answer parked then, so the query is
    /// judged against what it had before the tick.
    pub(crate) fn installed(&mut self, id: QueryId, rec: &mut QueryRec, fresh: bool) {
        if fresh && self.removals > 0 {
            if let Some(slot) = self.parked.iter().position(|p| p.id == id) {
                rec.parked = self.epoch;
                rec.slot = slot as u32;
            }
        }
        self.park(id, rec).recheck = true;
    }

    /// `rec` left the registry: its pre-tick answer stays parked until the
    /// tick ends.
    pub(crate) fn removed(&mut self, id: QueryId, mut rec: QueryRec) {
        self.park(id, &mut rec).recheck = true;
        self.removals += 1;
    }

    /// Closes the tick: settles which touched queries changed, drops every
    /// parked answer, and returns the tick's `results_changed` — the
    /// changed queries plus the removed ones that had an answer.
    pub(crate) fn finish(&mut self, queries: &FxHashMap<QueryId, QueryRec>) -> usize {
        let mut removed_with_answer = 0;
        for p in self.parked.drain(..) {
            if !p.recheck {
                self.changed.push(p.id);
                continue;
            }
            match queries.get(&p.id) {
                None => removed_with_answer += usize::from(!p.result.is_empty()),
                Some(rec) => {
                    if rec.knn_dist.to_bits() != p.knn_dist.to_bits() || rec.result != p.result {
                        self.changed.push(p.id);
                    }
                }
            }
        }
        self.changed.sort_unstable();
        // The slots are gone: no stamp of this tick may be honoured again.
        self.epoch += 1;
        self.changed.len() + removed_with_answer
    }

    /// The queries the last finished tick changed, ascending.
    pub(crate) fn changed(&self) -> &[QueryId] {
        &self.changed
    }
}

#[cfg(test)]
mod tests {
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId};

    use super::*;

    const Q: QueryId = QueryId(7);

    fn answer(dists: &[f64]) -> (f64, Vec<Neighbor>) {
        let result: Vec<Neighbor> = dists
            .iter()
            .enumerate()
            .map(|(i, &dist)| Neighbor {
                object: ObjectId(i as u32),
                dist,
            })
            .collect();
        (dists.last().copied().unwrap_or(f64::INFINITY), result)
    }

    fn snap(dists: &[f64]) -> QuerySnapshot {
        let (knn_dist, result) = answer(dists);
        QuerySnapshot {
            id: Q,
            knn_dist,
            result,
        }
    }

    fn registry(dists: &[f64]) -> FxHashMap<QueryId, QueryRec> {
        let (knn_dist, result) = answer(dists);
        let rec = QueryRec {
            k: 2,
            shard: 0,
            slot: 0,
            pos: NetPoint::new(EdgeId(0), 0.5),
            knn_dist,
            result,
            parked: 0,
        };
        [(Q, rec)].into_iter().collect()
    }

    #[test]
    fn one_report_is_a_change_and_a_second_one_is_compared() {
        let mut log = ChangeLog::default();
        let mut queries = registry(&[1.0, 2.0]);

        log.begin();
        log.absorb(queries.get_mut(&Q).unwrap(), snap(&[1.0, 3.0]));
        assert_eq!(log.finish(&queries), 1);
        assert_eq!(log.changed(), [Q]);

        // Reported twice, ending where it started: a flap, not a change.
        log.begin();
        log.absorb(queries.get_mut(&Q).unwrap(), snap(&[1.0, 4.0]));
        log.absorb(queries.get_mut(&Q).unwrap(), snap(&[1.0, 3.0]));
        assert_eq!(log.finish(&queries), 0);
        assert!(log.changed().is_empty());
        assert_eq!(queries[&Q].result, answer(&[1.0, 3.0]).1);

        // Reported twice, ending elsewhere; and kNN_dist alone counts.
        log.begin();
        log.absorb(queries.get_mut(&Q).unwrap(), snap(&[1.0, 4.0]));
        log.absorb(queries.get_mut(&Q).unwrap(), snap(&[1.0, 5.0]));
        assert_eq!(log.finish(&queries), 1);
        log.begin();
        let rec = queries.get_mut(&Q).unwrap();
        log.installed(Q, rec, false);
        let mut underfull = snap(&[1.0, 5.0]);
        underfull.knn_dist = f64::INFINITY;
        log.absorb(rec, underfull);
        assert_eq!(log.finish(&queries), 1);
        assert_eq!(log.changed(), [Q]);

        // An idle tick leaves nothing behind.
        log.begin();
        assert_eq!(log.finish(&queries), 0);
        assert!(log.changed().is_empty());
    }

    #[test]
    fn an_install_is_judged_by_what_comes_back() {
        let mut log = ChangeLog::default();
        let mut queries = registry(&[1.0, 2.0]);

        // Re-installed and answered as before: not a change, though the
        // shard reported it.
        log.begin();
        let rec = queries.get_mut(&Q).unwrap();
        log.installed(Q, rec, false);
        assert!(rec.result.is_empty(), "the answer is parked, not copied");
        log.absorb(rec, snap(&[1.0, 2.0]));
        assert_eq!(log.finish(&queries), 0);

        // A new query without an answer is no change either; with one, it is.
        for (dists, want) in [(&[][..], 0), (&[1.0][..], 1)] {
            let mut queries = registry(&[]);
            log.begin();
            let rec = queries.get_mut(&Q).unwrap();
            log.installed(Q, rec, true);
            log.absorb(rec, snap(dists));
            assert_eq!(log.finish(&queries), want);
        }
    }

    #[test]
    fn a_removed_query_counts_once_and_gives_a_reinstall_its_answer_back() {
        let mut log = ChangeLog::default();
        let mut queries = registry(&[1.0, 2.0]);

        // Remove, re-install, remove again: one removal with an answer.
        log.begin();
        let rec = queries.remove(&Q).unwrap();
        log.removed(Q, rec);
        let mut again = registry(&[]);
        log.installed(Q, again.get_mut(&Q).unwrap(), true);
        log.removed(Q, again.remove(&Q).unwrap());
        assert_eq!(log.finish(&queries), 1);
        assert!(log.changed().is_empty());

        // Remove then install in one tick, answered as before the tick:
        // nothing changed. Answered otherwise: one change, no removal.
        for (dists, want) in [(&[1.0, 2.0][..], 0), (&[1.5, 2.0][..], 1)] {
            let mut queries = registry(&[1.0, 2.0]);
            log.begin();
            let rec = queries.remove(&Q).unwrap();
            log.removed(Q, rec);
            queries.extend(registry(&[]));
            let rec = queries.get_mut(&Q).unwrap();
            log.installed(Q, rec, true);
            log.absorb(rec, snap(dists));
            assert_eq!(log.finish(&queries), want);
            assert_eq!(log.changed().len(), want);
        }

        // A query without an answer leaves without counting.
        let mut queries = registry(&[]);
        log.begin();
        let rec = queries.remove(&Q).unwrap();
        log.removed(Q, rec);
        assert_eq!(log.finish(&queries), 0);
    }
}
