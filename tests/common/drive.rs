//! The one comparator and the one loop that drives a row.

use std::collections::BTreeMap;

use rnn_monitor::core::{ContinuousMonitor, Neighbor, TickReport};
use rnn_monitor::roadnet::QueryId;

use super::stack::Counters;
use super::{Stack, Workload};

/// The comparator: `got` must report what `want` reports — the same
/// query set and, for every query, the whole answer and the bits of its
/// `kNN_dist`, with `==`. Given the reports of one call each side made,
/// also the same `results_changed` and the same change list. Every
/// monitor answers with the k smallest `(dist, id)` and every distance is
/// a multiple of the network's distance unit, so one answer is right and
/// no comparison needs a tolerance.
pub fn compare(
    want: &dyn ContinuousMonitor,
    got: &dyn ContinuousMonitor,
    calls: Option<(&TickReport, &TickReport)>,
) -> Result<(), String> {
    let (mut ids, mut got_ids) = (want.query_ids(), got.query_ids());
    ids.sort_unstable();
    got_ids.sort_unstable();
    if ids != got_ids {
        return Err(format!("query sets {ids:?} != {got_ids:?}"));
    }
    for q in ids {
        let (a, b) = (answer(want, q), answer(got, q));
        if a != b {
            return Err(format!("query {q}: (kNN_dist bits, answer) {a:?} != {b:?}"));
        }
    }
    if let Some((a, b)) = calls {
        if a.results_changed != b.results_changed {
            return Err(format!(
                "results_changed {} != {}",
                a.results_changed, b.results_changed
            ));
        }
        if want.changed_queries() != got.changed_queries() {
            return Err(format!(
                "change lists {:?} != {:?}",
                want.changed_queries(),
                got.changed_queries()
            ));
        }
    }
    Ok(())
}

fn answer(m: &dyn ContinuousMonitor, q: QueryId) -> (Option<u64>, Option<&[Neighbor]>) {
    (m.knn_dist(q).map(f64::to_bits), m.result(q))
}

/// Full copies of every registered query's `(kNN_dist bits, result)`, as
/// of the last checked call: the brute-force diff a change list must be.
#[derive(Default)]
pub struct KeptAnswers(BTreeMap<QueryId, (u64, Vec<Neighbor>)>);

impl KeptAnswers {
    fn read(m: &dyn ContinuousMonitor) -> BTreeMap<QueryId, (u64, Vec<Neighbor>)> {
        m.query_ids()
            .into_iter()
            .map(|q| {
                let answer = (
                    m.knn_dist(q).unwrap().to_bits(),
                    m.result(q).unwrap().to_vec(),
                );
                (q, answer)
            })
            .collect()
    }

    /// Keeps `m`'s answers without checking anything.
    pub fn keep(&mut self, m: &dyn ContinuousMonitor) {
        self.0 = Self::read(m);
    }

    /// Holds the monitor's change list and the call's `results_changed`
    /// against the diff of the kept copies with the answers read back now,
    /// then keeps those. A query the call installed is diffed against
    /// `(∞, [])`; a removed one counts towards `results_changed` if it had
    /// an answer.
    pub fn check(&mut self, m: &dyn ContinuousMonitor, report: &TickReport) -> Result<(), String> {
        let now = Self::read(m);
        let unanswered = (f64::INFINITY.to_bits(), Vec::new());
        let want: Vec<QueryId> = now
            .iter()
            .filter(|(q, answer)| self.0.get(q).unwrap_or(&unanswered) != *answer)
            .map(|(&q, _)| q)
            .collect();
        if m.changed_queries() != want.as_slice() {
            return Err(format!(
                "the change list {:?} is not the brute-force diff {want:?}",
                m.changed_queries()
            ));
        }
        let removed_with_answer = self
            .0
            .iter()
            .filter(|(q, answer)| !now.contains_key(q) && !answer.1.is_empty())
            .count();
        if report.results_changed != want.len() + removed_with_answer {
            return Err(format!(
                "results_changed {} is not the diff's {} plus {removed_with_answer} removed",
                report.results_changed,
                want.len()
            ));
        }
        self.0 = now;
        Ok(())
    }
}

/// Installs `workload` into every stack and runs `ticks` ticks of it.
/// After installation, every stack must answer what the first stack, the
/// row's reference, answers ([`compare`]). After every tick, every stack
/// must hold its invariants and report what the reference reports, the
/// call's `results_changed` and change list included; the reference's
/// change list must be the brute-force diff of its answers
/// ([`KeptAnswers`]); and a stack with a twin must match its counters (see
/// [`Counters`]). An exact twin's `memory()` is compared once, after the
/// last tick: on a cluster it is a request on the wire, which would move a
/// fault plan's frame budget.
pub fn drive(
    workload: &mut dyn Workload,
    stacks: &mut [Stack],
    ticks: usize,
) -> Result<(), String> {
    drive_observed(workload, stacks, ticks, |_, _| {})
}

/// [`drive`], handing the stacks to `observe` after installation (tick
/// 0) and after every tick, for what a row watches on the way.
pub fn drive_observed(
    workload: &mut dyn Workload,
    stacks: &mut [Stack],
    ticks: usize,
    mut observe: impl FnMut(usize, &[Stack]),
) -> Result<(), String> {
    for s in stacks.iter_mut() {
        s.install(workload);
    }
    let mut kept = KeptAnswers::default();
    kept.keep(stacks[0].monitor());
    check(stacks, 0)?;
    observe(0, stacks);
    for t in 1..=ticks {
        let batch = workload.tick();
        for s in stacks.iter_mut() {
            s.tick(&batch, workload.reports());
        }
        let reference = &stacks[0];
        kept.check(reference.monitor(), &reference.last)
            .map_err(|e| format!("tick {t}, {}: {e}", reference.name))?;
        check(stacks, t)?;
        observe(t, stacks);
    }
    for got in stacks.iter() {
        if let Some((of, Counters::Exact)) = got.twin_of() {
            let twin = &stacks[of];
            let (a, b) = (twin.monitor().memory(), got.monitor().memory());
            if a != b {
                return Err(format!(
                    "{} vs {}: memory {a:?} != {b:?}",
                    twin.name, got.name
                ));
            }
        }
    }
    Ok(())
}

/// After installation (`t` = 0), every stack's answers against the
/// reference's. After a tick, first every stack's invariants, then every
/// stack's answers and report against the reference's, and its counters
/// against its twin's.
fn check(stacks: &mut [Stack], t: usize) -> Result<(), String> {
    let after_tick = t > 0;
    if after_tick {
        for s in stacks.iter_mut() {
            s.check()
                .map_err(|e| format!("tick {t}, {}: invariants: {e}", s.name))?;
        }
    }
    let want = &stacks[0];
    for got in &stacks[1..] {
        let calls = after_tick.then_some((&want.last, &got.last));
        compare(want.monitor(), got.monitor(), calls)
            .map_err(|e| format!("tick {t}, {} vs {}: {e}", want.name, got.name))?;
        let Some((of, counters)) = got.twin_of().filter(|_| after_tick) else {
            continue;
        };
        let twin = &stacks[of];
        let (a, b) = match counters {
            Counters::Exact => (twin.last.counters, got.last.counters),
            Counters::RestoreStable => (
                twin.last.counters.restore_stable(),
                got.last.counters.restore_stable(),
            ),
        };
        if a != b {
            return Err(format!(
                "tick {t}, {} vs {}: {counters:?} counters {a:?} != {b:?}",
                twin.name, got.name
            ));
        }
    }
    Ok(())
}
