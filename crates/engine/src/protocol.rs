//! The engine↔shard protocol, factored out of the worker threads so that
//! any kind of shard — an in-process thread ([`crate::worker::ShardWorker`])
//! or a remote process behind an RPC link (`rnn-cluster`) — can speak it.
//!
//! The protocol is a strict one-outstanding request/response exchange per
//! shard: every [`Request::Tick`] and [`Request::Memory`] is answered by
//! exactly one [`Response`], and the engine drains all outstanding
//! responses before issuing new requests. Hand-off is **delta encoded**
//! ([`DeltaBatch`]): per-shard object and query event slices are moved
//! (never cloned) out of the router's pending buffers, the tick's
//! edge-weight updates travel as one shared `Arc` arena, and shards reply
//! with [`QuerySnapshot`] deltas — the queries whose answer the batch
//! changed, as the shard's monitor lists them
//! ([`rnn_core::ContinuousMonitor::changed_queries`]), plus the ones it
//! installed, in ascending id order.
//!
//! This module is the types and their wire codec only. The shard-side
//! half of the exchange — what a shard does with a [`DeltaBatch`] — is
//! [`crate::shard::ShardTickState`], shared verbatim by the worker thread
//! loop and the cluster's `ShardService` so both kinds of shard produce
//! bit-identical responses.

use std::sync::Arc;

use rnn_core::{EdgeWeightUpdate, MemoryUsage, Neighbor, ObjectEvent, QueryEvent, TickReport};
use rnn_roadnet::wire::{decode_seq, encode_seq, put_f64, put_u64, put_u8};
use rnn_roadnet::{QueryId, WireCodec, WireError, WireReader};

/// Why a [`DeltaBatch`] was dispatched. The in-process worker ignores the
/// kind (the shard-side processing is identical); the cluster transport
/// uses it to give each phase of the engine's protocol — regular ticks,
/// halo-resync rounds, migration hand-off — its own typed wire frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// A regular tick's routed events.
    Tick,
    /// A reconcile round: halo resync inserts/evictions after radii moved.
    Resync,
    /// A rebalance migration hand-off: entity removals on the source
    /// shard, installs on the destination shard.
    Migration,
}

/// The events of one dispatch destined for a single shard: its own object
/// and query slices (moved from the router, append-only while pending)
/// plus a reference-counted view of the tick's shared edge-update arena.
#[derive(Clone, Debug)]
pub struct DeltaBatch {
    /// Object events routed to this shard (owned, moved — never cloned).
    pub objects: Vec<ObjectEvent>,
    /// Query events routed to this shard (owned, moved — never cloned).
    pub queries: Vec<QueryEvent>,
    /// The tick's edge-weight updates, shared by every shard through one
    /// arena allocation (empty `Arc` on reconcile rounds).
    pub shared_edges: Arc<Vec<EdgeWeightUpdate>>,
    /// Which engine phase dispatched this batch (tick / resync /
    /// migration). Does not change shard-side processing; selects the wire
    /// frame tag on RPC links.
    pub kind: BatchKind,
}

/// What the engine asks a shard to do.
pub enum Request {
    /// Process one (sub-)batch and report back.
    Tick(DeltaBatch),
    /// Report the monitor's resident memory.
    Memory,
    /// Exit the worker loop.
    Shutdown,
}

/// A shard's answer.
pub enum Response {
    /// Outcome of a [`Request::Tick`].
    Tick(TickOutcome),
    /// Answer to [`Request::Memory`].
    Memory(MemoryUsage),
    /// The link to this shard is gone for good: the transport died and
    /// recovery (respawn + snapshot + replay) stayed exhausted past its
    /// retry budget. In-process workers never produce this; RPC links do.
    /// The engine rebalances the dead shard's cells away onto the
    /// survivors (a counted takeover).
    Down,
}

/// The state of one query after a shard processed a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySnapshot {
    /// The query.
    pub id: QueryId,
    /// Its `kNN_dist` (∞ while underfull).
    pub knn_dist: f64,
    /// Its current result, sorted by `(dist, id)`.
    pub result: Vec<Neighbor>,
}

/// Everything the engine needs back from one shard tick: the monitor's
/// report, the answers the batch changed, and the grouping-unit count.
/// Nothing in it says *where* in the shard the work ran — the rebalance
/// planner weighs cells by the entities the coordinator routed to them.
#[derive(Clone, Debug, PartialEq)]
pub struct TickOutcome {
    /// The monitor's own report (op counters, worker wall-clock).
    pub report: TickReport,
    /// The queries whose answer this batch changed (the monitor's change
    /// list) plus every query it installed, ascending by id. Absence means
    /// "unchanged" — the engine keeps its cached result.
    pub snapshots: Vec<QuerySnapshot>,
    /// The monitor's grouping-unit count (GMA active nodes), if any.
    pub active_groups: Option<usize>,
}

/// A channel to one shard, whatever its locality. The engine only ever
/// needs the strict request/response pair; implementations are the
/// in-process [`crate::worker::ShardWorker`] (mpsc channels to a thread)
/// and the cluster's `RemoteShard` (framed RPC with retry/timeout).
pub trait ShardLink: Send {
    /// Sends a request. Must not block on the shard's processing.
    fn send(&self, req: Request);
    /// Blocks for the next response to an outstanding request.
    fn recv(&self) -> Response;
}

impl WireCodec for DeltaBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.objects, out);
        encode_seq(&self.queries, out);
        encode_seq(&self.shared_edges, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DeltaBatch {
            objects: decode_seq(r)?,
            queries: decode_seq(r)?,
            shared_edges: Arc::new(decode_seq(r)?),
            // The kind is carried by the frame tag, not the payload; the
            // shard side never branches on it.
            kind: BatchKind::Tick,
        })
    }
}

impl WireCodec for QuerySnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        put_f64(out, self.knn_dist);
        encode_seq(&self.result, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QuerySnapshot {
            id: QueryId::decode(r)?,
            knn_dist: r.f64()?,
            result: decode_seq(r)?,
        })
    }
}

impl WireCodec for TickOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.report.encode(out);
        encode_seq(&self.snapshots, out);
        match self.active_groups {
            None => put_u8(out, 0),
            Some(n) => {
                put_u8(out, 1);
                put_u64(out, n as u64);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let report = TickReport::decode(r)?;
        let snapshots = decode_seq(r)?;
        let active_groups = match r.u8()? {
            0 => None,
            1 => Some(r.u64()? as usize),
            _ => return Err(WireError::Invalid("TickOutcome active_groups flag")),
        };
        Ok(TickOutcome {
            report,
            snapshots,
            active_groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::{EdgeId, NetPoint, ObjectId};

    #[test]
    fn delta_batch_round_trips_bit_identically() {
        let batch = DeltaBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(3),
                to: NetPoint::new(EdgeId(1), 0.5),
            }],
            queries: vec![QueryEvent::Install {
                id: QueryId(8),
                k: 4,
                at: NetPoint::new(EdgeId(2), 0.125),
            }],
            shared_edges: Arc::new(vec![EdgeWeightUpdate {
                edge: EdgeId(9),
                new_weight: 1.75,
            }]),
            kind: BatchKind::Resync,
        };
        let mut buf = Vec::new();
        batch.encode(&mut buf);
        let back = DeltaBatch::decode(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.objects, batch.objects);
        assert_eq!(back.queries, batch.queries);
        assert_eq!(*back.shared_edges, *batch.shared_edges);
    }

    #[test]
    fn tick_outcome_round_trips_including_infinity() {
        let outcome = TickOutcome {
            report: TickReport::default(),
            snapshots: vec![QuerySnapshot {
                id: QueryId(1),
                knn_dist: f64::INFINITY,
                result: vec![],
            }],
            active_groups: Some(17),
        };
        let mut buf = Vec::new();
        outcome.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(TickOutcome::decode(&mut r).unwrap(), outcome);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tick_outcome_encodes_to_the_pinned_bytes() {
        // A round trip cannot see the format drift; these bytes can. Two
        // snapshots — one with an answer, one underfull and empty — after
        // the report (elapsed, results_changed, the counter table).
        let outcome = TickOutcome {
            report: TickReport {
                results_changed: 2,
                ..TickReport::default()
            },
            snapshots: vec![
                QuerySnapshot {
                    id: QueryId(3),
                    knn_dist: 1.5,
                    result: vec![
                        Neighbor {
                            object: rnn_roadnet::ObjectId(7),
                            dist: 0.25,
                        },
                        Neighbor {
                            object: rnn_roadnet::ObjectId(9),
                            dist: 1.5,
                        },
                    ],
                },
                QuerySnapshot {
                    id: QueryId(0x0102_0304),
                    knn_dist: f64::INFINITY,
                    result: vec![],
                },
            ],
            active_groups: Some(2),
        };
        let mut buf = Vec::new();
        outcome.encode(&mut buf);
        let mut report = Vec::new();
        outcome.report.encode(&mut report);
        assert_eq!(&buf[..report.len()], report.as_slice());
        #[rustfmt::skip]
        let golden: &[u8] = &[
            2, 0, 0, 0,                                     // two snapshots
            3, 0, 0, 0,                                     // QueryId(3)
            0, 0, 0, 0, 0, 0, 0xf8, 0x3f,                   // kNN_dist 1.5
            2, 0, 0, 0,                                     // two neighbours
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xd0, 0x3f,       // object 7 at 0.25
            9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f,       // object 9 at 1.5
            4, 3, 2, 1,                                     // QueryId(0x01020304)
            0, 0, 0, 0, 0, 0, 0xf0, 0x7f,                   // kNN_dist ∞
            0, 0, 0, 0,                                     // no neighbours
            1, 2, 0, 0, 0, 0, 0, 0, 0,                      // Some(2) active groups
        ];
        assert_eq!(&buf[report.len()..], golden);
    }
}
