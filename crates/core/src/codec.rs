//! Wire codecs ([`rnn_roadnet::wire`]) for the core value types.
//!
//! These are the payloads the cluster RPC layer ships between the
//! coordinator and shard processes: the per-tick event types, the result
//! entries, and the deterministic counter/report structs. Encodings are
//! hand-rolled: ids as LEB128 varints, an [`ObjectEvent`]'s variant
//! folded into its id's varint, other enum variants as one `u8` tag,
//! counters as little-endian `u64`s and `f64` as raw bits — so
//! round-trips are bit-identical and decoding never allocates beyond the
//! decoded values themselves.

use std::time::Duration;

use rnn_roadnet::wire::{
    put_f64, put_u32, put_u64, put_u8, put_var, WireCodec, WireError, WireReader,
};
use rnn_roadnet::{NetPoint, ObjectId, QueryId};

use crate::counters::{MemoryUsage, OpCounters, TickReport};
use crate::types::{EdgeWeightUpdate, Neighbor, ObjectEvent, QueryEvent};

impl WireCodec for Neighbor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        put_f64(out, self.dist);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Neighbor {
            object: ObjectId::decode(r)?,
            dist: r.f64()?,
        })
    }
}

/// An [`ObjectEvent`] opens with one varint, `id << 2 | variant`
/// (`Move` 0, `Insert` 1, `Delete` 2): the variant costs no byte of its
/// own, and a `Move` of a paper-scale object on a paper-scale network is
/// 3 + 2 + 8 bytes. The folded value has 34 significant bits.
const OBJECT_EVENT_BITS: u32 = 34;

fn put_object_head(out: &mut Vec<u8>, id: ObjectId, variant: u64) {
    put_var(out, u64::from(id.0) << 2 | variant);
}

impl WireCodec for ObjectEvent {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ObjectEvent::Move { id, to } => {
                put_object_head(out, *id, 0);
                to.encode(out);
            }
            ObjectEvent::Insert { id, at } => {
                put_object_head(out, *id, 1);
                at.encode(out);
            }
            ObjectEvent::Delete { id } => put_object_head(out, *id, 2),
        }
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let head = r.var(OBJECT_EVENT_BITS)?;
        let id = ObjectId((head >> 2) as u32);
        match head & 3 {
            0 => Ok(ObjectEvent::Move {
                id,
                to: NetPoint::decode(r)?,
            }),
            1 => Ok(ObjectEvent::Insert {
                id,
                at: NetPoint::decode(r)?,
            }),
            2 => Ok(ObjectEvent::Delete { id }),
            _ => Err(WireError::Invalid("ObjectEvent variant tag")),
        }
    }
}

impl WireCodec for QueryEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QueryEvent::Move { id, to } => {
                put_u8(out, 0);
                id.encode(out);
                to.encode(out);
            }
            QueryEvent::Install { id, k, at } => {
                put_u8(out, 1);
                id.encode(out);
                put_u64(out, *k as u64);
                at.encode(out);
            }
            QueryEvent::Remove { id } => {
                put_u8(out, 2);
                id.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(QueryEvent::Move {
                id: QueryId::decode(r)?,
                to: NetPoint::decode(r)?,
            }),
            1 => Ok(QueryEvent::Install {
                id: QueryId::decode(r)?,
                k: r.u64()? as usize,
                at: NetPoint::decode(r)?,
            }),
            2 => Ok(QueryEvent::Remove {
                id: QueryId::decode(r)?,
            }),
            _ => Err(WireError::Invalid("QueryEvent variant tag")),
        }
    }
}

impl WireCodec for EdgeWeightUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.edge.encode(out);
        put_f64(out, self.new_weight);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(EdgeWeightUpdate {
            edge: rnn_roadnet::EdgeId::decode(r)?,
            new_weight: r.f64()?,
        })
    }
}

impl WireCodec for OpCounters {
    // Wire order is the order of the field table in `counters.rs`; a new
    // counter extends the wire form at the end.
    fn encode(&self, out: &mut Vec<u8>) {
        self.each(|_, v| put_u64(out, v));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        OpCounters::try_from_fn(|_| r.u64())
    }
}

impl WireCodec for TickReport {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.elapsed.as_secs());
        put_u32(out, self.elapsed.subsec_nanos());
        put_u64(out, self.results_changed as u64);
        self.counters.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let secs = r.u64()?;
        let nanos = r.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Invalid("TickReport subsecond nanos"));
        }
        Ok(TickReport {
            elapsed: Duration::new(secs, nanos),
            results_changed: r.u64()? as usize,
            counters: OpCounters::decode(r)?,
        })
    }
}

impl WireCodec for MemoryUsage {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.edge_table,
            self.query_table,
            self.expansion_trees,
            self.influence_lists,
            self.auxiliary,
        ] {
            put_u64(out, v as u64);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(MemoryUsage {
            edge_table: r.u64()? as usize,
            query_table: r.u64()? as usize,
            expansion_trees: r.u64()? as usize,
            influence_lists: r.u64()? as usize,
            auxiliary: r.u64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::wire::{decode_seq, encode_seq};
    use rnn_roadnet::EdgeId;

    fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "decode must consume the full encoding");
    }

    #[test]
    fn events_round_trip() {
        round_trip(ObjectEvent::Move {
            id: ObjectId(7),
            to: NetPoint::new(EdgeId(3), 0.25),
        });
        round_trip(ObjectEvent::Insert {
            id: ObjectId(0),
            at: NetPoint::new(EdgeId(0), 0.0),
        });
        round_trip(ObjectEvent::Delete { id: ObjectId(42) });
        round_trip(QueryEvent::Install {
            id: QueryId(9),
            k: 16,
            at: NetPoint::new(EdgeId(1), 1.0),
        });
        round_trip(QueryEvent::Remove { id: QueryId(9) });
        round_trip(EdgeWeightUpdate {
            edge: EdgeId(11),
            new_weight: 3.5,
        });
    }

    #[test]
    fn infinite_knn_dist_survives_the_wire() {
        round_trip(Neighbor {
            object: ObjectId(1),
            dist: f64::INFINITY,
        });
    }

    #[test]
    fn counters_round_trip() {
        let c = OpCounters {
            nodes_settled: 1,
            cells_migrated: u64::MAX,
            install_alloc_events: 77,
            ..Default::default()
        };
        round_trip(c);
    }

    /// The round trip cannot see a reordering (`decode` would reorder with
    /// `encode`): field i of the table is the i-th little-endian `u64`.
    #[test]
    fn counters_encode_in_table_order() {
        let mut i = 0;
        let c = OpCounters::from_fn(|_| {
            i += 1;
            i
        });
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let expected: Vec<u8> = (1..=19u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(buf, expected);
        assert_eq!(c.nodes_settled, 1, "the table starts where the wire did");
        assert_eq!(c.drain_alloc_events, 19, "and ends where it did");
    }

    #[test]
    fn event_sequences_round_trip() {
        let evs = vec![
            ObjectEvent::Delete { id: ObjectId(1) },
            ObjectEvent::Move {
                id: ObjectId(2),
                to: NetPoint::new(EdgeId(5), 0.75),
            },
        ];
        let mut buf = Vec::new();
        encode_seq(&evs, &mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(decode_seq::<ObjectEvent>(&mut r).unwrap(), evs);
    }

    #[test]
    fn bad_variant_tag_is_rejected() {
        // The variant lives in the id varint's two low bits; 3 is no variant.
        let mut buf = Vec::new();
        put_var(&mut buf, 5 << 2 | 3);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            ObjectEvent::decode(&mut r),
            Err(WireError::Invalid(_))
        ));
    }

    fn object_events(id: u32) -> [ObjectEvent; 3] {
        let id = ObjectId(id);
        let at = NetPoint::new(EdgeId(id.0), 0.5);
        [
            ObjectEvent::Move { id, to: at },
            ObjectEvent::Insert { id, at },
            ObjectEvent::Delete { id },
        ]
    }

    #[test]
    fn object_events_round_trip_at_the_varint_boundaries() {
        for id in [0, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21, u32::MAX] {
            for ev in object_events(id) {
                let mut buf = Vec::new();
                ev.encode(&mut buf);
                let mut r = WireReader::new(&buf);
                assert_eq!(ObjectEvent::decode(&mut r), Ok(ev));
                assert_eq!(r.remaining(), 0);
                for cut in 0..buf.len() {
                    let mut r = WireReader::new(&buf[..cut]);
                    assert_eq!(
                        ObjectEvent::decode(&mut r),
                        Err(WireError::Truncated),
                        "{ev:?} cut at {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn object_events_fold_the_variant_into_the_id() {
        let mut buf = Vec::new();
        for ev in object_events(40) {
            ev.encode(&mut buf);
        }
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0xa0, 0x01, 40, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f,   // Move 40 to edge 40 at 0.5
            0xa1, 0x01, 40, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f,   // Insert 40 at edge 40, 0.5
            0xa2, 0x01,                                     // Delete 40
        ];
        assert_eq!(buf, golden);
        // A head wider than a u32 id after the fold is refused.
        let mut wide = Vec::new();
        put_var(&mut wide, 1 << 34);
        assert!(matches!(
            ObjectEvent::decode(&mut WireReader::new(&wide)),
            Err(WireError::Invalid(_))
        ));
    }
}
