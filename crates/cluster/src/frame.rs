//! The cluster's wire framing: a length-prefixed envelope around the
//! engine↔shard protocol payloads.
//!
//! Layout of one frame on the wire (all integers little-endian):
//!
//! ```text
//! ┌──────────┬─────────┬─────────┬───────────┬─────────┬───────────────┐
//! │ len: u32 │ tag:u16 │ seq:u32 │ epoch:u32 │ crc:u32 │ payload bytes │
//! └──────────┴─────────┴─────────┴───────────┴─────────┴───────────────┘
//! ```
//!
//! `len` counts everything after itself (`tag` + `seq` + `epoch` +
//! `crc` + payload), so a stream reader knows exactly how many bytes to
//! pull before attempting a decode. `crc` is the CRC-32C
//! ([`rnn_roadnet::wire::Crc32c`]) over the [`CODEC_FORMAT`] byte, `tag`,
//! `seq`, `epoch`, and the payload; a mismatch means the frame was
//! corrupted in flight — or written by a build whose payload codecs
//! differ — and the decoder reports [`WireError::Checksum`] instead of
//! handing garbage to the payload codecs. `seq` is the
//! coordinator-assigned request sequence number; replies echo the
//! sequence of the request they answer, which is what makes
//! retransmission and duplicate-detection possible. `epoch` is the shard
//! log's leadership term: every frame a leader sends is stamped with its
//! current epoch, replicas and promoted services reject frames from
//! older epochs (fencing), and all non-replicated traffic simply carries
//! epoch 0.

use rnn_roadnet::wire::{put_u16, put_u32, Crc32c};
use rnn_roadnet::{WireError, WireReader};

/// Frame header bytes after the length prefix: tag + seq + epoch + crc.
pub const HEADER_LEN: usize = 2 + 4 + 4 + 4;

/// The payload codecs' format, fed to every frame's checksum ahead of
/// the header. Payloads carry no version of their own, so a frame — a
/// WAL record, a `snapshot.bin`, a packet in flight — written by a build
/// with other codecs would pass a plain CRC and mis-parse. Under a
/// different format byte it fails its checksum instead, and reads as
/// torn or absent. Format 1 was fixed-width ids; format 2 is varint ids
/// with the object-event variant folded into the id.
pub const CODEC_FORMAT: u8 = 2;

/// Wire message tags. One tag per protocol message so the receiver can
/// decode the payload without sniffing; the three request kinds that
/// carry a [`rnn_engine::DeltaBatch`] are distinguished so the engine's
/// phases (tick / halo resync / migration hand-off) are explicit on the
/// wire and in packet captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum MsgTag {
    /// Request: a regular tick's delta batch.
    TickEvents = 1,
    /// Request: a halo-resync round's delta batch.
    ResyncEvents = 2,
    /// Request: a rebalance migration hand-off's delta batch.
    MigrationEvents = 3,
    /// Request: report resident memory.
    MemoryRequest = 4,
    /// Request: exit the service loop.
    Shutdown = 5,
    /// Reply to any of the three event requests: a `TickOutcome`.
    TickReply = 6,
    /// Reply to [`MsgTag::MemoryRequest`]: a `MemoryUsage`.
    MemoryReply = 7,
    /// Request: capture the monitor's answer-relevant state
    /// (`rnn_core::MonitorState`). Empty payload.
    SnapshotRequest = 8,
    /// Reply to [`MsgTag::SnapshotRequest`]: the encoded state, or an
    /// **empty** payload when the monitor does not support snapshots
    /// (the coordinator then disables the snapshot cycle for this link).
    SnapshotReply = 9,
    /// Request: restore the carried `rnn_core::MonitorState` into the
    /// (fresh) monitor. Sent during crash recovery **with the sequence
    /// number the snapshot covers**, so the service's duplicate filter
    /// accepts exactly the journal suffix (`seq > covered_seq`) replayed
    /// after it.
    SnapshotInstall = 10,
    /// Reply to [`MsgTag::SnapshotInstall`]: payload `[1]` on success,
    /// `[0]` if the restore was rejected.
    RestoreReply = 11,
    /// Replication request: append one journaled event frame (the
    /// payload is the *original* event frame's full wire bytes) to a
    /// follower replica's log. Carries the leader's epoch; a replica at
    /// a newer epoch rejects it as fenced.
    Append = 12,
    /// Replication reply: acknowledges [`MsgTag::Append`],
    /// [`MsgTag::SnapshotOffer`], and [`MsgTag::Promote`]. Payload byte 0
    /// is the status ([`ACK_OK`] / [`ACK_FENCED`]); the frame's `epoch`
    /// echoes the replica's current epoch so a fenced leader learns how
    /// stale it is.
    AppendAck = 13,
    // 14 is unassigned and decodes as an unknown tag: a tag's number
    // never changes once it has been on the wire.
    /// Replication request: promote this follower to serving leader for
    /// its shard. Payload: the new epoch is the frame's `epoch`; the
    /// payload carries the replay boundary sequence (`u32`, exclusive —
    /// `u32::MAX` replays everything) so an in-flight request is *not*
    /// replayed from the replica log but retransmitted by the
    /// coordinator after promotion.
    Promote = 15,
    /// Replication request: hand the follower the leader's latest
    /// durable snapshot (payload: covered seq `u32` + encoded
    /// `SnapshotReply` payload bytes) so the replica can truncate its
    /// log behind it; acked with [`MsgTag::AppendAck`].
    SnapshotOffer = 16,
}

/// [`MsgTag::AppendAck`] status byte: the request was accepted.
pub const ACK_OK: u8 = 1;
/// [`MsgTag::AppendAck`] status byte: the request came from a stale
/// epoch and was rejected (fenced), not applied.
pub const ACK_FENCED: u8 = 0;
/// [`MsgTag::AppendAck`] status byte: the replica refused a promotion
/// (malformed request, or its snapshot failed to restore). The leader
/// treats this follower as unusable and tries the next one.
pub const ACK_REFUSED: u8 = 2;

impl MsgTag {
    fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            1 => MsgTag::TickEvents,
            2 => MsgTag::ResyncEvents,
            3 => MsgTag::MigrationEvents,
            4 => MsgTag::MemoryRequest,
            5 => MsgTag::Shutdown,
            6 => MsgTag::TickReply,
            7 => MsgTag::MemoryReply,
            8 => MsgTag::SnapshotRequest,
            9 => MsgTag::SnapshotReply,
            10 => MsgTag::SnapshotInstall,
            11 => MsgTag::RestoreReply,
            12 => MsgTag::Append,
            13 => MsgTag::AppendAck,
            15 => MsgTag::Promote,
            16 => MsgTag::SnapshotOffer,
            _ => return Err(WireError::Invalid("unknown message tag")),
        })
    }

    /// Whether this tag is one of the three delta-batch requests.
    pub fn is_events(self) -> bool {
        matches!(
            self,
            MsgTag::TickEvents | MsgTag::ResyncEvents | MsgTag::MigrationEvents
        )
    }
}

/// One decoded frame: the envelope fields plus the raw payload bytes
/// (decoded separately by the protocol codecs, so transport code never
/// depends on message internals).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Message type.
    pub tag: MsgTag,
    /// Request sequence number (replies echo their request's).
    pub seq: u32,
    /// Leadership term of the sending shard log; 0 on every
    /// non-replicated path.
    pub epoch: u32,
    /// Message payload, still encoded.
    pub payload: Vec<u8>,
}

/// The `crc` field: CRC-32C over the codec format, tag + seq + epoch
/// (little-endian) and then the payload, streamed where they lie.
fn frame_crc(tag: u16, seq: u32, epoch: u32, payload: &[u8]) -> u32 {
    Crc32c::new()
        .update(&[CODEC_FORMAT])
        .update(&tag.to_le_bytes())
        .update(&seq.to_le_bytes())
        .update(&epoch.to_le_bytes())
        .update(payload)
        .finish()
}

impl Frame {
    /// Encodes the frame as one length-prefixed byte string ready for a
    /// single `send`.
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::encode(self.tag, self.seq, self.epoch, &self.payload)
    }

    /// [`Self::to_bytes`] of a frame whose payload is borrowed.
    pub fn encode(tag: MsgTag, seq: u32, epoch: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + HEADER_LEN + payload.len());
        put_u32(&mut out, (HEADER_LEN + payload.len()) as u32);
        put_u16(&mut out, tag as u16);
        put_u32(&mut out, seq);
        put_u32(&mut out, epoch);
        put_u32(&mut out, frame_crc(tag as u16, seq, epoch, payload));
        out.extend_from_slice(payload);
        out
    }

    /// Decodes one frame from `bytes`, which must be the complete frame
    /// *including* its length prefix (exactly what [`Self::to_bytes`]
    /// produced and a transport's recv returned). Never panics: short
    /// input is [`WireError::Truncated`], a length prefix that disagrees
    /// with the buffer is [`WireError::Invalid`], and any corruption of
    /// the covered bytes is caught as [`WireError::Checksum`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let len = r.u32()? as usize;
        if len != r.remaining() {
            return Err(WireError::Invalid("frame length prefix mismatch"));
        }
        if len < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let tag_raw = r.u16()?;
        let seq = r.u32()?;
        let epoch = r.u32()?;
        let crc = r.u32()?;
        let payload = r.bytes(r.remaining())?;
        if frame_crc(tag_raw, seq, epoch, payload) != crc {
            return Err(WireError::Checksum);
        }
        let tag = MsgTag::from_u16(tag_raw)?;
        Ok(Frame {
            tag,
            seq,
            epoch,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for tag in [
            MsgTag::TickEvents,
            MsgTag::ResyncEvents,
            MsgTag::MigrationEvents,
            MsgTag::MemoryRequest,
            MsgTag::Shutdown,
            MsgTag::TickReply,
            MsgTag::MemoryReply,
            MsgTag::SnapshotRequest,
            MsgTag::SnapshotReply,
            MsgTag::SnapshotInstall,
            MsgTag::RestoreReply,
            MsgTag::Append,
            MsgTag::AppendAck,
            MsgTag::Promote,
            MsgTag::SnapshotOffer,
        ] {
            let f = Frame {
                tag,
                seq: 0xDEAD_BEEF,
                epoch: 0xCAFE_F00D,
                payload: vec![1, 2, 3, 4, 5],
            };
            let bytes = f.to_bytes();
            assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);
        }
        assert!(MsgTag::from_u16(14).is_err(), "tag 14 is unassigned");
    }

    fn frame_with_payload(len: usize) -> Vec<u8> {
        Frame {
            tag: MsgTag::TickEvents,
            seq: 7,
            epoch: 3,
            payload: (0..len).map(|i| (i * 131 + 17) as u8).collect(),
        }
        .to_bytes()
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Several 16-byte blocks plus a ragged tail, so both the sliced
        // loop and the byte-wise tail are covered.
        let mut bytes = frame_with_payload(123);
        // Flip each bit past the length prefix (corrupting the prefix
        // itself is a framing error, reported as Invalid/Truncated).
        for byte in 4..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                assert!(
                    Frame::from_bytes(&bytes).is_err(),
                    "bit {bit} of byte {byte} slipped through"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_two_bit_flip_is_detected() {
        let mut bytes = frame_with_payload(64);
        let bits = (bytes.len() - 4) * 8;
        for a in 0..bits {
            for b in a + 1..bits {
                bytes[4 + a / 8] ^= 1 << (a % 8);
                bytes[4 + b / 8] ^= 1 << (b % 8);
                assert!(
                    Frame::from_bytes(&bytes).is_err(),
                    "bits {a} and {b} past the prefix slipped through"
                );
                bytes[4 + a / 8] ^= 1 << (a % 8);
                bytes[4 + b / 8] ^= 1 << (b % 8);
            }
        }
    }

    /// A word-wise FNV (`h = (h ^ w) * P`) never carries bit 63 out of
    /// bit 63, so flipping the top bit of two words 32 bytes apart cancels
    /// in it. The CRC catches every such pair, at every alignment.
    #[test]
    fn paired_top_bit_flips_are_detected() {
        let mut bytes = frame_with_payload(100);
        for i in 4..bytes.len() - 32 {
            bytes[i] ^= 0x80;
            bytes[i + 32] ^= 0x80;
            assert!(
                Frame::from_bytes(&bytes).is_err(),
                "top bits of bytes {i} and {} slipped through",
                i + 32
            );
            bytes[i] ^= 0x80;
            bytes[i + 32] ^= 0x80;
        }
    }

    /// A frame as a build before [`CODEC_FORMAT`] wrote it: the same
    /// layout, checksummed without the format byte.
    #[test]
    fn a_frame_from_an_earlier_codec_fails_its_checksum() {
        let payload = [0u8, 7, 0, 0, 0, 3, 0, 0, 0];
        let (tag, seq, epoch) = (MsgTag::TickEvents as u16, 5u32, 1u32);
        let mut old = Vec::new();
        put_u32(&mut old, (HEADER_LEN + payload.len()) as u32);
        put_u16(&mut old, tag);
        put_u32(&mut old, seq);
        put_u32(&mut old, epoch);
        let crc = Crc32c::new()
            .update(&tag.to_le_bytes())
            .update(&seq.to_le_bytes())
            .update(&epoch.to_le_bytes())
            .update(&payload)
            .finish();
        put_u32(&mut old, crc);
        old.extend_from_slice(&payload);
        assert_eq!(Frame::from_bytes(&old), Err(WireError::Checksum));
        // The same frame under the current format decodes.
        let new = Frame::encode(MsgTag::TickEvents, seq, epoch, &payload);
        assert_eq!(old.len(), new.len());
        assert_eq!(Frame::from_bytes(&new).unwrap().payload, payload);
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let bytes = Frame {
            tag: MsgTag::TickReply,
            seq: 1,
            epoch: 0,
            payload: vec![9; 32],
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(Frame::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
