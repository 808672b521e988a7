//! Byte-level wire codecs for the cluster RPC layer.
//!
//! The sharded engine's worker hand-off is already a delta protocol over
//! dense, offset-addressed values (`u32` ids, `f64` distances, flat event
//! slices). This module gives those values an explicit byte form so they
//! can cross a process boundary: fixed-width little-endian put/get
//! helpers, LEB128 varints ([`put_var`], [`WireReader::var`]), a
//! bounds-checked [`WireReader`], a streaming CRC-32C frame [`checksum`]
//! ([`Crc32c`]), and the [`WireCodec`] trait the higher layers (core
//! event types, engine protocol messages, cluster frames) implement by
//! hand — no serde, no reflection.
//!
//! Ids are dense, so every id type travels as a varint: one byte below
//! 128, two below 16,384, three below 2²¹ — a paper-scale network's edge
//! ids and object ids fit in two and three. Floats travel as their raw
//! IEEE-754 bits ([`f64::to_bits`]), so round-trips are bit-identical —
//! including `INFINITY`, which the monitors use for underfull `kNN_dist`
//! values.

use crate::ids::{EdgeId, NodeId, ObjectId, QueryId};
use crate::netpoint::NetPoint;

/// Why a decode failed. Decoders never panic on hostile bytes: a short
/// buffer is [`WireError::Truncated`], an out-of-range discriminant is
/// [`WireError::Invalid`], and a frame whose checksum does not match its
/// contents is [`WireError::Checksum`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A discriminant or length field held an impossible value.
    Invalid(&'static str),
    /// The frame checksum did not match the frame contents.
    Checksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
            WireError::Checksum => write!(f, "wire frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32C (Castagnoli) of `bytes`: [`Crc32c`] in one shot. An integrity
/// check against transport bugs, torn writes and injected faults, not a
/// cryptographic MAC.
pub fn checksum(bytes: &[u8]) -> u32 {
    Crc32c::new().update(bytes).finish()
}

/// The reflected Castagnoli polynomial.
const CASTAGNOLI: u32 = 0x82F6_3B78;

/// Slicing-by-16 tables: row `k`, entry `b` is the CRC register after
/// byte `b` followed by `k` zero bytes. Built by the compiler.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 16 {
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (CASTAGNOLI & (crc & 1).wrapping_neg());
                bit += 1;
            }
            // lint: allow(panic-free-wire): compile-time table build, k < 16 and b < 256 by the loop bounds; an out-of-range index would fail the build, not a decode
            tables[k][b] = crc;
            k += 1;
        }
        b += 1;
    }
    tables
}

/// One table entry. A `u8` index is always in range, so the `get` never
/// misses and the compiler drops the check.
#[inline(always)]
fn entry(row: &[u32; 256], b: u8) -> u32 {
    row.get(usize::from(b)).copied().unwrap_or(0)
}

/// Streaming CRC-32C (Castagnoli, reflected, init and final XOR
/// `!0`): `update(a).update(b)` equals one `update` over `a ++ b`, so a
/// frame's header and payload are checksummed where they lie. Catches
/// every 1- and 2-bit error and every burst up to 32 bits at frame sizes.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// The register before any byte.
    pub const fn new() -> Self {
        Self(!0)
    }

    /// Feeds `bytes`, sixteen at a time (slicing-by-16), then the tail
    /// byte by byte.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Self {
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = block
            else {
                continue; // chunks_exact yields 16-byte blocks only
            };
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            crc = entry(t15, b0 ^ c0)
                ^ entry(t14, b1 ^ c1)
                ^ entry(t13, b2 ^ c2)
                ^ entry(t12, b3 ^ c3)
                ^ entry(t11, b4)
                ^ entry(t10, b5)
                ^ entry(t9, b6)
                ^ entry(t8, b7)
                ^ entry(t7, b8)
                ^ entry(t6, b9)
                ^ entry(t5, b10)
                ^ entry(t4, b11)
                ^ entry(t3, b12)
                ^ entry(t2, b13)
                ^ entry(t1, b14)
                ^ entry(t0, b15);
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ entry(t0, crc as u8 ^ b);
        }
        Self(crc)
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits (bit-identical round-trip).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends `v` as an LEB128 varint: seven bits per byte, low group
/// first, the top bit set on every byte but the last. Values below 2²¹
/// (three bytes) take a branch each; wider ones loop.
#[inline]
pub fn put_var(out: &mut Vec<u8>, v: u64) {
    const MORE: u8 = 0x80;
    if v < 1 << 7 {
        out.push(v as u8);
    } else if v < 1 << 14 {
        out.extend_from_slice(&[v as u8 | MORE, (v >> 7) as u8]);
    } else if v < 1 << 21 {
        out.extend_from_slice(&[v as u8 | MORE, (v >> 7) as u8 | MORE, (v >> 14) as u8]);
    } else {
        let mut v = v;
        while v >= u64::from(MORE) {
            out.push(v as u8 | MORE);
            v >>= 7;
        }
        out.push(v as u8);
    }
}

/// A bounds-checked cursor over a received byte buffer. Every accessor
/// returns [`WireError::Truncated`] instead of panicking when the buffer
/// runs out, so corrupt length fields surface as decode errors.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.bytes(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self
            .bytes(2)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self
            .bytes(4)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self
            .bytes(8)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an LEB128 varint ([`put_var`]) of at most `bits` significant
    /// bits (at most 63). A buffer that ends inside the varint is
    /// [`WireError::Truncated`]; more bytes than `bits` needs, or a value
    /// of `2^bits` or more, is [`WireError::Invalid`]. Up to three bytes
    /// decode on a branch each.
    #[inline]
    pub fn var(&mut self, bits: u32) -> Result<u64, WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let (v, len) = match *rest {
            [b0, ..] if b0 < 0x80 => (u64::from(b0), 1),
            [b0, b1, ..] if b1 < 0x80 => (u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2),
            [b0, b1, b2, ..] if b2 < 0x80 => (
                u64::from(b0 & 0x7f) | u64::from(b1 & 0x7f) << 7 | u64::from(b2) << 14,
                3,
            ),
            _ => return self.var_wide(bits),
        };
        if bits < 21 && v >> bits != 0 {
            return Err(WireError::Invalid("varint overflows its type"));
        }
        self.pos += len;
        Ok(v)
    }

    /// [`Self::var`] past three bytes, one byte per iteration.
    fn var_wide(&mut self, bits: u32) -> Result<u64, WireError> {
        let bits = bits.min(63);
        let max_len = bits.div_ceil(7) as usize;
        let mut v = 0u64;
        for i in 0..max_len {
            let b = self
                .buf
                .get(self.pos + i)
                .copied()
                .ok_or(WireError::Truncated)?;
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if v >> bits != 0 {
                    return Err(WireError::Invalid("varint overflows its type"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(WireError::Invalid("varint longer than its type allows"))
    }
}

/// A value with a hand-rolled byte form. Encoding appends to a caller
/// buffer (one allocation per frame, not per value); decoding reads from a
/// shared [`WireReader`] and must consume exactly what encoding produced.
pub trait WireCodec: Sized {
    /// Appends the wire form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Parses one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a slice as a `u32` count followed by each element.
pub fn encode_seq<T: WireCodec>(items: &[T], out: &mut Vec<u8>) {
    put_u32(out, items.len() as u32);
    for it in items {
        it.encode(out);
    }
}

/// Decodes a `u32`-counted sequence. The count is sanity-bounded by the
/// bytes remaining so a corrupt length cannot trigger a huge allocation.
pub fn decode_seq<T: WireCodec>(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
    let n = r.u32()? as usize;
    // Every element costs at least one byte on the wire; a count beyond
    // the remaining bytes is corruption, not a large message.
    if n > r.remaining() {
        return Err(WireError::Invalid("sequence count exceeds frame size"));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::decode(r)?);
    }
    Ok(v)
}

macro_rules! id_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_var(out, u64::from(self.0));
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self(r.var(32)? as u32))
            }
        }
    )*};
}

id_codec!(EdgeId, NodeId, ObjectId, QueryId);

impl WireCodec for NetPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.edge.encode(out);
        put_f64(out, self.frac);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let edge = EdgeId::decode(r)?;
        let frac = r.f64()?;
        if !(0.0..=1.0).contains(&frac) {
            return Err(WireError::Invalid("NetPoint fraction outside [0, 1]"));
        }
        Ok(NetPoint { edge, frac })
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, f64::INFINITY);
        put_f64(&mut buf, -0.0);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // The failed read consumed nothing usable; u8 still works.
        assert_eq!(r.u8().unwrap(), 3);
    }

    #[test]
    fn checksum_is_crc32c() {
        // The standard CRC-32C check value.
        assert_eq!(checksum(b"123456789"), 0xE306_9283);
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = checksum(&bytes);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(
                Crc32c::new().update(a).update(b).finish(),
                whole,
                "split at {cut}"
            );
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let frame = b"tick-events:shard-3:seq-42".to_vec();
        let base = checksum(&frame);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn sequences_round_trip_and_reject_corrupt_counts() {
        let ids = vec![EdgeId(0), EdgeId(42), EdgeId(u32::MAX)];
        let mut buf = Vec::new();
        encode_seq(&ids, &mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(decode_seq::<EdgeId>(&mut r).unwrap(), ids);

        // A count claiming more elements than bytes remain is rejected
        // before any allocation happens.
        let mut bad = Vec::new();
        put_u32(&mut bad, u32::MAX);
        let mut r = WireReader::new(&bad);
        assert!(matches!(
            decode_seq::<EdgeId>(&mut r),
            Err(WireError::Invalid(_))
        ));
    }

    /// The varint boundaries: one, two, three and five bytes.
    const ID_EDGES: [u32; 8] = [0, 127, 128, 16383, 16384, (1 << 21) - 1, 1 << 21, u32::MAX];

    fn id_round_trips<T: WireCodec + PartialEq + std::fmt::Debug>(make: fn(u32) -> T) {
        for (v, len) in ID_EDGES.into_iter().zip([1, 1, 2, 2, 3, 3, 4, 5]) {
            let mut buf = Vec::new();
            make(v).encode(&mut buf);
            assert_eq!(buf.len(), len, "{v} encodes in {len} bytes");
            let mut r = WireReader::new(&buf);
            assert_eq!(T::decode(&mut r), Ok(make(v)));
            assert_eq!(r.remaining(), 0);
            for cut in 0..buf.len() {
                let mut r = WireReader::new(&buf[..cut]);
                assert_eq!(
                    T::decode(&mut r),
                    Err(WireError::Truncated),
                    "{v} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn every_id_type_round_trips_at_the_varint_boundaries() {
        id_round_trips(EdgeId);
        id_round_trips(NodeId);
        id_round_trips(ObjectId);
        id_round_trips(QueryId);
    }

    #[test]
    fn ids_travel_as_leb128() {
        let mut buf = Vec::new();
        EdgeId(300).encode(&mut buf);
        ObjectId(0x0102_0304).encode(&mut buf);
        assert_eq!(buf, [0xac, 0x02, 0x84, 0x86, 0x88, 0x08]);
    }

    #[test]
    fn oversized_varints_are_invalid() {
        // Six bytes: longer than any u32.
        let long = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert!(matches!(
            QueryId::decode(&mut WireReader::new(&long)),
            Err(WireError::Invalid(_))
        ));
        // Five bytes whose value needs 33 bits.
        let wide = [0xff, 0xff, 0xff, 0xff, 0x1f];
        assert!(matches!(
            ObjectId::decode(&mut WireReader::new(&wide)),
            Err(WireError::Invalid(_))
        ));
        // u32::MAX itself is the widest five-byte value that fits.
        let max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        assert_eq!(
            ObjectId::decode(&mut WireReader::new(&max)),
            Ok(ObjectId(u32::MAX))
        );
        // A narrow varint is held to its width on the fast path too.
        let mut r = WireReader::new(&[0x80, 0x01]);
        assert!(matches!(r.var(7), Err(WireError::Invalid(_))));
        assert_eq!(r.remaining(), 2, "a refused varint consumes nothing");
    }

    #[test]
    fn netpoint_rejects_out_of_range_fraction() {
        let mut buf = Vec::new();
        EdgeId(5).encode(&mut buf);
        put_f64(&mut buf, 1.5);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            NetPoint::decode(&mut r),
            Err(WireError::Invalid(_))
        ));
    }
}
