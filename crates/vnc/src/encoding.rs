//! Per-tile pixel encodings.
//!
//! Two encodings, as in VNC's simplest profile: `Raw` (pixels verbatim) and
//! `Rle` (run-length over RGB565 values). The encoder picks whichever is
//! smaller per tile — slides compress enormously, noise video does not,
//! which is precisely the content-dependence E1 measures.
//!
//! The apps use one encoder and one decoder, both working in place:
//! [`begin_tile_stream`] + [`append_tile_record`] write a stream straight
//! into a caller-owned buffer, and [`apply_tile_stream`] writes a received
//! stream straight into a framebuffer. [`encode_tile`],
//! [`write_tile_stream`], [`read_tile_stream`] and [`decode_tile`] (with
//! [`rle_encode`] and [`rle_decode`]) are the allocating reference codec
//! those two are tested against, byte for byte.

use crate::framebuffer::{Framebuffer, TILE};
use aroma_net::wire::{self, Reader, WireError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoding identifier on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Pixels verbatim, row-major, little-endian u16.
    Raw,
    /// (run_len u8, value u16) pairs; runs of at most 255.
    Rle,
}

/// An encoded tile with its grid position.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedTile {
    /// Tile column.
    pub tx: u16,
    /// Tile row.
    pub ty: u16,
    /// Which encoding `data` uses.
    pub encoding: Encoding,
    /// Encoded payload.
    pub data: Bytes,
}

/// Pixel-payload decode errors (the tile stream around the payloads is
/// read with [`aroma_net::wire`] and fails with its `WireError`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload length is wrong for the encoding.
    BadLength,
    /// RLE runs do not sum to a full tile.
    BadRunTotal,
    /// Buffer ended mid-run.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadLength => write!(f, "payload length invalid for encoding"),
            DecodeError::BadRunTotal => write!(f, "RLE runs do not cover the tile"),
            DecodeError::Truncated => write!(f, "RLE run truncated"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why [`apply_tile_stream`] rejected a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The stream is malformed, as [`read_tile_stream`] would report it.
    /// No tile was written.
    Wire(WireError),
    /// A record names a tile outside the framebuffer (the first such
    /// record). No tile was written.
    OutOfBounds {
        /// Tile column on the wire.
        tx: u16,
        /// Tile row on the wire.
        ty: u16,
    },
    /// A tile's payload does not decode, as [`decode_tile`] would report
    /// it. The tiles before it were written.
    Tile(DecodeError),
}

impl From<WireError> for ApplyError {
    fn from(e: WireError) -> Self {
        ApplyError::Wire(e)
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Wire(e) => write!(f, "tile stream: {e}"),
            ApplyError::OutOfBounds { tx, ty } => write!(f, "tile ({tx}, {ty}) outside the framebuffer"),
            ApplyError::Tile(e) => write!(f, "tile payload: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// RLE-encode `pixels` (any length > 0), one pixel at a time: the
/// reference for [`rle_encode_into`].
pub fn rle_encode(pixels: &[u16]) -> Bytes {
    let mut out = BytesMut::with_capacity(pixels.len());
    let mut i = 0;
    while i < pixels.len() {
        let v = pixels[i];
        let mut run = 1usize;
        while i + run < pixels.len() && pixels[i + run] == v && run < 255 {
            run += 1;
        }
        out.put_u8(run as u8);
        out.put_u16_le(v);
        i += run;
    }
    out.freeze()
}

/// Decode an RLE stream into exactly `expected` pixels.
pub fn rle_decode(mut data: Bytes, expected: usize) -> Result<Vec<u16>, DecodeError> {
    let mut out = Vec::with_capacity(expected);
    while data.remaining() > 0 {
        if data.remaining() < 3 {
            return Err(DecodeError::Truncated);
        }
        let run = data.get_u8() as usize;
        let v = data.get_u16_le();
        if run == 0 || out.len() + run > expected {
            return Err(DecodeError::BadRunTotal);
        }
        out.extend(std::iter::repeat_n(v, run));
    }
    if out.len() != expected {
        return Err(DecodeError::BadRunTotal);
    }
    Ok(out)
}

/// Degraded-mode colour mask: keep the top 3 bits of red and green and the
/// top 2 of blue (RGB565), zeroing the rest. Flattening the low bits makes
/// runs longer, so RLE compresses gradients and photographic content far
/// better — the bandwidth/fidelity trade a viewer takes while the link is
/// bad.
pub const COARSE_MASK: u16 = 0xE718;

/// Quantise pixels in place to the degraded colour depth.
pub fn coarsen_pixels(pixels: &mut [u16]) {
    for p in pixels {
        *p &= COARSE_MASK;
    }
}

/// Encode a tile's pixels, choosing the smaller of Raw and RLE (the
/// reference for [`append_tile_record`]).
pub fn encode_tile(tx: u16, ty: u16, pixels: &[u16]) -> EncodedTile {
    let rle = rle_encode(pixels);
    if rle.len() < pixels.len() * 2 {
        EncodedTile {
            tx,
            ty,
            encoding: Encoding::Rle,
            data: rle,
        }
    } else {
        let mut raw = BytesMut::with_capacity(pixels.len() * 2);
        for &p in pixels {
            raw.put_u16_le(p);
        }
        EncodedTile {
            tx,
            ty,
            encoding: Encoding::Raw,
            data: raw.freeze(),
        }
    }
}

/// Length of the run of `px[0]` at the head of `px`, at most 255: eight
/// pixels are compared at a time as one array, then the tail one by one.
#[inline]
fn run_len(px: &[u16]) -> usize {
    let v = px[0];
    let max = px.len().min(255);
    let mut run = 1;
    while run + 8 <= max {
        let next: [u16; 8] = px[run..run + 8].try_into().expect("eight pixels");
        if next != [v; 8] {
            break;
        }
        run += 8;
    }
    while run < max && px[run] == v {
        run += 1;
    }
    run
}

/// Append the RLE runs of `pixels` to `out` until they are complete or
/// have reached `limit` bytes, whichever comes first; returns the bytes
/// appended. Each run is written as one 3-byte slice into room reserved
/// once.
fn rle_runs_into(pixels: &[u16], out: &mut Vec<u8>, limit: usize) -> usize {
    out.reserve(3 * pixels.len());
    let start = out.len();
    let mut i = 0;
    while i < pixels.len() && out.len() - start < limit {
        let run = run_len(&pixels[i..]);
        let [lo, hi] = pixels[i].to_le_bytes();
        out.extend_from_slice(&[run as u8, lo, hi]);
        i += run;
    }
    out.len() - start
}

/// RLE-encode `pixels`, appending to `out` (the allocation-free twin of
/// [`rle_encode`], byte-identical output).
pub fn rle_encode_into(pixels: &[u16], out: &mut Vec<u8>) {
    rle_runs_into(pixels, out, usize::MAX);
}

/// Start a tile stream in a caller-owned buffer: the byte-identical twin
/// of [`write_tile_stream`]'s header. Follow with one
/// [`append_tile_record`] per tile (`count` of them).
pub fn begin_tile_stream(out: &mut Vec<u8>, count: u16) {
    out.extend_from_slice(&count.to_be_bytes());
}

/// Append one tile's record — position, chosen encoding, length, data — to
/// a stream started by [`begin_tile_stream`]. Picks the smaller of Raw and
/// RLE exactly like [`encode_tile`], producing byte-identical stream
/// output, but writes straight into `out`: the RLE runs go in behind a
/// placeholder length that is patched afterwards, and when they do not
/// come out smaller than Raw (they stop as soon as they reach its size)
/// they are cut off again and the pixels are written Raw.
pub fn append_tile_record(out: &mut Vec<u8>, tx: u16, ty: u16, pixels: &[u16]) {
    let raw_len = pixels.len() * 2;
    out.extend_from_slice(&tx.to_be_bytes());
    out.extend_from_slice(&ty.to_be_bytes());
    let tag = out.len();
    out.extend_from_slice(&[1, 0, 0, 0, 0]); // Encoding::Rle, length patched below
    let body = out.len();
    let rle_len = rle_runs_into(pixels, out, raw_len);
    if rle_len < raw_len {
        out[tag + 1..body].copy_from_slice(&wire::prefix::<u32>(rle_len).to_be_bytes());
    } else {
        out.truncate(body);
        out[tag] = 0; // Encoding::Raw
        out[tag + 1..body].copy_from_slice(&wire::prefix::<u32>(raw_len).to_be_bytes());
        out.resize(body + raw_len, 0);
        for (dst, p) in out[body..].chunks_exact_mut(2).zip(pixels) {
            dst.copy_from_slice(&p.to_le_bytes());
        }
    }
}

/// The encoding a tile record's tag byte names.
fn encoding_of(tag: u8) -> Result<Encoding, WireError> {
    match tag {
        0 => Ok(Encoding::Raw),
        1 => Ok(Encoding::Rle),
        e => Err(WireError::BadTag(e)),
    }
}

/// Decode one tile payload into all of `out`: [`decode_tile`] without the
/// allocation, with the same errors in the same order.
fn decode_tile_into(encoding: Encoding, data: &[u8], out: &mut [u16]) -> Result<(), DecodeError> {
    match encoding {
        Encoding::Raw => {
            if data.len() != out.len() * 2 {
                return Err(DecodeError::BadLength);
            }
            for (p, b) in out.iter_mut().zip(data.chunks_exact(2)) {
                *p = u16::from_le_bytes([b[0], b[1]]);
            }
        }
        Encoding::Rle => {
            let mut filled = 0;
            let mut runs = data.chunks_exact(3);
            for run in &mut runs {
                let len = usize::from(run[0]);
                if len == 0 || filled + len > out.len() {
                    return Err(DecodeError::BadRunTotal);
                }
                out[filled..filled + len].fill(u16::from_le_bytes([run[1], run[2]]));
                filled += len;
            }
            if !runs.remainder().is_empty() {
                return Err(DecodeError::Truncated);
            }
            if filled != out.len() {
                return Err(DecodeError::BadRunTotal);
            }
        }
    }
    Ok(())
}

/// Apply a tile stream to `fb` in place and return how many tiles it
/// carried. The viewer's one decoder: it does what [`read_tile_stream`],
/// then [`decode_tile`] and [`Framebuffer::write_tile`] per tile do, with
/// no allocation and no reference count per tile.
///
/// A first pass walks the records and checks the stream's structure —
/// exactly what [`read_tile_stream`] rejects — and that every record
/// names a tile of `fb`. A stream that fails it writes nothing. A second
/// pass decodes each tile into one stack buffer and writes it, stopping at
/// the first payload that does not decode; the tiles before it stay
/// written.
pub fn apply_tile_stream(stream: Bytes, fb: &mut Framebuffer) -> Result<usize, ApplyError> {
    let mut r = Reader::new(stream.clone());
    let n = usize::from(r.u16()?);
    let mut outside = None;
    for _ in 0..n {
        let (tx, ty) = (r.u16()?, r.u16()?);
        encoding_of(r.u8()?)?;
        r.slice32()?;
        if outside.is_none() && (usize::from(tx) >= fb.tiles_x() || usize::from(ty) >= fb.tiles_y()) {
            outside = Some(ApplyError::OutOfBounds { tx, ty });
        }
    }
    r.finish()?;
    if let Some(e) = outside {
        return Err(e);
    }

    let mut r = Reader::new(stream);
    r.u16()?;
    let mut tile = [0u16; TILE * TILE];
    for _ in 0..n {
        let (tx, ty) = (r.u16()?, r.u16()?);
        let encoding = encoding_of(r.u8()?)?;
        decode_tile_into(encoding, r.slice32()?, &mut tile).map_err(ApplyError::Tile)?;
        fb.write_tile(usize::from(tx), usize::from(ty), &tile);
    }
    Ok(n)
}

/// Decode a tile back to `expected` pixels (the reference for
/// [`apply_tile_stream`]'s per-tile decode).
pub fn decode_tile(tile: &EncodedTile, expected: usize) -> Result<Vec<u16>, DecodeError> {
    match tile.encoding {
        Encoding::Raw => {
            if tile.data.len() != expected * 2 {
                return Err(DecodeError::BadLength);
            }
            let mut data = tile.data.clone();
            Ok((0..expected).map(|_| data.get_u16_le()).collect())
        }
        Encoding::Rle => rle_decode(tile.data.clone(), expected),
    }
}

/// Serialise a sequence of encoded tiles into one byte stream (the
/// reference for [`begin_tile_stream`] and [`append_tile_record`]).
pub fn write_tile_stream(tiles: &[EncodedTile]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u16(wire::prefix(tiles.len()));
    for t in tiles {
        out.put_u16(t.tx);
        out.put_u16(t.ty);
        out.put_u8(match t.encoding {
            Encoding::Raw => 0,
            Encoding::Rle => 1,
        });
        out.put_u32(wire::prefix(t.data.len()));
        out.put_slice(&t.data);
    }
    out.freeze()
}

/// Smallest tile record: position, encoding and an empty payload.
const MIN_TILE_RECORD: usize = 2 + 2 + 1 + 4;

/// Parse a tile stream produced by [`write_tile_stream`]; the stream must
/// end with its last tile record (the reference for
/// [`apply_tile_stream`]'s structural pass).
pub fn read_tile_stream(data: Bytes) -> Result<Vec<EncodedTile>, WireError> {
    let mut r = Reader::new(data);
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(r.capacity(n, MIN_TILE_RECORD));
    for _ in 0..n {
        out.push(EncodedTile {
            tx: r.u16()?,
            ty: r.u16()?,
            encoding: encoding_of(r.u8()?)?,
            data: r.bytes32()?,
        });
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = TILE * TILE;

    #[test]
    fn rle_round_trip_uniform() {
        let pixels = vec![0xABCD; N];
        let enc = rle_encode(&pixels);
        // 256 pixels = 255-run + 1-run = 6 bytes.
        assert_eq!(enc.len(), 6);
        assert_eq!(rle_decode(enc, N).unwrap(), pixels);
    }

    #[test]
    fn rle_round_trip_alternating() {
        let pixels: Vec<u16> = (0..N).map(|i| (i % 2) as u16).collect();
        let enc = rle_encode(&pixels);
        assert_eq!(enc.len(), N * 3); // worst case: every run is 1
        assert_eq!(rle_decode(enc, N).unwrap(), pixels);
    }

    #[test]
    fn rle_rejects_wrong_totals() {
        let pixels = vec![7u16; N];
        let enc = rle_encode(&pixels);
        assert_eq!(rle_decode(enc.clone(), N - 1), Err(DecodeError::BadRunTotal));
        assert_eq!(rle_decode(enc.slice(0..3), N), Err(DecodeError::BadRunTotal));
    }

    #[test]
    fn rle_rejects_truncation_mid_run() {
        let pixels = vec![7u16; N];
        let enc = rle_encode(&pixels);
        assert_eq!(rle_decode(enc.slice(0..enc.len() - 1), N), Err(DecodeError::Truncated));
    }

    #[test]
    fn encoder_picks_rle_for_flat_content() {
        let t = encode_tile(0, 0, &vec![42u16; N]);
        assert_eq!(t.encoding, Encoding::Rle);
        assert!(t.data.len() < 10);
    }

    #[test]
    fn encoder_picks_raw_for_noise() {
        // A permutation-ish pattern with no runs.
        let pixels: Vec<u16> = (0..N).map(|i| (i * 2654435761usize % 65536) as u16).collect();
        let t = encode_tile(0, 0, &pixels);
        assert_eq!(t.encoding, Encoding::Raw);
        assert_eq!(t.data.len(), N * 2);
        assert_eq!(decode_tile(&t, N).unwrap(), pixels);
    }

    #[test]
    fn tile_decode_validates_raw_length() {
        let t = EncodedTile {
            tx: 0,
            ty: 0,
            encoding: Encoding::Raw,
            data: Bytes::from_static(&[1, 2, 3]),
        };
        assert_eq!(decode_tile(&t, N), Err(DecodeError::BadLength));
    }

    #[test]
    fn tile_stream_round_trip() {
        let tiles = vec![
            encode_tile(0, 0, &vec![1u16; N]),
            encode_tile(3, 7, &(0..N).map(|i| i as u16).collect::<Vec<_>>()),
        ];
        let stream = write_tile_stream(&tiles);
        let parsed = read_tile_stream(stream).unwrap();
        assert_eq!(parsed, tiles);
    }

    #[test]
    fn tile_stream_rejects_truncation() {
        let tiles = vec![encode_tile(0, 0, &vec![1u16; N])];
        let stream = write_tile_stream(&tiles);
        for cut in 0..stream.len() {
            assert!(
                read_tile_stream(stream.slice(0..cut)).is_err(),
                "prefix {cut} parsed"
            );
        }
    }

    #[test]
    fn coarse_encoding_never_grows_a_tile() {
        // A smooth gradient: full fidelity has no runs, the quantised
        // version collapses into long ones.
        let pixels: Vec<u16> = (0..N).map(|i| (i / 2) as u16).collect();
        let full = encode_tile(0, 0, &pixels);
        let mut coarse = pixels.clone();
        coarsen_pixels(&mut coarse);
        let enc = encode_tile(0, 0, &coarse);
        assert!(enc.data.len() <= full.data.len());
        // Quantisation is idempotent: decoded pixels are already coarse.
        let decoded = decode_tile(&enc, N).unwrap();
        assert!(decoded.iter().all(|p| p & !COARSE_MASK == 0));
    }

    #[test]
    fn empty_tile_stream_is_valid() {
        let stream = write_tile_stream(&[]);
        assert_eq!(read_tile_stream(stream).unwrap(), vec![]);
    }

    #[test]
    fn tile_stream_rejects_unknown_encoding() {
        let mut stream = write_tile_stream(&[encode_tile(0, 0, &vec![1u16; N])]).to_vec();
        stream[6] = 7; // count(2) + tx(2) + ty(2), then the encoding byte
        assert_eq!(read_tile_stream(Bytes::from(stream)), Err(WireError::BadTag(7)));
    }

    #[test]
    fn appending_stream_path_is_byte_identical() {
        // The pool-backed encoder (begin_tile_stream + append_tile_record)
        // must produce exactly the bytes of the allocating path, for every
        // encoding choice: flat (RLE), noisy (Raw), and gradient tiles.
        let flat = vec![42u16; N];
        let noise: Vec<u16> = (0..N).map(|i| (i * 2654435761usize % 65536) as u16).collect();
        let grad: Vec<u16> = (0..N).map(|i| (i / 2) as u16).collect();
        let tiles = vec![
            encode_tile(0, 0, &flat),
            encode_tile(3, 7, &noise),
            encode_tile(1, 2, &grad),
        ];
        let reference = write_tile_stream(&tiles);

        let mut out = Vec::new();
        begin_tile_stream(&mut out, 3);
        append_tile_record(&mut out, 0, 0, &flat);
        append_tile_record(&mut out, 3, 7, &noise);
        append_tile_record(&mut out, 1, 2, &grad);
        assert_eq!(&out[..], &reference[..]);
    }

    #[test]
    fn rle_encode_into_matches_rle_encode() {
        let pixels: Vec<u16> = (0..N).map(|i| ((i / 7) % 300) as u16).collect();
        let mut out = Vec::new();
        rle_encode_into(&pixels, &mut out);
        assert_eq!(&out[..], &rle_encode(&pixels)[..]);
    }
}
