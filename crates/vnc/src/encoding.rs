//! Per-tile pixel encodings.
//!
//! Two encodings, as in VNC's simplest profile: `Raw` (pixels verbatim) and
//! `Rle` (run-length over RGB565 values). The encoder picks whichever is
//! smaller per tile — slides compress enormously, noise video does not,
//! which is precisely the content-dependence E1 measures.

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

/// RLE-encode `pixels` (any length > 0).
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

/// Encode a tile's pixels, choosing the smaller of Raw and RLE.
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

/// RLE-encode `pixels`, appending to `out` (the allocation-free twin of
/// [`rle_encode`], byte-identical output).
pub fn rle_encode_into(pixels: &[u16], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < pixels.len() {
        let v = pixels[i];
        let mut run = 1usize;
        while i + run < pixels.len() && pixels[i + run] == v && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.extend_from_slice(&v.to_le_bytes());
        i += run;
    }
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
/// output, but writes straight into `out` with `rle_scratch` as the only
/// working memory (cleared here; recycle it across calls).
pub fn append_tile_record(out: &mut Vec<u8>, tx: u16, ty: u16, pixels: &[u16], rle_scratch: &mut Vec<u8>) {
    rle_scratch.clear();
    rle_encode_into(pixels, rle_scratch);
    let rle_wins = rle_scratch.len() < pixels.len() * 2;
    out.extend_from_slice(&tx.to_be_bytes());
    out.extend_from_slice(&ty.to_be_bytes());
    if rle_wins {
        out.push(1); // Encoding::Rle
        out.extend_from_slice(&wire::prefix::<u32>(rle_scratch.len()).to_be_bytes());
        out.extend_from_slice(rle_scratch);
    } else {
        out.push(0); // Encoding::Raw
        out.extend_from_slice(&wire::prefix::<u32>(pixels.len() * 2).to_be_bytes());
        for &p in pixels {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }
}

/// Decode a tile back to `expected` pixels.
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

/// Serialise a sequence of encoded tiles into one byte stream.
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
/// end with its last tile record.
pub fn read_tile_stream(data: Bytes) -> Result<Vec<EncodedTile>, WireError> {
    let mut r = Reader::new(data);
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(r.capacity(n, MIN_TILE_RECORD));
    for _ in 0..n {
        out.push(EncodedTile {
            tx: r.u16()?,
            ty: r.u16()?,
            encoding: match r.u8()? {
                0 => Encoding::Raw,
                1 => Encoding::Rle,
                e => return Err(WireError::BadTag(e)),
            },
            data: r.bytes32()?,
        });
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framebuffer::TILE;

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
        let mut scratch = vec![0xAAu8; 17]; // dirty scratch must not leak in
        begin_tile_stream(&mut out, 3);
        append_tile_record(&mut out, 0, 0, &flat, &mut scratch);
        append_tile_record(&mut out, 3, 7, &noise, &mut scratch);
        append_tile_record(&mut out, 1, 2, &grad, &mut scratch);
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
