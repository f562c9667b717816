//! The in-place tile path against the allocating reference codec.
//!
//! The apps encode with `begin_tile_stream` + `append_tile_record`, apply
//! with `apply_tile_stream` and hash with `Framebuffer::tile_hashes_into`.
//! Each must agree exactly with the reference it replaced: the stream
//! bytes of `encode_tile` + `write_tile_stream`; the accept or reject,
//! the return value and the framebuffer (partial writes included) of
//! `read_tile_stream` + `decode_tile` + `Framebuffer::write_tile`; and
//! `Framebuffer::tile_hash` of every tile.

use aroma_sim::SimRng;
use aroma_vnc::encoding::{
    append_tile_record, apply_tile_stream, begin_tile_stream, coarsen_pixels, decode_tile,
    encode_tile, read_tile_stream, rle_encode, rle_encode_into, write_tile_stream, ApplyError,
};
use aroma_vnc::{Framebuffer, TILE};
use bytes::Bytes;
use proptest::prelude::*;

const N: usize = TILE * TILE;

/// The viewer's apply as the reference codec spells it: parse the whole
/// stream, reject a record outside the framebuffer, then decode and write
/// tile by tile up to the first payload that does not decode.
fn reference_apply(stream: Bytes, fb: &mut Framebuffer) -> Result<usize, ApplyError> {
    let tiles = read_tile_stream(stream).map_err(ApplyError::Wire)?;
    let outside = |t: &&aroma_vnc::encoding::EncodedTile| {
        usize::from(t.tx) >= fb.tiles_x() || usize::from(t.ty) >= fb.tiles_y()
    };
    if let Some(t) = tiles.iter().find(outside) {
        return Err(ApplyError::OutOfBounds { tx: t.tx, ty: t.ty });
    }
    for t in &tiles {
        let pixels = decode_tile(t, N).map_err(ApplyError::Tile)?;
        fb.write_tile(usize::from(t.tx), usize::from(t.ty), &pixels);
    }
    Ok(tiles.len())
}

/// A 64×48 screen (4×3 tiles) of varied pixels, so any write shows.
fn screen() -> Framebuffer {
    let mut fb = Framebuffer::new(64, 48);
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            fb.set(
                x,
                y,
                (x as u16).wrapping_mul(0x9E37) ^ (y as u16).wrapping_mul(0x7F4B),
            );
        }
    }
    fb
}

/// Apply `stream` both ways to equal screens; both must answer alike and
/// leave equal screens. Returns the answer.
fn assert_applies_like_reference(stream: &Bytes) -> Result<usize, ApplyError> {
    let (mut fast, mut slow) = (screen(), screen());
    let got = apply_tile_stream(stream.clone(), &mut fast);
    let want = reference_apply(stream.clone(), &mut slow);
    assert_eq!(got, want, "apply answered differently from the reference");
    assert_eq!(
        fast.digest(),
        slow.digest(),
        "apply wrote a different screen ({got:?})"
    );
    got
}

/// Tile pixels of the kinds the server sends: flat with a few hits, runs
/// of every length, noise, and coarsened noise.
fn arb_tile() -> impl Strategy<Value = Vec<u16>> {
    prop_oneof![
        (any::<u16>(), prop::collection::vec(0usize..N, 0..8)).prop_map(|(base, hits)| {
            let mut px = vec![base; N];
            for (i, h) in hits.into_iter().enumerate() {
                px[h] = base.wrapping_add(i as u16 + 1);
            }
            px
        }),
        prop::collection::vec((1usize..300, 0u16..4), 1..12).prop_map(|runs| {
            let mut px: Vec<u16> = runs
                .into_iter()
                .flat_map(|(len, v)| std::iter::repeat_n(v, len))
                .collect();
            px.resize(N, 7);
            px
        }),
        prop::collection::vec(any::<u16>(), N),
        prop::collection::vec(any::<u16>(), N).prop_map(|mut px| {
            coarsen_pixels(&mut px);
            px
        }),
    ]
}

/// A valid stream of tiles inside the 4×3 screen.
fn arb_stream() -> impl Strategy<Value = Bytes> {
    prop::collection::vec((0u16..4, 0u16..3, arb_tile()), 0..6).prop_map(|tiles| {
        let encoded: Vec<_> = tiles
            .iter()
            .map(|(tx, ty, px)| encode_tile(*tx, *ty, px))
            .collect();
        write_tile_stream(&encoded)
    })
}

/// Pixels made of runs of the given lengths, alternating two values.
fn runs(lengths: &[usize]) -> Vec<u16> {
    lengths
        .iter()
        .enumerate()
        .flat_map(|(i, &len)| std::iter::repeat_n(0x1234 ^ (i as u16 & 1), len))
        .collect()
}

/// Encode `tiles` both ways; the streams must be byte-identical.
fn assert_encodes_like_reference(tiles: &[Vec<u16>]) {
    let reference: Vec<_> = tiles
        .iter()
        .enumerate()
        .map(|(i, px)| encode_tile(i as u16, 3 * i as u16, px))
        .collect();
    let mut out = vec![0xEE; 5]; // appending must keep what is already there
    begin_tile_stream(&mut out, tiles.len() as u16);
    for (i, px) in tiles.iter().enumerate() {
        append_tile_record(&mut out, i as u16, 3 * i as u16, px);
    }
    assert_eq!(&out[..5], &[0xEE; 5]);
    assert_eq!(&out[5..], &write_tile_stream(&reference)[..]);
    for px in tiles {
        let mut rle = vec![0xEE];
        rle_encode_into(px, &mut rle);
        assert_eq!(&rle[1..], &rle_encode(px)[..]);
    }
}

#[test]
fn an_rle_as_long_as_raw_stays_raw() {
    // Four runs of six pixels: 12 bytes either way, and RLE must be
    // strictly shorter to win.
    let px = runs(&[3, 1, 1, 1]);
    assert_eq!(rle_encode(&px).len(), 2 * px.len());
    assert_encodes_like_reference(&[px]);
}

#[test]
fn run_lengths_across_the_cap_and_the_eight_pixel_stride_encode_alike() {
    for len in 1..=300 {
        // A run of `len` alone, then among runs whose lengths straddle
        // the 8-pixel stride and the 255 cap.
        assert_encodes_like_reference(&[
            runs(&[len]),
            runs(&[len, 1, 7, 8, 9]),
            runs(&[3, len, 254, 255, 256, 2]),
        ]);
    }
}

#[test]
fn noise_and_coarse_tiles_encode_alike() {
    let mut rng = SimRng::new(41);
    for _ in 0..50 {
        let noise: Vec<u16> = (0..N).map(|_| rng.next_u64_raw() as u16).collect();
        let mut coarse = noise.clone();
        coarsen_pixels(&mut coarse);
        // Noise behind a flat prefix of random length, so RLE's size
        // lands on either side of Raw's.
        let mut edge = noise.clone();
        for px in &mut edge[..rng.below(N as u64) as usize] {
            *px = 9;
        }
        assert_encodes_like_reference(&[noise, coarse, edge]);
    }
}

/// A record at `tx == tiles_x` would land in the next tile row, and one
/// at `ty == tiles_y` would index past the screen. Either is rejected
/// before any tile is written, even the valid one ahead of it.
#[test]
fn records_outside_the_framebuffer_write_nothing() {
    let fb = screen();
    let (tiles_x, tiles_y) = (fb.tiles_x() as u16, fb.tiles_y() as u16);
    let flat = vec![0x0F0F; N];
    for (tx, ty) in [
        (tiles_x, 0),
        (0, tiles_y),
        (tiles_x, tiles_y),
        (u16::MAX, 1),
    ] {
        let stream = write_tile_stream(&[encode_tile(1, 1, &flat), encode_tile(tx, ty, &flat)]);
        let mut applied = screen();
        assert_eq!(
            apply_tile_stream(stream.clone(), &mut applied),
            Err(ApplyError::OutOfBounds { tx, ty })
        );
        assert_eq!(applied, fb, "a rejected stream wrote a tile");
        let _ = assert_applies_like_reference(&stream);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid streams apply alike, every tile written.
    #[test]
    fn valid_streams_apply_like_reference(stream in arb_stream()) {
        prop_assert!(assert_applies_like_reference(&stream).is_ok());
    }

    /// Arbitrary bytes, and arbitrary bytes behind a plausible header,
    /// apply (or fail) alike.
    #[test]
    fn arbitrary_bytes_apply_like_reference(
        count in 0u16..4,
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = assert_applies_like_reference(&Bytes::from(body.clone()));
        let mut framed = count.to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        let _ = assert_applies_like_reference(&Bytes::from(framed));
    }

    /// Every strict prefix of a valid stream fails alike and writes
    /// nothing.
    #[test]
    fn truncations_apply_like_reference(stream in arb_stream(), cut in any::<u64>()) {
        let cut = (cut % stream.len() as u64) as usize;
        let got = assert_applies_like_reference(&stream.slice(..cut));
        prop_assert!(matches!(got, Err(ApplyError::Wire(_))), "prefix {} applied: {:?}", cut, got);
    }

    /// One flipped byte anywhere — count, position, tag, length or
    /// payload — applies alike, partial writes before a bad tile included.
    #[test]
    fn byte_flips_apply_like_reference(stream in arb_stream(), at in any::<u64>(), flip in 1u8..=255) {
        let mut bytes = stream.to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        let _ = assert_applies_like_reference(&Bytes::from(bytes));
    }

    /// A payload swapped for arbitrary bytes, short ones often, under a
    /// correct length prefix fails (or not) alike, after writing the
    /// tiles before it.
    #[test]
    fn forged_payloads_apply_like_reference(
        tiles in prop::collection::vec((0u16..4, 0u16..3, arb_tile()), 1..5),
        victim in any::<usize>(),
        raw in any::<bool>(),
        payload in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..12),
            prop::collection::vec(any::<u8>(), 0..700),
        ],
    ) {
        let mut encoded: Vec<_> = tiles.iter().map(|(tx, ty, px)| encode_tile(*tx, *ty, px)).collect();
        let t = &mut encoded[victim % tiles.len()];
        t.encoding = if raw { aroma_vnc::encoding::Encoding::Raw } else { aroma_vnc::encoding::Encoding::Rle };
        t.data = Bytes::from(payload);
        let _ = assert_applies_like_reference(&write_tile_stream(&encoded));
    }

    /// A tile's own payload cut short under a corrected length prefix
    /// (mid-run for RLE) fails alike, after writing the tiles before it.
    #[test]
    fn cut_payloads_apply_like_reference(
        tiles in prop::collection::vec((0u16..4, 0u16..3, arb_tile()), 1..5),
        victim in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mut encoded: Vec<_> = tiles.iter().map(|(tx, ty, px)| encode_tile(*tx, *ty, px)).collect();
        let t = &mut encoded[victim % tiles.len()];
        t.data = t.data.slice(..cut % t.data.len());
        let got = assert_applies_like_reference(&write_tile_stream(&encoded));
        prop_assert!(matches!(got, Err(ApplyError::Tile(_))), "a cut payload applied: {:?}", got);
    }

    /// Row-at-a-time hashing equals the per-tile hash on every tile, for
    /// screens from one tile up to 640×480.
    #[test]
    fn tile_hashes_match_tile_hash(tiles_x in 1usize..=40, tiles_y in 1usize..=30, seed in any::<u64>(), flat in any::<bool>()) {
        let mut fb = Framebuffer::new(tiles_x * TILE, tiles_y * TILE);
        let mut rng = SimRng::new(seed);
        for y in 0..fb.height() {
            for x in 0..fb.width() {
                let v = if flat { (x / 24 + y / 40) as u16 } else { rng.next_u64_raw() as u16 };
                fb.set(x, y, v);
            }
        }
        let mut hashes = vec![1, 2, 3];
        fb.tile_hashes_into(&mut hashes);
        prop_assert_eq!(hashes.len(), fb.tile_count());
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                prop_assert_eq!(hashes[ty * tiles_x + tx], fb.tile_hash(tx, ty), "tile ({}, {})", tx, ty);
            }
        }
    }
}
