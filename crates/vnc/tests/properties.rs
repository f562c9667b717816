//! Property-based tests for the VNC substrate codecs and framebuffer.

use aroma_sim::SimTime;
use aroma_vnc::encoding::{
    decode_tile, encode_tile, read_tile_stream, rle_decode, rle_encode, write_tile_stream,
};
use aroma_vnc::protocol::{chunk_update, PushResult, Reassembler, VncMsg};
use aroma_vnc::{BouncingBox, Framebuffer, NoiseVideo, ScreenSource, SlideDeck, TILE};
use bytes::Bytes;
use proptest::prelude::*;

/// The promise render-on-frame-change rests on: when `t1` and `t2` have
/// equal frames, rendering `t2` over a screen that showed `other` yields
/// exactly the screen rendered fresh at `t1`. Returns whether the frames
/// were equal.
fn equal_frames_render_equal(src: &mut dyn ScreenSource, t1: u64, t2: u64, other: u64) -> bool {
    let (t1, t2, other) = (
        SimTime::from_nanos(t1),
        SimTime::from_nanos(t2),
        SimTime::from_nanos(other),
    );
    if src.frame(t1) != src.frame(t2) {
        return false;
    }
    let mut fresh = Framebuffer::new(160, 128);
    src.render(t1, &mut fresh);
    let mut reused = Framebuffer::new(160, 128);
    src.render(other, &mut reused);
    src.render(t2, &mut reused);
    assert_eq!(fresh, reused, "equal frames rendered different pixels");
    true
}

fn arb_tile_pixels() -> impl Strategy<Value = Vec<u16>> {
    prop_oneof![
        // Flat-ish content (RLE-friendly).
        (any::<u16>(), prop::collection::vec(0usize..TILE * TILE, 0..8)).prop_map(|(base, hits)| {
            let mut px = vec![base; TILE * TILE];
            for (i, h) in hits.into_iter().enumerate() {
                px[h] = base.wrapping_add(i as u16 + 1);
            }
            px
        }),
        // Arbitrary content.
        prop::collection::vec(any::<u16>(), TILE * TILE),
    ]
}

proptest! {
    /// A slide deck's frame is its slide: equal slides, equal screens.
    #[test]
    fn slide_deck_equal_frames_render_equal(
        period_ms in 100u64..5_000,
        t1 in 0u64..60_000_000_000,
        dt in 0u64..2_000_000_000,
        other in 0u64..60_000_000_000,
    ) {
        let mut deck = SlideDeck::new(period_ms as f64 / 1000.0);
        equal_frames_render_equal(&mut deck, t1, t1 + dt, other);
    }

    /// Noise video's frame is its noise frame index.
    #[test]
    fn noise_video_equal_frames_render_equal(
        fps in 1u64..30,
        seed in any::<u64>(),
        t1 in 0u64..60_000_000_000,
        dt in 0u64..200_000_000,
        other in 0u64..60_000_000_000,
    ) {
        let mut noise = NoiseVideo::new(fps as f64, seed);
        equal_frames_render_equal(&mut noise, t1, t1 + dt, other);
    }

    /// A bouncing box moves at every instant: only the same instant is the
    /// same frame, and it renders the same screen whatever came before.
    #[test]
    fn bouncing_box_equal_frames_render_equal(
        t1 in 0u64..60_000_000_000,
        other in 0u64..60_000_000_000,
    ) {
        let mut bounce = BouncingBox::new();
        prop_assert!(equal_frames_render_equal(&mut bounce, t1, t1, other));
        prop_assert_ne!(bounce.frame(SimTime::from_nanos(t1)), bounce.frame(SimTime::from_nanos(t1 + 1)));
    }

    /// RLE round-trips any pixel vector of tile size.
    #[test]
    fn rle_round_trip(px in arb_tile_pixels()) {
        let enc = rle_encode(&px);
        let dec = rle_decode(enc, px.len()).unwrap();
        prop_assert_eq!(dec, px);
    }

    /// RLE never exceeds 3 bytes per pixel and never loses a run.
    #[test]
    fn rle_size_bound(px in arb_tile_pixels()) {
        let enc = rle_encode(&px);
        prop_assert!(enc.len() <= px.len() * 3);
        prop_assert!(!enc.is_empty());
    }

    /// Best-of tile encoding round-trips and never exceeds raw size.
    #[test]
    fn tile_encoding_round_trip(px in arb_tile_pixels(), tx in 0u16..64, ty in 0u16..64) {
        let t = encode_tile(tx, ty, &px);
        prop_assert!(t.data.len() <= px.len() * 2, "encoder chose something bigger than raw");
        let dec = decode_tile(&t, px.len()).unwrap();
        prop_assert_eq!(dec, px);
        prop_assert_eq!((t.tx, t.ty), (tx, ty));
    }

    /// Tile streams round-trip any set of encoded tiles.
    #[test]
    fn tile_stream_round_trip(tiles in prop::collection::vec(arb_tile_pixels(), 0..6)) {
        let encoded: Vec<_> = tiles
            .iter()
            .enumerate()
            .map(|(i, px)| encode_tile(i as u16, (i * 3) as u16, px))
            .collect();
        let stream = write_tile_stream(&encoded);
        let parsed = read_tile_stream(stream).unwrap();
        prop_assert_eq!(parsed, encoded);
    }

    /// Chunking + reassembly is the identity for any stream length,
    /// including empty and exact-multiple-of-chunk sizes.
    #[test]
    fn chunk_reassemble_identity(len in 0usize..8000, update_id in any::<u32>()) {
        let stream = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<_>>());
        let chunks = chunk_update(update_id, stream.clone());
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &chunks {
            let VncMsg::UpdateChunk { update_id, seq, last, payload } = c else {
                panic!("chunk_update must emit chunks");
            };
            match r.push(*update_id, *seq, *last, payload) {
                PushResult::Complete(b) => out = Some(b),
                PushResult::Incomplete => {},
                PushResult::Gap => prop_assert!(false, "gap on in-order delivery"),
            }
        }
        prop_assert_eq!(out.expect("last chunk completes"), stream);
    }

    /// Dropping any single chunk of a multi-chunk update produces a Gap (or
    /// an incomplete update if the dropped chunk was the last).
    #[test]
    fn chunk_loss_detected(len in 3001usize..9000, drop_idx in 0usize..6) {
        let stream = Bytes::from(vec![7u8; len]);
        let chunks = chunk_update(1, stream);
        prop_assume!(chunks.len() >= 2);
        let drop_idx = drop_idx % chunks.len();
        let mut r = Reassembler::new();
        let mut completed = false;
        let mut gap = false;
        for (i, c) in chunks.iter().enumerate() {
            if i == drop_idx {
                continue;
            }
            let VncMsg::UpdateChunk { update_id, seq, last, payload } = c else { unreachable!() };
            match r.push(*update_id, *seq, *last, payload) {
                PushResult::Complete(_) => completed = true,
                PushResult::Gap => gap = true,
                PushResult::Incomplete => {}
            }
        }
        prop_assert!(!completed, "an update with a lost chunk must never complete");
        if drop_idx < chunks.len() - 1 {
            prop_assert!(gap, "an interior loss must be flagged");
        }
    }

    /// VNC messages round-trip the wire codec.
    #[test]
    fn vnc_msg_round_trip(update_id in any::<u32>(), seq in any::<u16>(), last in any::<bool>(), payload in prop::collection::vec(any::<u8>(), 0..200)) {
        let m = VncMsg::UpdateChunk { update_id, seq, last, payload: Bytes::from(payload) };
        prop_assert_eq!(VncMsg::decode(m.encode()).unwrap(), m);
    }

    /// Framebuffer tile write/read round-trips at any grid position.
    #[test]
    fn framebuffer_tile_round_trip(px in prop::collection::vec(any::<u16>(), TILE * TILE), tx in 0usize..10, ty in 0usize..8) {
        let mut fb = Framebuffer::new(160, 128);
        fb.write_tile(tx, ty, &px);
        let mut out = vec![0u16; TILE * TILE];
        fb.read_tile(tx, ty, &mut out);
        prop_assert_eq!(out, px);
    }

    /// dirty_tiles is exactly the set of tiles whose hash changed.
    #[test]
    fn dirty_tiles_soundness(writes in prop::collection::vec((0usize..10, 0usize..8, any::<u16>()), 1..12)) {
        let mut fb = Framebuffer::new(160, 128);
        let before = fb.tile_hashes();
        let mut touched = std::collections::BTreeSet::new();
        for (tx, ty, v) in writes {
            // Write a single pixel inside the tile.
            fb.set(tx * TILE + 3, ty * TILE + 5, v);
            if v != 0 {
                touched.insert(ty * fb.tiles_x() + tx);
            }
        }
        let dirty: std::collections::BTreeSet<usize> = fb.dirty_tiles(&before).into_iter().collect();
        // Every dirty tile was touched (soundness). (A touched tile may be
        // clean if the written value matched, or two writes cancelled.)
        for d in &dirty {
            prop_assert!(touched.contains(d), "tile {d} dirty but never written");
        }
    }
}
