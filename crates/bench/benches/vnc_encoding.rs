//! VNC codec kernels as the apps run them — the server's
//! `append_tile_record` into a reused stream buffer, the viewer's
//! `apply_tile_stream` and the render path's `tile_hashes_into` — with the
//! raw-vs-RLE ablation of DESIGN.md §5: what tile diff + RLE buys over
//! shipping full raw frames.

use aroma_sim::{SimRng, SimTime};
use aroma_vnc::encoding::{
    append_tile_record, apply_tile_stream, begin_tile_stream, encode_tile, write_tile_stream,
};
use aroma_vnc::workloads::{BouncingBox, ScreenSource, SlideDeck};
use aroma_vnc::{Framebuffer, TILE};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn flat_tile() -> Vec<u16> {
    vec![0x2104; TILE * TILE]
}

fn noise_tile() -> Vec<u16> {
    let mut rng = SimRng::new(3);
    (0..TILE * TILE).map(|_| rng.next_u64_raw() as u16).collect()
}

/// A 320×240 slide, the content every benchmark presenter shows.
fn slide_frame() -> Framebuffer {
    let mut fb = Framebuffer::new(320, 240);
    SlideDeck::new(5.0).render(SimTime::from_nanos(12_000_000_000), &mut fb);
    fb
}

/// Encode all of `fb` into `stream` (cleared first), as a full update does.
fn encode_frame(fb: &Framebuffer, stream: &mut Vec<u8>, pixels: &mut [u16]) {
    stream.clear();
    begin_tile_stream(stream, fb.tile_count() as u16);
    for ty in 0..fb.tiles_y() {
        for tx in 0..fb.tiles_x() {
            fb.read_tile(tx, ty, pixels);
            append_tile_record(stream, tx as u16, ty as u16, pixels);
        }
    }
}

fn bench_tile_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("vnc_encoding/tile");
    let flat = flat_tile();
    let noise = noise_tile();
    let mut stream = Vec::new();
    g.bench_function("append_flat", |b| {
        b.iter(|| {
            stream.clear();
            append_tile_record(&mut stream, 0, 0, black_box(&flat));
            black_box(stream.len())
        })
    });
    // Noise never wins with RLE: this is the Raw fallback's cost.
    g.bench_function("append_noise", |b| {
        b.iter(|| {
            stream.clear();
            append_tile_record(&mut stream, 0, 0, black_box(&noise));
            black_box(stream.len())
        })
    });
    g.finish();
}

fn bench_frame_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("vnc_encoding/frame");
    let fb = slide_frame();
    let mut pixels = vec![0u16; TILE * TILE];
    let mut stream = Vec::new();
    g.bench_function("encode_slide_320x240", |b| {
        b.iter(|| {
            encode_frame(black_box(&fb), &mut stream, &mut pixels);
            black_box(stream.len())
        })
    });
    encode_frame(&fb, &mut stream, &mut pixels);
    let wire = Bytes::from(stream.clone());
    let mut viewer = Framebuffer::new(320, 240);
    g.bench_function("apply_slide_320x240", |b| {
        b.iter(|| black_box(apply_tile_stream(wire.clone(), &mut viewer)))
    });
    g.finish();
}

fn bench_hash_and_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("vnc_encoding/diff");
    let slide = slide_frame();
    let mut fb = Framebuffer::new(640, 480);
    let mut src = BouncingBox::new();
    src.render(SimTime::from_nanos(0), &mut fb);
    let prev = fb.tile_hashes();
    src.render(SimTime::from_nanos(100_000_000), &mut fb);
    let mut hashes = Vec::new();
    g.bench_function("hash_320x240", |b| {
        b.iter(|| {
            slide.tile_hashes_into(&mut hashes);
            black_box(hashes[0])
        })
    });
    g.bench_function("hash_640x480", |b| {
        b.iter(|| {
            fb.tile_hashes_into(&mut hashes);
            black_box(hashes[0])
        })
    });
    g.bench_function("dirty_tiles_640x480", |b| {
        b.iter(|| black_box(fb.dirty_tiles(&prev)))
    });
    g.finish();
}

/// The ablation: full-screen raw encode vs dirty-tile + best-of encode for
/// one animation frame step.
fn bench_full_vs_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("vnc_encoding/ablation_full_vs_incremental");
    g.sample_size(20);
    let mut fb = Framebuffer::new(640, 480);
    let mut src = SlideDeck::new(10.0);
    src.render(SimTime::from_nanos(0), &mut fb);
    let prev = fb.tile_hashes();
    let mut anim = BouncingBox::new();
    anim.render(SimTime::from_nanos(50_000_000), &mut fb);
    let mut buf = vec![0u16; TILE * TILE];

    g.bench_function("full_raw_frame", |b| {
        b.iter(|| {
            let tiles: Vec<_> = (0..fb.tiles_y())
                .flat_map(|ty| (0..fb.tiles_x()).map(move |tx| (tx, ty)))
                .map(|(tx, ty)| {
                    let mut t = vec![0u16; TILE * TILE];
                    fb.read_tile(tx, ty, &mut t);
                    // Raw = 2 bytes/px regardless of content.
                    aroma_vnc::encoding::EncodedTile {
                        tx: tx as u16,
                        ty: ty as u16,
                        encoding: aroma_vnc::encoding::Encoding::Raw,
                        data: Bytes::from(
                            t.iter().flat_map(|p| p.to_le_bytes()).collect::<Vec<u8>>(),
                        ),
                    }
                })
                .collect();
            black_box(write_tile_stream(&tiles).len())
        })
    });
    g.bench_function("dirty_tiles_best_encoding", |b| {
        b.iter(|| {
            let dirty = fb.dirty_tiles(&prev);
            let tiles: Vec<_> = dirty
                .iter()
                .map(|&idx| {
                    let (tx, ty) = (idx % fb.tiles_x(), idx / fb.tiles_x());
                    fb.read_tile(tx, ty, &mut buf);
                    encode_tile(tx as u16, ty as u16, &buf)
                })
                .collect();
            black_box(write_tile_stream(&tiles).len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tile_codec,
    bench_frame_codec,
    bench_hash_and_diff,
    bench_full_vs_incremental
);
criterion_main!(benches);
