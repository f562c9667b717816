//! The tile path does not allocate per tile (DESIGN.md §6 item 10).
//! Applying a full-screen slide stream to a framebuffer, re-encoding a
//! frame into a reused stream buffer and re-hashing the screen into a
//! reused vector make no heap allocation at all. A counting global
//! allocator (this test binary's own) counts the calls.

use aroma_sim::SimTime;
use aroma_vnc::encoding::{
    append_tile_record, apply_tile_stream, begin_tile_stream, decode_tile, read_tile_stream,
};
use aroma_vnc::{Framebuffer, ScreenSource, SlideDeck, TILE};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the calling thread's
/// allocations (so parallel tests do not mix counts). Growing a buffer
/// reallocates through `alloc`, so it counts too.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A 320×240 slide, as the benchmark's presenters show.
fn slide() -> Framebuffer {
    let mut fb = Framebuffer::new(320, 240);
    SlideDeck::new(5.0).render(SimTime::from_nanos(12_000_000_000), &mut fb);
    fb
}

/// Encode every tile of `fb` into `stream` (cleared first), as the
/// server's full update does.
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

#[test]
fn tile_path_makes_no_allocation() {
    let server = slide();
    let mut pixels = vec![0u16; TILE * TILE];
    let mut stream = Vec::new();
    encode_frame(&server, &mut stream, &mut pixels);
    let first = stream.clone();
    let wire = Bytes::from(first.clone());
    assert_eq!(server.tile_count(), 300);

    // Re-encoding into the grown buffer: byte-identical, no allocation.
    assert_eq!(
        allocations_of(|| encode_frame(&server, &mut stream, &mut pixels)),
        0
    );
    assert_eq!(stream, first);

    // Applying the 300-tile stream in place: no allocation.
    let mut viewer = Framebuffer::new(320, 240);
    let mut applied = None;
    assert_eq!(
        allocations_of(|| applied = Some(apply_tile_stream(wire.clone(), &mut viewer))),
        0
    );
    assert_eq!(applied, Some(Ok(300)));
    assert_eq!(viewer, server);

    // The reference codec it replaced allocates the tile list and one
    // pixel vector per tile.
    let mut reference = Framebuffer::new(320, 240);
    let made = allocations_of(|| {
        for t in &read_tile_stream(wire.clone()).unwrap() {
            let px = decode_tile(t, TILE * TILE).unwrap();
            reference.write_tile(t.tx as usize, t.ty as usize, &px);
        }
    });
    assert!(made > 300, "the reference made only {made} allocations");
    assert_eq!(reference, server);

    // Re-hashing into a recycled vector: no allocation.
    let mut hashes = server.tile_hashes();
    assert_eq!(allocations_of(|| server.tile_hashes_into(&mut hashes)), 0);
    assert_eq!(hashes, server.tile_hashes());
}
