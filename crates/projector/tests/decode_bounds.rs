//! Every network decoder's allocations are bounded by its input: a count
//! read off the wire must not reserve room for 65,535 (or 2^32 - 1)
//! elements when the frame is only a few bytes long. A counting global
//! allocator (this test binary's own) measures what one decode asks for.
//! The test lives in the projector crate because it is the one that
//! depends on every decoder it covers: discovery (messages, snapshots,
//! durable state), VNC tile streams and mobile-code programs.

use aroma_discovery::codec::{Msg, PROTO_DISCOVERY};
use aroma_discovery::replication::{DurableState, DURABLE_VERSION};
use aroma_discovery::snapshot::{LeaseSnapshot, SNAPSHOT_VERSION};
use aroma_mcode::isa::DecodeError;
use aroma_mcode::program::{Program, ProgramError};
use aroma_net::wire::WireError;
use aroma_vnc::encoding::read_tile_stream;
use bytes::{BufMut, Bytes, BytesMut};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, adding every request's size to the
/// calling thread's running total (so parallel tests do not mix counts).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `decode` returns and the bytes it allocated on this thread.
fn counting<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let decoded = decode();
    (decoded, ALLOCATED.with(Cell::get) - before)
}

const TAG_REGISTER: u8 = 3;
const TAG_LOOKUP: u8 = 8;
const BUDGET: usize = 64 * 1024;

#[test]
fn forged_template_attribute_count_allocates_little() {
    // A 13-byte Lookup: request id, "any kind", then 65,535 attributes
    // that never arrive.
    let mut buf = BytesMut::new();
    buf.put_u8(PROTO_DISCOVERY);
    buf.put_u8(TAG_LOOKUP);
    buf.put_u64(1);
    buf.put_u8(0);
    buf.put_u16(u16::MAX);
    let wire = buf.freeze();
    assert_eq!(wire.len(), 13);
    let (decoded, allocated) = counting(|| Msg::decode(wire));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}

#[test]
fn forged_item_attribute_count_allocates_little() {
    // A Register whose item claims 65,535 attributes after an empty kind.
    let mut buf = BytesMut::new();
    buf.put_u8(PROTO_DISCOVERY);
    buf.put_u8(TAG_REGISTER);
    buf.put_u64(30_000); // lease
    buf.put_u64(7); // service id
    buf.put_u16(0); // empty kind
    buf.put_u16(u16::MAX);
    let wire = buf.freeze();
    let (decoded, allocated) = counting(|| Msg::decode(wire));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}

#[test]
fn forged_snapshot_row_count_allocates_little() {
    // A 21-byte snapshot header announcing 2^32 - 1 rows.
    let mut buf = BytesMut::new();
    buf.put_u8(SNAPSHOT_VERSION);
    buf.put_u64(9); // last index
    buf.put_u64(2); // last epoch
    buf.put_u32(u32::MAX);
    let wire = buf.freeze();
    assert_eq!(wire.len(), 21);
    let (decoded, allocated) = counting(|| LeaseSnapshot::decode(wire));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}

#[test]
fn forged_durable_log_count_allocates_little() {
    // A 46-byte durable blob: an empty snapshot, then 2^32 - 1 log
    // entries that never arrive.
    let empty = LeaseSnapshot {
        last_index: 0,
        last_epoch: 0,
        entries: Vec::new(),
    }
    .encode();
    let mut buf = BytesMut::new();
    buf.put_u8(DURABLE_VERSION);
    buf.put_u64(3); // epoch
    buf.put_u64(1); // log start
    buf.put_u32(empty.len() as u32);
    buf.put_slice(&empty);
    buf.put_u32(u32::MAX);
    let wire = buf.freeze();
    assert_eq!(wire.len(), 46);
    let (decoded, allocated) = counting(|| DurableState::decode(wire));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}

#[test]
fn forged_tile_count_allocates_little() {
    // A 2-byte tile stream announcing 65,535 tiles.
    let wire = Bytes::from_static(&[0xFF, 0xFF]);
    let (decoded, allocated) = counting(|| read_tile_stream(wire));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}

#[test]
fn forged_op_count_allocates_little() {
    // A 3-byte program: the magic byte, then 65,535 ops that never arrive.
    let wire = Bytes::from_static(&[0xAC, 0xFF, 0xFF]);
    let (decoded, allocated) = counting(|| Program::decode(wire));
    assert_eq!(decoded, Err(ProgramError::Decode(DecodeError::Truncated)));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}
