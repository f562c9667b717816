//! The discovery decoder's allocations are bounded by its input: an
//! attribute count read off the wire must not reserve room for 65,535
//! pairs when the message is only a few bytes long. A counting global
//! allocator (this test binary's own) measures what one decode asks for.

use aroma_discovery::codec::{CodecError, Msg, PROTO_DISCOVERY};
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

/// Bytes allocated on this thread while decoding `wire`.
fn decode_counting(wire: Bytes) -> (Result<Msg, CodecError>, usize) {
    let before = ALLOCATED.with(Cell::get);
    let decoded = Msg::decode(wire);
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
    let (decoded, allocated) = decode_counting(wire);
    assert_eq!(decoded, Err(CodecError::Truncated));
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
    let (decoded, allocated) = decode_counting(buf.freeze());
    assert_eq!(decoded, Err(CodecError::Truncated));
    assert!(allocated < BUDGET, "decode allocated {allocated} bytes");
}
