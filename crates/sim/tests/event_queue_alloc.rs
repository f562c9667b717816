//! The event queue does not allocate in steady state (DESIGN.md §6 item
//! 12). Once its slab and its same-instant heap have grown to their working
//! size, popping one event and scheduling one more, with the network's
//! delay mix, makes no heap allocation. A counting global allocator (this
//! test binary's own) counts the calls.

use aroma_sim::{EventQueue, SimDuration, SimRng};
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A delay from the mix the network schedules on the `building` workload:
/// 15% at the same instant, 72% 16 µs–1 ms, 12% 1 ms–1 s, 1% 1–16 s.
fn delay(rng: &mut SimRng) -> SimDuration {
    let (lo, hi) = match rng.below(100) {
        0..15 => return SimDuration::ZERO,
        15..87 => (16_000, 1_000_000),
        87..99 => (1_000_000, 1_000_000_000),
        _ => (1_000_000_000, 16_000_000_000),
    };
    SimDuration::from_nanos(lo + rng.below(hi - lo))
}

/// A network-style event: a tie key (rank in the top byte, then a node
/// id) and a 40-byte body, 48 bytes in all.
type Event = (u64, [u64; 5]);

fn event(rng: &mut SimRng) -> Event {
    (rng.below(7) << 56 | rng.below(64), [0; 5])
}

#[test]
fn hold_makes_no_allocation() {
    let mut rng = SimRng::new(233);
    let mut q: EventQueue<Event> = EventQueue::keyed(|&(key, _)| key);
    for _ in 0..1_000 {
        let ev = event(&mut rng);
        q.schedule_in(delay(&mut rng), ev);
    }
    let before = allocations();
    for _ in 0..100_000 {
        let (_, ev) = q.pop().expect("the queue holds 1,000 events");
        q.schedule_in(delay(&mut rng), ev);
    }
    let allocated = allocations() - before;
    assert_eq!(q.len(), 1_000);
    assert_eq!(allocated, 0, "{allocated} allocations in 100,000 pops");
}
