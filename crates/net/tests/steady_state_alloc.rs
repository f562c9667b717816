//! The network's hot paths do not allocate in steady state (DESIGN.md §6).
//! Once every buffer has grown to its working size, simulating more time,
//! with collisions, ACK timeouts, retries, broadcasts and a walking node,
//! makes no heap allocation. A counting global allocator (this test
//! binary's own) counts the calls.

use aroma_env::radio::RadioEnvironment;
use aroma_env::space::Point;
use aroma_net::{Address, MacConfig, MobilityPath, NetApp, NetCtx, Network, NodeConfig};
use aroma_sim::{SimDuration, SimTime};
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Sends a clone of one payload to `dst` at exponential intervals.
struct Sender {
    dst: Address,
    payload: Bytes,
    mean_s: f64,
}

impl Sender {
    fn next(&self, ctx: &mut NetCtx<'_>) {
        let wait = ctx.rng().exponential(self.mean_s);
        ctx.set_timer(SimDuration::from_secs_f64(wait), 0);
    }
}

impl NetApp for Sender {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
        ctx.send(self.dst, self.payload.clone());
        self.next(ctx);
    }
}

/// Receives (the network counts what it delivers).
struct Sink;

impl NetApp for Sink {}

#[test]
fn steady_state_makes_no_allocation() {
    let env = RadioEnvironment {
        shadowing_sigma_db: 4.0,
        ..RadioEnvironment::default()
    };
    let mut net = Network::new(env, MacConfig::default(), 77);
    let payload = Bytes::from(vec![0x5A; 600]);
    let sink = net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Sink));
    // Unicast senders around the sink, two of them hidden from each other
    // 60 m apart, so frames collide and ACKs time out.
    for (x, y) in [(30.0, 0.0), (-30.0, 0.0), (3.0, 4.0), (-2.0, -5.0)] {
        let app = Sender {
            dst: Address::Node(sink),
            payload: payload.clone(),
            mean_s: 0.002,
        };
        net.add_node(NodeConfig::at(Point::new(x, y)), Box::new(app));
    }
    let broadcaster = Sender {
        dst: Address::Broadcast,
        payload: payload.clone(),
        mean_s: 0.01,
    };
    net.add_node(NodeConfig::at(Point::new(0.0, 8.0)), Box::new(broadcaster));
    // A walker that keeps sending while it crosses the room and back, so
    // frames are on the air while their sender moves.
    let (west, east) = (Point::new(-20.0, 2.0), Point::new(20.0, 2.0));
    let walk = MobilityPath {
        waypoints: (0..=10)
            .map(|i| {
                let at = SimTime::ZERO + SimDuration::from_millis(500 * i);
                (at, if i % 2 == 0 { west } else { east })
            })
            .collect(),
        update_period: SimDuration::from_millis(20),
    };
    let walker = Sender {
        dst: Address::Node(sink),
        payload,
        mean_s: 0.004,
    };
    net.add_node(NodeConfig::at(west).moving(walk), Box::new(walker));

    // Warm-up: every queue, table row and buffer reaches its working size.
    net.run_for(SimDuration::from_secs(2));
    let stats = net.stats();
    let (delivered, timeouts) = (stats.delivered_frames, stats.total_ack_timeouts());
    let before = allocations();
    net.run_for(SimDuration::from_secs(2));
    let allocated = allocations() - before;
    let stats = net.stats();
    let delivered = stats.delivered_frames - delivered;
    let timeouts = stats.total_ack_timeouts() - timeouts;

    assert!(delivered >= 1_000, "only {delivered} frames delivered");
    assert!(timeouts > 0, "no ACK timeout: the world has no collisions");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations for {delivered} frames"
    );
}
