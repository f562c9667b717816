//! The VNC roles as network applications.
//!
//! [`VncServerApp`] plays the presenter's laptop: it renders the current
//! screen on demand, diffs it against each viewer's last-applied
//! generation, and streams the changed tiles — to *every* registered
//! viewer, not just the most recent requester. The broadcast path is
//! zero-copy: each update's chunk sequence is encoded once into one shared
//! buffer and fanned out as refcounted [`Bytes`] clones, with per-viewer
//! send windows drained in deterministic round-robin order.
//! [`VncViewerApp`] plays the Aroma Adapter driving the projector: it
//! pulls updates as fast as it can (optionally capped to a target frame
//! rate), reassembles them, and applies them to its local framebuffer.
//! Achieved frame rate, frame latency and bytes on the air are the E1
//! observables.

use crate::encoding::{append_tile_record, begin_tile_stream, coarsen_pixels, decode_tile, read_tile_stream};
use crate::framebuffer::{Framebuffer, TILE};
use crate::pool::BufPool;
use crate::protocol::{encode_chunk_frames_into, PushResult, Reassembler, VncMsg};
use crate::workloads::ScreenSource;
use aroma_net::{Address, NetApp, NetCtx, NodeId};
use aroma_sim::stats::Summary;
use aroma_sim::telemetry::Layer;
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Per-viewer cap on chunks handed to the MAC but not yet completed.
const SEND_WINDOW: usize = 8;

/// Previous screen generations kept for incremental diffs. A viewer whose
/// last-applied generation has aged out of this window simply gets a full
/// update; in the steady lockstep case every viewer sits one generation
/// behind, so even depth 1 would hit.
const HISTORY_DEPTH: usize = 8;

const T_STALL: u64 = 1;
const T_NEXT_REQUEST: u64 = 2;
const T_RECONNECT: u64 = 3;

/// Viewer-side stall timeout before re-requesting a full update.
pub const STALL_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Consecutive loss recoveries that flip the viewer into degraded mode
/// (halved target fps, coarse tiles). Consecutive — a single gap on a
/// lossy-but-live link never degrades, because completions reset the count.
pub const DEGRADE_AFTER: u32 = 3;
/// Consecutive clean updates that restore full quality.
pub const RECOVER_AFTER: u32 = 5;
/// Base pause before a repeated reconnect attempt (doubles per failure).
pub const RECONNECT_BASE: SimDuration = SimDuration::from_millis(500);
/// Reconnect backoff cap: pauses never exceed `RECONNECT_BASE << 3` = 4 s.
pub const MAX_RECONNECT_SHIFT: u32 = 3;

/// One registered viewer's send state. Viewers join in request-arrival
/// order and are never evicted (a silent viewer just has an empty queue);
/// the registry order is the pump's round-robin order, so the whole fan-out
/// is a pure function of the event sequence.
struct ViewerState {
    node: NodeId,
    /// Pre-encoded chunk frames queued for this viewer — refcounted views
    /// into encodings shared across the registry, never per-viewer copies.
    outgoing: VecDeque<Bytes>,
    /// Chunks handed to the MAC and not yet completed either way.
    in_flight: usize,
    /// Screen generation of the last update queued to this viewer.
    sent_gen: Option<u64>,
    /// That update was coarse. A fidelity switch in either direction
    /// forces a full update, so a viewer leaving degraded mode gets every
    /// tile back at full colour depth.
    sent_coarse: bool,
    /// Currently a member of the pump's ready ring.
    in_ready: bool,
}

/// One encoding of the *current* screen generation, shared by every viewer
/// that needs the same `(diff base, fidelity)` answer. Invalidated when a
/// render changes the screen.
struct CachedEncoding {
    /// Diff base generation; `None` is a full update. `Some(cur_gen)` is
    /// the empty "nothing changed" update.
    base_gen: Option<u64>,
    coarse: bool,
    /// The fully encoded wire frames (one shared allocation, see
    /// [`encode_chunk_frames_into`]).
    chunks: Vec<Bytes>,
    stream_len: usize,
    tiles: usize,
}

/// The screen server (the presenter's laptop).
pub struct VncServerApp {
    fb: Framebuffer,
    source: Box<dyn ScreenSource>,
    /// Screen generation: bumped whenever a render changes any tile hash.
    generation: u64,
    /// Tile hashes of the current generation.
    cur_hashes: Vec<u64>,
    /// `(generation, hashes)` of recent previous generations, oldest
    /// first, for incremental diffs against lagging viewers.
    history: VecDeque<(u64, Vec<u64>)>,
    /// Source frame held in `fb`. Equal frames render identical pixels,
    /// so requests render (and hash) only when the frame moves on.
    rendered_frame: Option<u64>,
    /// Encodings already built against the current generation.
    encodings: Vec<CachedEncoding>,
    next_update_id: u32,
    viewers: Vec<ViewerState>,
    /// Viewer index by node id (keyed lookups only; `viewers` order is the
    /// deterministic iteration order).
    viewer_index: BTreeMap<u32, usize>,
    /// Round-robin ring of viewers with queued chunks and window space.
    ready: VecDeque<usize>,
    /// Free-list pool for the encode path's scratch buffers.
    pool: BufPool,
    /// Updates served (one per answered request, across all viewers).
    pub updates_sent: u64,
    /// Tiles sent across all updates (per serve, shared encodings counted
    /// once per receiving viewer).
    pub tiles_sent: u64,
    /// Tile-stream bytes sent (before MAC overhead), per serve.
    pub stream_bytes_sent: u64,
    /// Chunks that failed at the MAC (retry exhaustion / dead cable).
    pub chunk_failures: u64,
    /// Updates served in degraded (coarse) mode.
    pub coarse_updates_sent: u64,
    /// Tile-stream encodings actually performed. The encode-once claim in
    /// `BENCH_fanout.json` is `encodes` staying O(1) per screen change
    /// while `updates_sent` grows O(viewers).
    pub encodes: u64,
    /// Serves answered entirely from a cached encoding.
    pub encode_cache_hits: u64,
    /// Sends the MAC rejected synchronously despite the pump's queue-space
    /// budget (another protocol sharing this node's queue). The chunk
    /// stays queued — never dropped — and retries on the next completion.
    pub sync_send_rejections: u64,
}

impl VncServerApp {
    /// Server for a `width`×`height` screen rendered by `source`.
    pub fn new(width: usize, height: usize, source: Box<dyn ScreenSource>) -> Self {
        let fb = Framebuffer::new(width, height);
        let cur_hashes = fb.tile_hashes();
        VncServerApp {
            fb,
            source,
            generation: 0,
            cur_hashes,
            history: VecDeque::new(),
            rendered_frame: None,
            encodings: Vec::new(),
            next_update_id: 0,
            viewers: Vec::new(),
            viewer_index: BTreeMap::new(),
            ready: VecDeque::new(),
            pool: BufPool::new(),
            updates_sent: 0,
            tiles_sent: 0,
            stream_bytes_sent: 0,
            chunk_failures: 0,
            coarse_updates_sent: 0,
            encodes: 0,
            encode_cache_hits: 0,
            sync_send_rejections: 0,
        }
    }

    /// Start the update-id counter at `id` (test/bench hook for pinning
    /// behaviour at the u32 wraparound boundary).
    pub fn with_first_update_id(mut self, id: u32) -> Self {
        self.next_update_id = id;
        self
    }

    /// The server's current screen digest (tests compare with the viewer).
    pub fn screen_digest(&self) -> u64 {
        self.fb.digest()
    }

    /// Registered viewers (they join on first request, never leave).
    pub fn viewer_count(&self) -> usize {
        self.viewers.len()
    }

    /// Chunks handed to the MAC and awaiting completion, all viewers.
    pub fn in_flight_total(&self) -> usize {
        self.viewers.iter().map(|v| v.in_flight).sum()
    }

    /// Chunks queued and not yet offered to the MAC, all viewers.
    pub fn queued_total(&self) -> usize {
        self.viewers.iter().map(|v| v.outgoing.len()).sum()
    }

    /// Buffer-pool `(hits, misses)` — the allocations-per-update signal.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.hits, self.pool.misses)
    }

    /// Look up (or register) the viewer slot for `node`.
    fn viewer_slot(&mut self, node: NodeId) -> usize {
        if let Some(&i) = self.viewer_index.get(&node.0) {
            return i;
        }
        let i = self.viewers.len();
        self.viewers.push(ViewerState {
            node,
            outgoing: VecDeque::new(),
            in_flight: 0,
            sent_gen: None,
            sent_coarse: false,
            in_ready: false,
        });
        self.viewer_index.insert(node.0, i);
        i
    }

    /// Render the screen for this instant (one render and one hash pass
    /// per source frame, no matter how many viewers ask or how often),
    /// and bump the generation if the content changed.
    fn render_current(&mut self, ctx: &mut NetCtx<'_>) {
        let frame = self.source.frame(ctx.now());
        if self.rendered_frame == Some(frame) {
            return;
        }
        // Pipeline stage timing is wall clock: in a discrete-event world
        // the compute stages (render/encode/chunk) occupy zero simulated
        // time, so their cost only shows up in the self-profiling section.
        let profiling = ctx.telemetry().is_on();
        // lint:allow(sim-wall-clock): render-stage profile timing feeds only Snapshot's profile section, which deterministic_eq excludes (pinned by traced_profile_never_reaches_deterministic_sections)
        let t0 = profiling.then(Instant::now);
        self.source.render(ctx.now(), &mut self.fb);
        let mut hashes = self.pool.take_hashes();
        self.fb.tile_hashes_into(&mut hashes);
        if hashes != self.cur_hashes {
            // New generation: retire the old hashes into the diff history
            // and invalidate every encoding of the old content.
            let old = std::mem::replace(&mut self.cur_hashes, hashes);
            self.history.push_back((self.generation, old));
            if self.history.len() > HISTORY_DEPTH {
                if let Some((_, h)) = self.history.pop_front() {
                    self.pool.put_hashes(h);
                }
            }
            self.generation += 1;
            for enc in self.encodings.drain(..) {
                let mut frames = enc.chunks;
                frames.clear();
                self.pool.put_frames(frames);
            }
        } else {
            self.pool.put_hashes(hashes);
        }
        self.rendered_frame = Some(frame);
        if let Some(t) = t0 {
            ctx.telemetry()
                .profile("vnc.render", t.elapsed().as_nanos() as u64);
        }
    }

    /// Find or build the encoding answering `(base, coarse)` against the
    /// current generation. Returns its index in `self.encodings`.
    fn encoding_for(&mut self, ctx: &mut NetCtx<'_>, base: Option<u64>, coarse: bool) -> usize {
        if let Some(i) = self
            .encodings
            .iter()
            .position(|e| e.base_gen == base && e.coarse == coarse)
        {
            self.encode_cache_hits += 1;
            return i;
        }
        let profiling = ctx.telemetry().is_on();
        // lint:allow(sim-wall-clock): encode-stage profile timing, same profile-only path as render_current's
        let t0 = profiling.then(Instant::now);
        let mut dirty = self.pool.take_indices();
        match base {
            // Diff against the current generation: nothing changed.
            Some(g) if g == self.generation => {}
            Some(g) => {
                let prev = self
                    .history
                    .iter()
                    .find(|(hg, _)| *hg == g)
                    .map(|(_, h)| h)
                    .expect("diff base vetted against history");
                dirty.extend(
                    prev.iter()
                        .zip(self.cur_hashes.iter())
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(i, _)| i),
                );
            }
            None => dirty.extend(0..self.fb.tile_count()),
        }
        let mut stream = self.pool.take_bytes();
        let mut pixels = self.pool.take_pixels();
        pixels.resize(TILE * TILE, 0);
        let mut rle = self.pool.take_bytes();
        begin_tile_stream(&mut stream, dirty.len() as u16);
        let tx_count = self.fb.tiles_x();
        for &idx in &dirty {
            let (tx, ty) = (idx % tx_count, idx / tx_count);
            self.fb.read_tile(tx, ty, &mut pixels);
            if coarse {
                coarsen_pixels(&mut pixels);
            }
            append_tile_record(&mut stream, tx as u16, ty as u16, &pixels, &mut rle);
        }
        if let Some(t) = t0 {
            ctx.telemetry()
                .profile("vnc.encode", t.elapsed().as_nanos() as u64);
        }

        // lint:allow(sim-wall-clock): chunk-stage profile timing, same profile-only path as above
        let t0 = profiling.then(Instant::now);
        let id = self.next_update_id;
        self.next_update_id = self.next_update_id.wrapping_add(1);
        let mut chunks = self.pool.take_frames();
        encode_chunk_frames_into(id, &stream, &mut chunks);
        if let Some(t) = t0 {
            ctx.telemetry()
                .profile("vnc.chunk", t.elapsed().as_nanos() as u64);
        }
        self.encodes += 1;
        let entry = CachedEncoding {
            base_gen: base,
            coarse,
            chunks,
            stream_len: stream.len(),
            tiles: dirty.len(),
        };
        self.pool.put_bytes(stream);
        self.pool.put_bytes(rle);
        self.pool.put_pixels(pixels);
        self.pool.put_indices(dirty);
        self.encodings.push(entry);
        self.encodings.len() - 1
    }

    fn serve_update(&mut self, ctx: &mut NetCtx<'_>, slot: usize, incremental: bool, coarse: bool) {
        self.render_current(ctx);
        // An incremental diff is only valid against content of the *same*
        // fidelity, a generation still in the history window (or current).
        let base = if incremental && self.viewers[slot].sent_coarse == coarse {
            match self.viewers[slot].sent_gen {
                Some(g) if g == self.generation => Some(g),
                Some(g) if self.history.iter().any(|(hg, _)| *hg == g) => Some(g),
                _ => None,
            }
        } else {
            None
        };
        let enc_idx = self.encoding_for(ctx, base, coarse);
        let (stream_len, tiles, chunk_count) = {
            let e = &self.encodings[enc_idx];
            (e.stream_len, e.tiles, e.chunks.len())
        };
        let v = &mut self.viewers[slot];
        if !incremental {
            // A full re-request means the viewer reset its reassembler:
            // chunks still queued here are dead weight, so drop them.
            // (In-flight MAC frames can't be recalled; the reassembler's
            // fresh-start rule absorbs those stragglers.)
            v.outgoing.clear();
        }
        v.sent_gen = Some(self.generation);
        v.sent_coarse = coarse;
        self.updates_sent += 1;
        if coarse {
            self.coarse_updates_sent += 1;
        }
        self.tiles_sent += tiles as u64;
        self.stream_bytes_sent += stream_len as u64;
        // Fan-out: refcount bumps into the per-viewer queue, no copies.
        let (enc, v) = {
            // Split-borrow dance: clone out of the cache into the queue.
            let chunks = &self.encodings[enc_idx].chunks;
            (chunks.clone(), &mut self.viewers[slot])
        };
        v.outgoing.extend(enc);
        let now_ns = ctx.now().as_nanos();
        let rec = ctx.telemetry();
        rec.count("vnc.updates_served", 1);
        rec.observe("vnc.update_bytes", stream_len as f64);
        rec.event(
            now_ns,
            Layer::Resource,
            "vnc.update.serve",
            0,
            tiles as i64,
            chunk_count as i64,
        );
        self.mark_ready(slot);
        self.pump(ctx);
    }

    /// Put a viewer on the pump's ready ring if it can make progress.
    fn mark_ready(&mut self, slot: usize) {
        let v = &mut self.viewers[slot];
        if !v.in_ready && v.in_flight < SEND_WINDOW && !v.outgoing.is_empty() {
            v.in_ready = true;
            self.ready.push_back(slot);
        }
    }

    /// Drain queued chunks to the MAC: deterministic round-robin over the
    /// ready ring, one chunk per viewer per turn, bounded by each viewer's
    /// send window and this dispatch's free MAC-queue slots. A sync send
    /// rejection keeps the chunk queued — the old single-viewer pump
    /// dropped the entire backlog on a full queue.
    fn pump(&mut self, ctx: &mut NetCtx<'_>) {
        let mut radio_budget = ctx.mac_queue_space();
        while let Some(&slot) = self.ready.front() {
            let (node, open, has_chunks) = {
                let v = &self.viewers[slot];
                (v.node, v.in_flight < SEND_WINDOW, !v.outgoing.is_empty())
            };
            if !open || !has_chunks {
                self.viewers[slot].in_ready = false;
                self.ready.pop_front();
                continue;
            }
            let wired = ctx.unicast_is_wired(node);
            if !wired && radio_budget == 0 {
                break; // MAC queue full: resume on the next completion edge
            }
            let chunk = self.viewers[slot]
                .outgoing
                .front()
                .expect("checked non-empty")
                .clone();
            if ctx.send(Address::Node(node), chunk) {
                let v = &mut self.viewers[slot];
                v.outgoing.pop_front();
                v.in_flight += 1;
                if !wired {
                    radio_budget -= 1;
                }
                // Rotate to the tail: every ready viewer advances one
                // chunk per turn.
                self.ready.pop_front();
                let v = &mut self.viewers[slot];
                if v.in_flight < SEND_WINDOW && !v.outgoing.is_empty() {
                    self.ready.push_back(slot);
                } else {
                    v.in_ready = false;
                }
            } else {
                self.sync_send_rejections += 1;
                break;
            }
        }
    }
}

impl NetApp for VncServerApp {
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(VncMsg::UpdateRequest {
            incremental,
            coarse,
        }) = VncMsg::decode(payload.clone())
        else {
            return;
        };
        let slot = self.viewer_slot(from);
        self.serve_update(ctx, slot, incremental, coarse);
    }

    fn on_sent(&mut self, ctx: &mut NetCtx<'_>, to: Address) {
        if let Address::Node(n) = to {
            if let Some(&slot) = self.viewer_index.get(&n.0) {
                let v = &mut self.viewers[slot];
                // Saturating: a host app multiplexing other protocols on
                // this node (the presenter laptop) forwards completions
                // for its own frames too; those must not underflow the
                // window.
                v.in_flight = v.in_flight.saturating_sub(1);
                self.mark_ready(slot);
            }
        }
        self.pump(ctx);
    }

    fn on_send_failed(&mut self, ctx: &mut NetCtx<'_>, to: NodeId, _payload: &Bytes) {
        if let Some(&slot) = self.viewer_index.get(&to.0) {
            self.chunk_failures += 1;
            let v = &mut self.viewers[slot];
            v.in_flight = v.in_flight.saturating_sub(1);
            self.mark_ready(slot);
        }
        self.pump(ctx);
    }

    /// A crash drops the whole broadcast pipeline — viewer registry, send
    /// queues, encoding caches, diff history: the restarted server serves
    /// a full update to whoever asks next.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.viewers.clear();
        self.viewer_index.clear();
        self.ready.clear();
        self.encodings.clear();
        self.history.clear();
        self.rendered_frame = None;
        self.pool.clear();
    }
}

/// The screen viewer (the Aroma Adapter + projector).
pub struct VncViewerApp {
    /// The server to pull from.
    pub server: NodeId,
    fb: Framebuffer,
    reassembler: Reassembler,
    request_sent_at: Option<SimTime>,
    /// Last instant a chunk of the pending update arrived (stall detection
    /// must not kill a transfer that is merely *slow*).
    last_progress_at: Option<SimTime>,
    /// An update request is outstanding (gates the stall watchdog).
    awaiting_update: bool,
    /// Cap on request rate (None = pull as fast as updates complete).
    pub target_fps: Option<f64>,
    /// Completed updates (including empty ones).
    pub updates_completed: u64,
    /// Completed updates that contained at least one tile.
    pub frames_with_content: u64,
    /// Tile-stream bytes received.
    pub stream_bytes_received: u64,
    /// Per-update latency (request → fully applied), seconds.
    pub update_latency: Summary,
    /// Full (non-incremental) re-requests triggered by loss/stall.
    pub recoveries: u64,
    /// Degraded mode active: requests are coarse and the fps cap is halved.
    pub degraded: bool,
    /// Times the viewer entered degraded mode.
    pub degradations: u64,
    /// Times it climbed back to full quality.
    pub quality_recoveries: u64,
    /// Loss recoveries since the last completed update (drives both the
    /// degrade decision and the reconnect backoff).
    consecutive_recoveries: u32,
    /// Clean completions since entering degraded mode.
    clean_completes: u32,
    /// The incremental flag to use when the reconnect pause elapses.
    pending_incremental: bool,
    first_update_done: bool,
}

impl VncViewerApp {
    /// Viewer pulling a `width`×`height` screen from `server`.
    pub fn new(server: NodeId, width: usize, height: usize) -> Self {
        VncViewerApp {
            server,
            fb: Framebuffer::new(width, height),
            reassembler: Reassembler::new(),
            request_sent_at: None,
            last_progress_at: None,
            awaiting_update: false,
            target_fps: None,
            updates_completed: 0,
            frames_with_content: 0,
            stream_bytes_received: 0,
            update_latency: Summary::new(),
            recoveries: 0,
            degraded: false,
            degradations: 0,
            quality_recoveries: 0,
            consecutive_recoveries: 0,
            clean_completes: 0,
            pending_incremental: false,
            first_update_done: false,
        }
    }

    /// Cap the pull rate at `fps` updates per second.
    pub fn with_target_fps(mut self, fps: f64) -> Self {
        assert!(fps > 0.0);
        self.target_fps = Some(fps);
        self
    }

    /// The viewer's screen digest (tests compare with the server).
    pub fn screen_digest(&self) -> u64 {
        self.fb.digest()
    }

    /// Achieved update rate over `horizon`.
    pub fn achieved_fps(&self, horizon: SimDuration) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.updates_completed as f64 / secs
        }
    }

    fn request(&mut self, ctx: &mut NetCtx<'_>, incremental: bool) {
        self.request_sent_at = Some(ctx.now());
        self.last_progress_at = Some(ctx.now());
        self.awaiting_update = true;
        self.reassembler.reset();
        let rec = ctx.telemetry();
        rec.count("vnc.requests", 1);
        rec.event(
            self.request_sent_at.unwrap().as_nanos(),
            Layer::Resource,
            "vnc.request",
            self.server.0,
            incremental as i64,
            self.degraded as i64,
        );
        ctx.send(
            Address::Node(self.server),
            VncMsg::UpdateRequest {
                incremental,
                coarse: self.degraded,
            }
            .encode(),
        );
        ctx.set_timer(STALL_TIMEOUT, T_STALL);
    }

    fn schedule_next_request(&mut self, ctx: &mut NetCtx<'_>) {
        match self.target_fps {
            None => self.request(ctx, true),
            Some(fps) => {
                // Degraded mode halves the pull rate: fewer, smaller
                // updates while the link is bad.
                let fps = if self.degraded { fps * 0.5 } else { fps };
                let interval = SimDuration::from_secs_f64(1.0 / fps);
                let since = self
                    .request_sent_at
                    .map(|t| ctx.now().saturating_since(t))
                    .unwrap_or(SimDuration::ZERO);
                if since >= interval {
                    self.request(ctx, true);
                } else {
                    ctx.set_timer(interval - since, T_NEXT_REQUEST);
                }
            }
        }
    }

    fn apply_stream(&mut self, stream: Bytes) -> bool {
        self.stream_bytes_received += stream.len() as u64;
        let Ok(tiles) = read_tile_stream(stream) else {
            return false;
        };
        let had_content = !tiles.is_empty();
        for t in &tiles {
            let Ok(pixels) = decode_tile(t, TILE * TILE) else {
                return false;
            };
            self.fb.write_tile(t.tx as usize, t.ty as usize, &pixels);
        }
        if had_content {
            self.frames_with_content += 1;
        }
        true
    }

    /// One loss recovery: count it, maybe degrade, and either retry
    /// immediately (first failure — the original behaviour) or pause with
    /// exponential backoff so a dead server is probed, not hammered.
    fn recover(&mut self, ctx: &mut NetCtx<'_>, incremental: bool) {
        self.recoveries += 1;
        self.consecutive_recoveries += 1;
        self.clean_completes = 0;
        if !self.degraded && self.consecutive_recoveries >= DEGRADE_AFTER {
            self.degraded = true;
            self.degradations += 1;
            let now_ns = ctx.now().as_nanos();
            let rec = ctx.telemetry();
            rec.count("vnc.degrade", 1);
            rec.event(
                now_ns,
                Layer::Resource,
                "vnc.degrade",
                self.server.0,
                self.consecutive_recoveries as i64,
                0,
            );
        }
        if self.consecutive_recoveries <= 1 {
            self.request(ctx, incremental);
        } else {
            let shift = (self.consecutive_recoveries - 2).min(MAX_RECONNECT_SHIFT);
            let delay = SimDuration::from_nanos(RECONNECT_BASE.as_nanos() << shift);
            self.pending_incremental = incremental;
            self.awaiting_update = false;
            ctx.set_timer(delay, T_RECONNECT);
        }
    }

    /// A clean completion: reset the failure streak and, after
    /// [`RECOVER_AFTER`] of them in degraded mode, restore full quality.
    fn note_clean_complete(&mut self, ctx: &mut NetCtx<'_>) {
        self.consecutive_recoveries = 0;
        if self.degraded {
            self.clean_completes += 1;
            if self.clean_completes >= RECOVER_AFTER {
                self.degraded = false;
                self.clean_completes = 0;
                self.quality_recoveries += 1;
                let now_ns = ctx.now().as_nanos();
                let rec = ctx.telemetry();
                rec.count("vnc.recover", 1);
                rec.event(now_ns, Layer::Resource, "vnc.recover", self.server.0, 0, 0);
            }
        }
    }
}

impl NetApp for VncViewerApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.request(ctx, false);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        if from != self.server {
            return;
        }
        let Ok(VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload,
        }) = VncMsg::decode(payload.clone())
        else {
            return;
        };
        self.last_progress_at = Some(ctx.now());
        match self.reassembler.push(update_id, seq, last, &payload) {
            PushResult::Incomplete => {}
            PushResult::Gap => {
                // Lost a chunk: resynchronise with a full update.
                ctx.telemetry().count("vnc.gaps", 1);
                self.recover(ctx, false);
            }
            PushResult::Complete(stream) => {
                self.awaiting_update = false;
                if let Some(at) = self.request_sent_at {
                    let latency = ctx.now().saturating_since(at);
                    self.update_latency.record(latency.as_secs_f64());
                    let now_ns = ctx.now().as_nanos();
                    let rec = ctx.telemetry();
                    rec.observe("vnc.update_latency_s", latency.as_secs_f64());
                    rec.event(
                        now_ns,
                        Layer::Physical,
                        "vnc.update.deliver",
                        self.server.0,
                        stream.len() as i64,
                        latency.as_nanos() as i64,
                    );
                }
                if self.apply_stream(stream) {
                    self.updates_completed += 1;
                    self.first_update_done = true;
                    self.note_clean_complete(ctx);
                    self.schedule_next_request(ctx);
                } else {
                    self.recover(ctx, false);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        match token {
            T_NEXT_REQUEST => self.request(ctx, true),
            T_STALL => {
                // Recover only when nothing has arrived for a full stall
                // window — a slow-but-progressing transfer (a big frame on
                // a thin link) must be left alone.
                if !self.awaiting_update {
                    return; // the watched update already completed
                }
                if let Some(progress) = self.last_progress_at {
                    let idle = ctx.now().saturating_since(progress);
                    if idle >= STALL_TIMEOUT {
                        self.recover(ctx, !self.first_update_done);
                    } else {
                        ctx.set_timer(STALL_TIMEOUT - idle, T_STALL);
                    }
                }
            }
            T_RECONNECT => {
                // Skip if a late completion ended the failure streak (a
                // normal request cycle is running again), or a request is
                // already in flight.
                if self.consecutive_recoveries == 0 || self.awaiting_update {
                    return;
                }
                self.request(ctx, self.pending_incremental);
            }
            _ => {}
        }
    }

    /// An adapter crash forgets the transfer in progress; the restart's
    /// `on_start` re-requests the full screen from scratch.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.reassembler.reset();
        self.awaiting_update = false;
        self.request_sent_at = None;
        self.last_progress_at = None;
        self.consecutive_recoveries = 0;
        self.clean_completes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BouncingBox, SlideDeck};
    use aroma_env::radio::RadioEnvironment;
    use aroma_env::space::Point;
    use aroma_net::{MacConfig, Network, NodeConfig};

    fn quiet() -> RadioEnvironment {
        RadioEnvironment {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        }
    }

    fn pair(
        source: Box<dyn ScreenSource>,
        w: usize,
        h: usize,
        seed: u64,
    ) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(w, h, source)),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, w, h)),
        );
        (net, server, viewer)
    }

    #[test]
    fn traced_profile_never_reaches_deterministic_sections() {
        // The three `Instant::now` sites in serve_update are waived with
        // `lint:allow(sim-wall-clock)` on the claim that their nanos feed
        // ONLY the snapshot's profile section, which deterministic_eq
        // excludes. Pin that claim: two traced runs of the same seed must
        // compare deterministic_eq even though both recorded real (and
        // almost surely different) wall-clock stage timings.
        use aroma_sim::telemetry::TelemetryConfig;
        let run = || {
            let (mut net, _server, _viewer) = pair(Box::new(BouncingBox::new()), 320, 240, 7);
            net.attach_telemetry(TelemetryConfig::default());
            net.run_for(SimDuration::from_secs(2));
            net.telemetry_snapshot().expect("telemetry attached")
        };
        let (a, b) = (run(), run());
        for stage in ["vnc.render", "vnc.encode", "vnc.chunk"] {
            assert!(
                a.profile.iter().any(|p| p.name == stage && p.calls > 0),
                "profiling stage {stage} never recorded — the waived wall-clock \
                 sites are not exercising the profile-only path this test pins"
            );
        }
        assert!(
            a.deterministic_eq(&b),
            "wall-clock profiling leaked into a deterministic_eq-compared section"
        );
    }

    #[test]
    fn initial_full_update_transfers_screen() {
        let (mut net, server, viewer) = pair(Box::new(SlideDeck::new(10.0)), 320, 240, 1);
        net.run_for(SimDuration::from_secs(2));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.updates_completed >= 1);
        assert_eq!(
            s.screen_digest(),
            v.screen_digest(),
            "viewer screen diverged from server"
        );
        assert_eq!(v.recoveries, 0);
    }

    #[test]
    fn static_screen_sends_tiny_incremental_updates() {
        let (mut net, server, viewer) = pair(Box::new(SlideDeck::new(60.0)), 320, 240, 2);
        net.run_for(SimDuration::from_secs(3));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        // Many updates completed, but only the first carried tiles.
        assert!(v.updates_completed > 10);
        assert_eq!(v.frames_with_content, 1, "static screen resent content");
        // Stream bytes ≈ one full screen; later updates are headers only.
        assert!(s.stream_bytes_sent < 320 * 240 * 2 / 4, "slides should compress");
    }

    #[test]
    fn animation_keeps_sending_content() {
        let (mut net, server, viewer) = pair(Box::new(BouncingBox::new()), 320, 240, 3);
        net.run_for(SimDuration::from_secs(3));
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.updates_completed > 5);
        // Nearly every update of a moving box has content.
        assert!(
            v.frames_with_content as f64 >= v.updates_completed as f64 * 0.8,
            "content {} of {}",
            v.frames_with_content,
            v.updates_completed
        );
        // A moving screen renders and encodes on every request, each
        // taking its scratch buffers from the pool and returning them.
        let (hits, misses) = net.app_as::<VncServerApp>(server).unwrap().pool_stats();
        assert!(hits > misses, "buffer pool never reached steady state");
    }

    /// Render on frame change: a slide deck pulled at 10 fps renders once
    /// per slide, not once per request, and a crash-restart (which forgets
    /// the rendered frame) still ends with the viewer showing the
    /// server's screen.
    #[test]
    fn slide_deck_renders_once_per_slide_and_converges_after_restart() {
        use aroma_sim::faults::FaultSchedule;
        use aroma_sim::telemetry::TelemetryConfig;
        let renders = |net: &Network| {
            let snap = net.telemetry_snapshot().expect("telemetry attached");
            snap.profile
                .iter()
                .find(|p| p.name == "vnc.render")
                .map_or(0, |p| p.calls)
        };
        let mut net = Network::new(quiet(), MacConfig::default(), 23);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(320, 240, Box::new(SlideDeck::new(1.0)))),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 320, 240).with_target_fps(10.0)),
        );
        net.attach_telemetry(TelemetryConfig::default());
        // The server is down from 5.3 s to 5.6 s, inside slide 5.
        let schedule = FaultSchedule::builder(5)
            .crash_restart(
                SimDuration::from_millis(5_300).as_nanos(),
                SimDuration::from_millis(5_600).as_nanos(),
                server.0,
            )
            .build();
        net.attach_faults(&schedule);

        net.run_for(SimDuration::from_millis(4_500));
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(
            v.updates_completed >= 40,
            "only {} pulls",
            v.updates_completed
        );
        assert_eq!(renders(&net), 5, "slides 0-4 must render once each");
        let s = net.app_as::<VncServerApp>(server).unwrap();
        assert_eq!(v.screen_digest(), s.screen_digest());

        net.run_for(SimDuration::from_secs(8));
        // Slides 0-12 at most once each, plus at most one re-render of
        // slide 5 after the restart.
        assert!(renders(&net) <= 14, "{} renders", renders(&net));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.recoveries >= 1, "the crash went unnoticed");
        assert_eq!(
            v.screen_digest(),
            s.screen_digest(),
            "viewer never converged"
        );
    }

    #[test]
    fn viewer_tracks_moving_screen_to_convergence() {
        // Run, then freeze the source by letting time settle: with a slide
        // deck, after the final slide change the screens must converge.
        let (mut net, server, viewer) = pair(Box::new(SlideDeck::new(1.0)), 320, 240, 4);
        net.run_for(SimDuration::from_secs(5));
        // Settle within the current slide (period 1 s: run a bit more and
        // compare right after an update completes).
        net.run_for(SimDuration::from_millis(400));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert_eq!(s.screen_digest(), v.screen_digest());
    }

    #[test]
    fn target_fps_caps_request_rate() {
        let mut net = Network::new(quiet(), MacConfig::default(), 5);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(320, 240, Box::new(SlideDeck::new(60.0)))),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 320, 240).with_target_fps(5.0)),
        );
        net.run_for(SimDuration::from_secs(4));
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        let fps = v.achieved_fps(SimDuration::from_secs(4));
        assert!(fps <= 5.5, "fps {fps} exceeds the 5 fps cap");
        assert!(fps >= 3.0, "fps {fps} far below the cap on an idle link");
    }

    #[test]
    fn server_outage_degrades_then_recovers_full_quality() {
        use aroma_sim::faults::FaultSchedule;

        let mut net = Network::new(quiet(), MacConfig::default(), 7);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(320, 240, Box::new(SlideDeck::new(60.0)))),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 320, 240).with_target_fps(10.0)),
        );
        // Server dies at 3 s and stays dead long enough for the viewer's
        // stall→reconnect streak to cross DEGRADE_AFTER, then comes back.
        let schedule = FaultSchedule::builder(99)
            .crash_restart(
                SimDuration::from_secs(3).as_nanos(),
                SimDuration::from_secs(11).as_nanos(),
                server.0,
            )
            .build();
        net.attach_faults(&schedule);
        net.run_for(SimDuration::from_secs(25));

        let s = net.app_as::<VncServerApp>(server).unwrap();
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.degradations >= 1, "outage never degraded the viewer");
        assert!(s.coarse_updates_sent >= 1, "no coarse update was served");
        assert!(
            v.quality_recoveries >= 1 && !v.degraded,
            "viewer never climbed back to full quality"
        );
        // The post-recovery full update restores exact fidelity.
        assert_eq!(s.screen_digest(), v.screen_digest());
    }

    #[test]
    fn update_latency_is_recorded() {
        let (mut net, _server, viewer) = pair(Box::new(SlideDeck::new(10.0)), 320, 240, 6);
        net.run_for(SimDuration::from_secs(2));
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.update_latency.count() >= 1);
        // The first (full) update of a 320×240 screen at ~11 Mbps with RLE
        // slides is a handful of chunks: tens of ms at most.
        assert!(v.update_latency.max().unwrap() < 0.5);
    }

    /// A bare-bones second viewer: one full-update request at a chosen
    /// time, then reassemble whatever comes back. Exists to interleave a
    /// request into the middle of another viewer's transfer.
    struct ProbeViewer {
        server: NodeId,
        request_at: SimDuration,
        reassembler: Reassembler,
        fb: Framebuffer,
        completed: u64,
    }

    impl ProbeViewer {
        fn new(server: NodeId, request_at: SimDuration, w: usize, h: usize) -> Self {
            ProbeViewer {
                server,
                request_at,
                reassembler: Reassembler::new(),
                fb: Framebuffer::new(w, h),
                completed: 0,
            }
        }
    }

    impl NetApp for ProbeViewer {
        fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.set_timer(self.request_at, 1);
        }

        fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
            self.reassembler.reset();
            ctx.send(
                Address::Node(self.server),
                VncMsg::UpdateRequest {
                    incremental: false,
                    coarse: false,
                }
                .encode(),
            );
        }

        fn on_packet(&mut self, _ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
            if from != self.server {
                return;
            }
            let Ok(VncMsg::UpdateChunk {
                update_id,
                seq,
                last,
                payload,
            }) = VncMsg::decode(payload.clone())
            else {
                return;
            };
            if let PushResult::Complete(stream) = self.reassembler.push(update_id, seq, last, &payload)
            {
                for t in &read_tile_stream(stream).expect("valid stream") {
                    let pixels = decode_tile(t, TILE * TILE).expect("valid tile");
                    self.fb.write_tile(t.tx as usize, t.ty as usize, &pixels);
                }
                self.completed += 1;
            }
        }
    }

    /// The viewer-steal regression: under the old single-slot server, a
    /// request from viewer B mid-transfer redirected A's remaining chunks
    /// to B — A stalled into recovery and B reassembled a torn update.
    /// With the broadcast registry, A's in-flight update reassembles
    /// intact and B gets its own complete full update.
    #[test]
    fn second_viewer_request_does_not_steal_the_first_transfer() {
        let mut net = Network::new(quiet(), MacConfig::default(), 11);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(320, 240, Box::new(SlideDeck::new(60.0)))),
        );
        let a = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 320, 240).with_target_fps(5.0)),
        );
        // B barges in ~2 ms after A's full update started streaming (a
        // 320×240 full screen is dozens of chunks — well past 2 ms of air).
        let b = net.add_node(
            NodeConfig::at(Point::new(0.0, 4.0)),
            Box::new(ProbeViewer::new(server, SimDuration::from_millis(2), 320, 240)),
        );
        net.run_for(SimDuration::from_secs(2));
        let digest = net.app_as::<VncServerApp>(server).unwrap().screen_digest();
        let s = net.app_as::<VncServerApp>(server).unwrap();
        assert_eq!(s.viewer_count(), 2, "both viewers should be registered");
        let va = net.app_as::<VncViewerApp>(a).unwrap();
        assert_eq!(va.recoveries, 0, "A's transfer was disrupted by B's request");
        assert_eq!(va.screen_digest(), digest, "A's screen diverged");
        let vb = net.app_as::<ProbeViewer>(b).unwrap();
        assert!(vb.completed >= 1, "B never reassembled a complete update");
        assert_eq!(vb.fb.digest(), digest, "B's full update was torn");
    }

    /// Mixed sync/async send failures must leave the window accounting
    /// balanced. The old pump dropped chunks on synchronous MAC rejection
    /// while `on_send_failed` still decremented the shared window — under
    /// a tiny MAC queue plus a loss burst the counter overfilled or
    /// underflowed. Now the pump budgets against real queue space (no sync
    /// rejections from our own sends) and failures decrement exactly the
    /// owning viewer's window.
    #[test]
    fn in_flight_accounting_survives_mixed_failures() {
        use aroma_sim::faults::FaultSchedule;
        let mut net = Network::new(quiet(), MacConfig { queue_cap: 2, ..Default::default() }, 13);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(160, 128, Box::new(BouncingBox::new()))),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 160, 128)),
        );
        // Continuous animation pulls keep the server mid-transfer, a
        // total-loss burst kills its in-flight chunks by retry exhaustion,
        // and finally the viewer dies for good — the server must drain the
        // remaining backlog through failures to a provably quiescent
        // state.
        let schedule = FaultSchedule::builder(3)
            .burst_loss(
                SimDuration::from_millis(400).as_nanos(),
                SimDuration::from_millis(900).as_nanos(),
                1.0,
            )
            .crash_restart(
                SimDuration::from_millis(1500).as_nanos(),
                SimDuration::from_secs(60).as_nanos(),
                viewer.0,
            )
            .build();
        net.attach_faults(&schedule);
        net.run_for(SimDuration::from_secs(4));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        assert!(s.chunk_failures > 0, "no async failures were provoked");
        assert_eq!(
            s.sync_send_rejections, 0,
            "budgeted pump should never hit a synchronous MAC rejection"
        );
        assert_eq!(s.in_flight_total(), 0, "window accounting leaked");
        assert_eq!(s.queued_total(), 0, "stale chunks left queued");
    }

    /// End-to-end across the update-id wrap: ids MAX-2, MAX-1, MAX, 0, 1…
    /// must stream through without the viewer ever mistaking the wrapped
    /// id for a stale update (the reassembler keys on id *equality*, not
    /// ordering — pinned at the protocol level too).
    #[test]
    fn update_ids_wrap_through_u32_max_without_a_hiccup() {
        let mut net = Network::new(quiet(), MacConfig::default(), 17);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(
                VncServerApp::new(320, 240, Box::new(BouncingBox::new()))
                    .with_first_update_id(u32::MAX - 2),
            ),
        );
        let viewer = net.add_node(
            NodeConfig::at(Point::new(4.0, 0.0)),
            Box::new(VncViewerApp::new(server, 320, 240)),
        );
        net.run_for(SimDuration::from_secs(3));
        let s = net.app_as::<VncServerApp>(server).unwrap();
        assert!(
            s.encodes > 3,
            "only {} encodes — the id counter never crossed the wrap",
            s.encodes
        );
        let v = net.app_as::<VncViewerApp>(viewer).unwrap();
        assert!(v.updates_completed > 5);
        assert_eq!(v.recoveries, 0, "the id wrap broke reassembly");
    }

    /// Broadcast fan-out: several viewers pull the same static screen, the
    /// server answers every one from a handful of shared encodings, and
    /// all screens converge. `encodes` staying flat while `updates_sent`
    /// scales with the audience is the encode-once invariant.
    #[test]
    fn broadcast_fans_out_with_shared_encodings() {
        let mut net = Network::new(quiet(), MacConfig::default(), 19);
        let server = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(VncServerApp::new(320, 240, Box::new(SlideDeck::new(60.0)))),
        );
        let viewers: Vec<NodeId> = (0..6)
            .map(|i| {
                let angle = i as f64;
                net.add_node(
                    NodeConfig::at(Point::new(3.0 * angle.cos(), 3.0 * angle.sin())),
                    Box::new(VncViewerApp::new(server, 320, 240).with_target_fps(4.0)),
                )
            })
            .collect();
        net.run_for(SimDuration::from_secs(4));
        let digest = net.app_as::<VncServerApp>(server).unwrap().screen_digest();
        let s = net.app_as::<VncServerApp>(server).unwrap();
        assert_eq!(s.viewer_count(), 6);
        assert!(s.updates_sent > 50, "only {} updates served", s.updates_sent);
        // One full encode + one empty incremental encode (plus slack for
        // request-time staggering) serve the entire audience.
        assert!(
            s.encodes <= 6,
            "{} encodes for {} serves — fan-out is re-encoding per viewer",
            s.encodes,
            s.updates_sent
        );
        assert!(s.encode_cache_hits > s.encodes, "cache never took over");
        for &vid in &viewers {
            let v = net.app_as::<VncViewerApp>(vid).unwrap();
            assert!(v.updates_completed >= 1);
            assert_eq!(v.screen_digest(), digest, "viewer {vid:?} diverged");
        }
    }
}
