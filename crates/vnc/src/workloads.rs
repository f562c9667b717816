//! Screen-content generators for the E1 experiment.
//!
//! Three contents, matching the paper's usage spectrum: a presenter's
//! *slide deck* (changes rarely, compresses perfectly), *rapid animation*
//! (the case the paper says the wireless link cannot sustain), and *noise
//! video* (incompressible worst case).

use crate::framebuffer::Framebuffer;
use aroma_sim::{SimRng, SimTime};

/// Something that can draw the screen contents at a given instant.
pub trait ScreenSource {
    /// Render the screen as of time `t` into `fb`.
    fn render(&mut self, t: SimTime, fb: &mut Framebuffer);
    /// Frame number of the screen at `t`. Two instants with equal frames
    /// render identical pixels, so a caller that already holds the render
    /// of a frame may skip rendering it again. (Unequal frames promise
    /// nothing: their pixels may still coincide.)
    fn frame(&self, t: SimTime) -> u64;
    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// A slide deck: a full-screen colour + title bar that changes every
/// `period_s` seconds.
pub struct SlideDeck {
    /// Seconds per slide.
    pub period_s: f64,
}

impl SlideDeck {
    /// A deck advancing every `period_s` seconds.
    pub fn new(period_s: f64) -> Self {
        assert!(period_s > 0.0);
        SlideDeck { period_s }
    }
}

impl ScreenSource for SlideDeck {
    fn render(&mut self, t: SimTime, fb: &mut Framebuffer) {
        let slide = self.frame(t) as usize;
        // Background hue varies per slide; bullet blocks vary in count.
        let bg = 0x2104u16.wrapping_add((slide as u16).wrapping_mul(0x1111));
        fb.clear(bg);
        fb.fill_rect(32, 16, fb.width() - 64, 48, 0xFFFF); // title bar
        for bullet in 0..(slide % 5 + 1) {
            fb.fill_rect(48, 96 + bullet * 48, fb.width() / 2, 24, 0xC618);
        }
    }
    /// The frame is the slide index.
    fn frame(&self, t: SimTime) -> u64 {
        (t.as_secs_f64() / self.period_s) as u64
    }
    fn name(&self) -> &'static str {
        "slides"
    }
}

/// A box bouncing around the screen, re-rendered continuously — the
/// "rapid animation" of the paper's physical-layer analysis.
pub struct BouncingBox {
    /// Box edge, pixels.
    pub size: usize,
    /// Horizontal speed, pixels/second.
    pub vx: f64,
    /// Vertical speed, pixels/second.
    pub vy: f64,
}

impl BouncingBox {
    /// A default 64 px box moving briskly.
    pub fn new() -> Self {
        BouncingBox {
            size: 64,
            vx: 350.0,
            vy: 220.0,
        }
    }
}

impl Default for BouncingBox {
    fn default() -> Self {
        Self::new()
    }
}

impl ScreenSource for BouncingBox {
    fn render(&mut self, t: SimTime, fb: &mut Framebuffer) {
        let (w, h) = (fb.width(), fb.height());
        let span_x = (w - self.size) as f64;
        let span_y = (h - self.size) as f64;
        // Triangle-wave position: |((vt) mod 2s) - s| for bounce.
        let tri = |v: f64, span: f64| -> f64 {
            let x = (v * t.as_secs_f64()) % (2.0 * span);
            (x - span).abs()
        };
        let x = span_x - tri(self.vx, span_x);
        let y = span_y - tri(self.vy, span_y);
        fb.clear(0x0000);
        fb.fill_rect(x as usize, y as usize, self.size, self.size, 0xF800);
    }
    /// The box moves continuously: every distinct instant is a new frame.
    fn frame(&self, t: SimTime) -> u64 {
        t.as_nanos()
    }
    fn name(&self) -> &'static str {
        "animation"
    }
}

/// Full-screen incompressible noise, re-randomised per distinct frame time
/// (quantised to `fps`).
pub struct NoiseVideo {
    /// Frames per second of fresh noise.
    pub fps: f64,
    rng: SimRng,
}

impl NoiseVideo {
    /// Noise at `fps` frames per second, deterministic per `seed`.
    pub fn new(fps: f64, seed: u64) -> Self {
        assert!(fps > 0.0);
        NoiseVideo {
            fps,
            rng: SimRng::new(seed),
        }
    }
}

impl ScreenSource for NoiseVideo {
    fn render(&mut self, t: SimTime, fb: &mut Framebuffer) {
        // Deterministic per frame index: re-fork so replays and repeated
        // renders of the same instant produce identical screens.
        let mut rng = self.rng.fork(self.frame(t));
        for y in 0..fb.height() {
            for x in 0..fb.width() {
                fb.set(x, y, rng.next_u64_raw() as u16);
            }
        }
    }
    /// The frame is the noise frame index.
    fn frame(&self, t: SimTime) -> u64 {
        (t.as_secs_f64() * self.fps) as u64
    }
    fn name(&self) -> &'static str {
        "noise-video"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_sim::SimDuration;

    fn fb() -> Framebuffer {
        Framebuffer::new(320, 240)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn slides_static_within_a_slide() {
        let mut s = SlideDeck::new(10.0);
        let mut a = fb();
        let mut b = fb();
        s.render(at(1_000), &mut a);
        s.render(at(5_000), &mut b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn slides_change_between_slides() {
        let mut s = SlideDeck::new(1.0);
        let mut a = fb();
        let mut b = fb();
        s.render(at(500), &mut a);
        s.render(at(1_500), &mut b);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn animation_moves_continuously() {
        let mut s = BouncingBox::new();
        let mut a = fb();
        let mut b = fb();
        s.render(at(100), &mut a);
        s.render(at(200), &mut b);
        assert_ne!(a.digest(), b.digest());
        // But only a minority of tiles change between close frames.
        let dirty = b.dirty_tiles(&a.tile_hashes());
        assert!(!dirty.is_empty());
        assert!(
            dirty.len() < a.tile_count() / 2,
            "animation should be localised: {}/{} tiles dirty",
            dirty.len(),
            a.tile_count()
        );
    }

    #[test]
    fn animation_stays_on_screen() {
        let mut s = BouncingBox::new();
        for ms in (0..20_000).step_by(333) {
            let mut f = fb();
            s.render(at(ms as u64), &mut f);
            // The red box must be fully visible: count red pixels.
            let mut red = 0usize;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    if f.get(x, y) == 0xF800 {
                        red += 1;
                    }
                }
            }
            assert_eq!(red, 64 * 64, "box clipped at t={ms}ms");
        }
    }

    #[test]
    fn noise_changes_every_frame_and_is_deterministic() {
        let mut s = NoiseVideo::new(10.0, 7);
        let mut a = fb();
        let mut b = fb();
        s.render(at(0), &mut a);
        s.render(at(100), &mut b);
        assert_ne!(a.digest(), b.digest());
        // Same instant twice → same screen.
        let mut s2 = NoiseVideo::new(10.0, 7);
        let mut c = fb();
        s2.render(at(0), &mut c);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn noise_is_static_within_a_frame_interval() {
        let mut s = NoiseVideo::new(10.0, 7);
        let mut a = fb();
        let mut b = fb();
        s.render(at(10), &mut a);
        s.render(at(60), &mut b); // same 100 ms frame window
        assert_eq!(a.digest(), b.digest());
    }
}
