//! RGB565 framebuffer with tile-level change tracking.

use aroma_sim::rng::{fnv1a_fold, FNV1A_BASIS};

/// Tile edge length in pixels (16×16, as in VNC's hextile encoding).
pub const TILE: usize = 16;

/// Fold one tile row (`TILE` pixels, four words) into a tile hash state:
/// the step both [`Framebuffer::tile_hash`] and
/// [`Framebuffer::tile_hashes_into`] take.
#[inline]
fn fold_tile_row(mut h: u64, px: &[u16]) -> u64 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let px: &[u16; TILE] = px.try_into().expect("one tile row");
    for w in px.chunks_exact(4) {
        let word = u64::from(w[0]) | u64::from(w[1]) << 16 | u64::from(w[2]) << 32 | u64::from(w[3]) << 48;
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    h
}

/// A 16-bit RGB565 framebuffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    pixels: Vec<u16>,
}

impl Framebuffer {
    /// Black framebuffer of the given dimensions (must be multiples of
    /// [`TILE`], which every real mode of the era was).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer");
        assert!(
            width.is_multiple_of(TILE) && height.is_multiple_of(TILE),
            "dimensions must be multiples of the {TILE}px tile"
        );
        Framebuffer {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Tile columns.
    pub fn tiles_x(&self) -> usize {
        self.width / TILE
    }

    /// Tile rows.
    pub fn tiles_y(&self) -> usize {
        self.height / TILE
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles_x() * self.tiles_y()
    }

    /// Read one pixel.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        self.pixels[y * self.width + x]
    }

    /// Write one pixel.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u16) {
        self.pixels[y * self.width + x] = v;
    }

    /// Fill an axis-aligned rectangle (clipped to the framebuffer).
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, v: u16) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            let row = yy * self.width;
            self.pixels[row + x.min(self.width)..row + x1].fill(v);
        }
    }

    /// Fill the whole screen.
    pub fn clear(&mut self, v: u16) {
        self.pixels.fill(v);
    }

    /// Copy the pixels of tile `(tx, ty)` into `out` (row-major,
    /// `TILE*TILE` entries).
    pub fn read_tile(&self, tx: usize, ty: usize, out: &mut [u16]) {
        debug_assert_eq!(out.len(), TILE * TILE);
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        for row in 0..TILE {
            let src = (y0 + row) * self.width + x0;
            out[row * TILE..(row + 1) * TILE].copy_from_slice(&self.pixels[src..src + TILE]);
        }
    }

    /// Write `data` (row-major `TILE*TILE` pixels) into tile `(tx, ty)`.
    pub fn write_tile(&mut self, tx: usize, ty: usize, data: &[u16]) {
        debug_assert_eq!(data.len(), TILE * TILE);
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        for row in 0..TILE {
            let dst = (y0 + row) * self.width + x0;
            self.pixels[dst..dst + TILE].copy_from_slice(&data[row * TILE..(row + 1) * TILE]);
        }
    }

    /// Content hash of tile `(tx, ty)`, for equality tests between
    /// renders only (it never reaches an output; [`Framebuffer::digest`]
    /// is the stable content digest).
    ///
    /// Four pixels make one `u64` word, folded in with one
    /// rotate-xor-multiply step. Each step is a bijection of the state for
    /// a fixed word and of the word for a fixed state, so a change confined
    /// to one word — any single-bit change — always changes the hash. The
    /// rotate keeps a top-bit flip from passing through the multiply
    /// unmixed, where a second top-bit flip in a later word would cancel
    /// it.
    pub fn tile_hash(&self, tx: usize, ty: usize) -> u64 {
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        (0..TILE).fold(0, |h, row| {
            let src = (y0 + row) * self.width + x0;
            fold_tile_row(h, &self.pixels[src..src + TILE])
        })
    }

    /// Hashes of every tile, row-major.
    pub fn tile_hashes(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.tile_count());
        self.tile_hashes_into(&mut out);
        out
    }

    /// [`Framebuffer::tile_hashes`] into a caller-owned vector (cleared
    /// first), so a hot render loop can recycle the allocation.
    ///
    /// It walks the screen one pixel row at a time and folds each tile's
    /// share of the row into that tile's own state in `out`, so the tiles
    /// of a row are independent multiply chains rather than one serial
    /// chain. Each tile still folds the same words in the same order, so
    /// every hash equals [`Framebuffer::tile_hash`] bit for bit.
    pub fn tile_hashes_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.tile_count(), 0);
        let bands = self.pixels.chunks_exact(self.width * TILE);
        for (band, hashes) in bands.zip(out.chunks_exact_mut(self.tiles_x())) {
            for row in band.chunks_exact(self.width) {
                for (h, px) in hashes.iter_mut().zip(row.chunks_exact(TILE)) {
                    *h = fold_tile_row(*h, px);
                }
            }
        }
    }

    /// Indices (row-major) of tiles whose hash differs from `prev`
    /// (`prev.len()` must equal [`Framebuffer::tile_count`]).
    pub fn dirty_tiles(&self, prev: &[u64]) -> Vec<usize> {
        assert_eq!(prev.len(), self.tile_count(), "hash vector shape mismatch");
        self.tile_hashes()
            .iter()
            .enumerate()
            .filter(|(i, h)| prev[*i] != **h)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whole-screen content digest: FNV-1a over each pixel's two
    /// little-endian bytes, in order, folded straight from the pixels.
    pub fn digest(&self) -> u64 {
        self.pixels
            .iter()
            .fold(FNV1A_BASIS, |h, px| fnv1a_fold(h, &px.to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_sim::rng::fnv1a;
    use aroma_sim::SimRng;

    #[test]
    fn digest_is_fnv1a_over_the_little_endian_pixel_bytes() {
        let mut rng = SimRng::new(26);
        for (w, h) in [(16, 16), (48, 32), (320, 240), (640, 480)] {
            let mut fb = Framebuffer::new(w, h);
            for px in &mut fb.pixels {
                *px = rng.next_u64_raw() as u16;
            }
            let bytes: Vec<u8> = fb.pixels.iter().flat_map(|px| px.to_le_bytes()).collect();
            assert_eq!(fb.digest(), fnv1a(&bytes), "{w}×{h}");
        }
    }

    #[test]
    fn construction_and_geometry() {
        let fb = Framebuffer::new(640, 480);
        assert_eq!(fb.width(), 640);
        assert_eq!(fb.height(), 480);
        assert_eq!(fb.tiles_x(), 40);
        assert_eq!(fb.tiles_y(), 30);
        assert_eq!(fb.tile_count(), 1200);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn non_tile_multiple_rejected() {
        Framebuffer::new(641, 480);
    }

    #[test]
    fn pixel_round_trip() {
        let mut fb = Framebuffer::new(64, 32);
        fb.set(63, 31, 0xF800);
        assert_eq!(fb.get(63, 31), 0xF800);
        assert_eq!(fb.get(0, 0), 0);
    }

    #[test]
    fn fill_rect_clips() {
        let mut fb = Framebuffer::new(32, 32);
        fb.fill_rect(24, 24, 100, 100, 7);
        assert_eq!(fb.get(31, 31), 7);
        assert_eq!(fb.get(23, 23), 0);
    }

    #[test]
    fn tile_read_write_round_trip() {
        let mut fb = Framebuffer::new(64, 64);
        let data: Vec<u16> = (0..TILE * TILE).map(|i| i as u16).collect();
        fb.write_tile(2, 3, &data);
        let mut out = vec![0u16; TILE * TILE];
        fb.read_tile(2, 3, &mut out);
        assert_eq!(out, data);
        // Neighbouring tile untouched.
        fb.read_tile(1, 3, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    /// A `side`×`side` screen of varied pixels, so a flip is never masked
    /// by a uniform background.
    fn patterned(side: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(side, side);
        for y in 0..side {
            for x in 0..side {
                fb.set(
                    x,
                    y,
                    (x as u16).wrapping_mul(0x9E37) ^ (y as u16).wrapping_mul(0x7F4B),
                );
            }
        }
        fb
    }

    #[test]
    fn tile_hash_detects_single_pixel_change() {
        let mut fb = Framebuffer::new(64, 64);
        let before = fb.tile_hash(1, 1);
        fb.set(TILE + 5, TILE + 9, 1);
        assert_ne!(fb.tile_hash(1, 1), before);
        // Other tiles unaffected.
        assert_eq!(fb.tile_hash(0, 0), Framebuffer::new(64, 64).tile_hash(0, 0));
        // Every single-bit change anywhere in a tile changes its hash.
        let mut fb = patterned(32);
        let before = fb.tile_hash(1, 1);
        for y in TILE..2 * TILE {
            for x in TILE..2 * TILE {
                let px = fb.get(x, y);
                for bit in 0..16 {
                    fb.set(x, y, px ^ (1 << bit));
                    assert_ne!(fb.tile_hash(1, 1), before, "bit {bit} of ({x},{y})");
                }
                fb.set(x, y, px);
            }
        }
    }

    #[test]
    fn tile_hash_top_bit_flips_in_two_words_do_not_cancel() {
        // Bit 15 of a word's fourth pixel is the word's top bit: a plain
        // `(h ^ word) * K` hash carries its flip unchanged to every later
        // step, so a second such flip cancels it. Try every pair of words.
        let tops: Vec<(usize, usize)> = (0..TILE)
            .flat_map(|y| (3..TILE).step_by(4).map(move |x| (x, y)))
            .collect();
        for base in [Framebuffer::new(TILE, TILE), patterned(TILE)] {
            let before = base.tile_hash(0, 0);
            for (i, &(xa, ya)) in tops.iter().enumerate() {
                for &(xb, yb) in &tops[i + 1..] {
                    let mut fb = base.clone();
                    fb.set(xa, ya, fb.get(xa, ya) ^ 0x8000);
                    fb.set(xb, yb, fb.get(xb, yb) ^ 0x8000);
                    assert_ne!(fb.tile_hash(0, 0), before, "({xa},{ya}) + ({xb},{yb})");
                }
            }
        }
    }

    #[test]
    fn dirty_tiles_exactly_the_changed_ones() {
        let mut fb = Framebuffer::new(64, 64);
        let prev = fb.tile_hashes();
        fb.set(0, 0, 9); // tile 0
        fb.set(40, 40, 9); // tile (2,2) = index 2*4+2 = 10
        let dirty = fb.dirty_tiles(&prev);
        assert_eq!(dirty, vec![0, 10]);
    }

    #[test]
    fn clear_dirties_everything_once() {
        let mut fb = Framebuffer::new(64, 64);
        let prev = fb.tile_hashes();
        fb.clear(0xFFFF);
        assert_eq!(fb.dirty_tiles(&prev).len(), fb.tile_count());
        let now = fb.tile_hashes();
        assert!(fb.dirty_tiles(&now).is_empty());
    }

    #[test]
    fn digest_reflects_content() {
        let mut a = Framebuffer::new(32, 32);
        let b = Framebuffer::new(32, 32);
        assert_eq!(a.digest(), b.digest());
        a.set(5, 5, 1);
        assert_ne!(a.digest(), b.digest());
    }
}
