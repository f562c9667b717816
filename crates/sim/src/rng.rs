//! Deterministic random streams.
//!
//! Every stochastic element of the reproduction (shadowing, backoff jitter,
//! user think time, workload content) draws from a [`SimRng`]. The generator
//! is a self-contained SplitMix64 core — chosen because its output is fully
//! specified by the algorithm, so runs are reproducible across `rand` crate
//! versions and platforms — wrapped with the handful of distributions the
//! substrates need.
//!
//! Streams are *forkable*: [`SimRng::fork`] derives an independent child
//! stream from a label, which lets a simulation hand uncorrelated randomness
//! to each node/user without threading a single generator through every
//! call site (and keeps results stable when components are added).

use rand::RngCore;

/// SplitMix64-based deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    /// Cached second normal deviate from Box–Muller.
    spare_normal: Option<f64>,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a stream from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: mix64(seed ^ GOLDEN_GAMMA),
            spare_normal: None,
        }
    }

    /// Derive an independent child stream from a label.
    ///
    /// Children with distinct labels are uncorrelated with each other and
    /// with the parent; forking does not perturb the parent's sequence.
    pub fn fork(&self, label: u64) -> SimRng {
        SimRng::new(mix64(self.state ^ label.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Derive a child stream from a string label (stable FNV-1a hash).
    pub fn fork_named(&self, label: &str) -> SimRng {
        self.fork(fnv1a(label.as_bytes()))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Panics if `lo > hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range: lo > hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's rejection method (unbiased).
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire: multiply-shift with rejection of the biased low zone.
        let mut x = self.next_u64_raw();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64_raw();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "int_range: lo > hi");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal deviate (Box–Muller, with caching of the pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential deviate with the given mean (`mean > 0`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.uniform(); // (0, 1]
        -mean * u.ln()
    }

    /// Log-normal deviate given the mean and std-dev of the underlying
    /// normal (the standard parameterisation for RF shadowing in dB).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element (`None` for an empty slice).
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// Pick an index according to non-negative weights (`None` if all zero
    /// or the slice is empty).
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                if x < w {
                    return Some(i);
                }
                x -= w;
            }
        }
        // Floating-point slack: return the last positive-weight index.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Stable 64-bit FNV-1a hash (used for string-labelled forks and for tile
/// digests in `aroma-vnc`; kept here so the constants live in one place).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_BASIS, bytes)
}

/// FNV-1a's offset basis: the hash of no bytes.
pub const FNV1A_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Continue the FNV-1a state `h` over `bytes`: folding a byte string piece
/// by piece from [`FNV1A_BASIS`] gives what [`fnv1a`] gives for the whole.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64_raw().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64_raw() == b.next_u64_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork(3);
        let mut parent2 = SimRng::new(7);
        parent2.next_u64_raw(); // consuming the parent...
        let mut c2 = SimRng::new(7).fork(3);
        assert_eq!(c1.next_u64_raw(), c2.next_u64_raw());
    }

    #[test]
    fn forks_with_distinct_labels_differ() {
        let parent = SimRng::new(7);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.next_u64_raw(), b.next_u64_raw());
        let mut c = parent.fork_named("node-0");
        let mut d = parent.fork_named("node-1");
        assert_ne!(c.next_u64_raw(), d.next_u64_raw());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn int_range_inclusive_bounds() {
        let mut r = SimRng::new(17);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.int_range(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(19);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(23);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
        // Exponential deviates are non-negative by construction.
        assert!((0..1000).all(|_| r.exponential(1.0) >= 0.0));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(29);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        // Out-of-range probabilities clamp instead of misbehaving.
        assert!((0..100).all(|_| r.chance(2.0)));
        assert!((0..100).all(|_| !r.chance(-1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(31);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements unshuffled");
    }

    #[test]
    fn choose_weighted_respects_zero_weights() {
        let mut r = SimRng::new(37);
        for _ in 0..500 {
            let i = r.choose_weighted(&[0.0, 1.0, 0.0]).unwrap();
            assert_eq!(i, 1);
        }
        assert_eq!(r.choose_weighted(&[0.0, 0.0]), None);
        assert_eq!(r.choose_weighted(&[]), None);
    }

    #[test]
    fn choose_weighted_tracks_ratios() {
        let mut r = SimRng::new(41);
        let mut counts = [0u32; 2];
        for _ in 0..30_000 {
            counts[r.choose_weighted(&[1.0, 3.0]).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = SimRng::new(43);
        assert_eq!(r.choose::<u32>(&[]), None);
        assert_eq!(r.choose(&[5]), Some(&5));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned value: changing the hash silently would re-randomise every
        // named fork in the workspace.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn rngcore_fill_bytes_fills_every_byte_window() {
        let mut r = SimRng::new(47);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // With 13 random bytes the chance all are zero is negligible.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
