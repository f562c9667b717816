//! Small numeric helpers: seeds, order statistics, digests, memory.

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples. Repeating
/// the sample set any number of times leaves the result unchanged.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ratio that reads 0 when the base is 0 (the report prints the base).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Digest of a pass's simulated outputs: their little-endian words, hashed
/// with the program's FNV-1a.
#[derive(Clone, Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0.extend_from_slice(&w.to_le_bytes());
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    pub fn value(&self) -> u64 {
        aroma_sim::rng::fnv1a(&self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_invariant_under_repetition() {
        let xs = [0.3, 0.1, 0.9, 0.5, 0.7];
        let rep: Vec<f64> = xs.iter().cycle().take(xs.len() * 4).copied().collect();
        for p in [10.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&xs, p), percentile(&rep, p));
        }
        assert_eq!(percentile(&xs, 50.0), 0.5);
        assert_eq!(percentile(&xs, 90.0), 0.9);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
    }
}
