//! DSSS physical layer: rates, airtime, error model, rate selection.
//!
//! Models the 802.11b PHY the Aroma Adapter's PCMCIA card would have used:
//! four rates with long-preamble framing. Absolute error-rate values are a
//! smooth approximation (the experiments depend on the *shape*: monotone in
//! SINR, worse for longer frames, stepwise-better for lower rates), and the
//! numbers are chosen so sensitivities land near datasheet values
//! (−94…−85 dBm over a −101 dBm noise floor).
//!
//! A reception's loss is decided by one uniform draw against
//! [`packet_error_rate`]. Most draws are settled without it:
//! [`loss_from_bounds`] answers from an interval on the SINR (the
//! medium's `sinr_bounds`) whenever every SINR in the interval gives the
//! same answer — a margin below zero always loses, and a draw at or above
//! `per_max` of the interval's least margin always survives — and the
//! exact computation runs only when it cannot.

use aroma_sim::SimDuration;

/// PLCP long preamble + header airtime (always sent at 1 Mbit/s).
pub const PREAMBLE: SimDuration = SimDuration::from_micros(192);

/// Carrier-sense / energy-detect threshold at the antenna, dBm.
pub const CS_THRESHOLD_DBM: f64 = -82.0;

/// A DSSS transmit rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rate {
    /// 1 Mbit/s DBPSK.
    R1,
    /// 2 Mbit/s DQPSK.
    R2,
    /// 5.5 Mbit/s CCK.
    R5_5,
    /// 11 Mbit/s CCK.
    R11,
}

impl Rate {
    /// All rates, slowest first.
    pub const ALL: [Rate; 4] = [Rate::R1, Rate::R2, Rate::R5_5, Rate::R11];

    /// Bits per second.
    pub fn bps(self) -> u64 {
        match self {
            Rate::R1 => 1_000_000,
            Rate::R2 => 2_000_000,
            Rate::R5_5 => 5_500_000,
            Rate::R11 => 11_000_000,
        }
    }

    /// Minimum SINR for usable reception at this rate, dB.
    pub fn sinr_threshold_db(self) -> f64 {
        match self {
            Rate::R1 => 4.0,
            Rate::R2 => 6.0,
            Rate::R5_5 => 8.0,
            Rate::R11 => 11.0,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Rate::R1 => "1Mbps",
            Rate::R2 => "2Mbps",
            Rate::R5_5 => "5.5Mbps",
            Rate::R11 => "11Mbps",
        }
    }
}

/// Rate-control policy for a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateAdaptation {
    /// Pick the fastest rate whose threshold (plus a 3 dB margin) the
    /// link's mean SNR clears; fall back to 1 Mbit/s.
    SnrBased,
    /// Always use one rate (the ablation arm: shows why adaptation matters).
    Fixed(Rate),
}

impl RateAdaptation {
    /// Choose the transmit rate for a link with the given mean SNR.
    pub fn select(self, snr_db: f64) -> Rate {
        match self {
            RateAdaptation::Fixed(r) => r,
            RateAdaptation::SnrBased => {
                const MARGIN_DB: f64 = 3.0;
                Rate::ALL
                    .iter()
                    .rev()
                    .copied()
                    .find(|r| snr_db >= r.sinr_threshold_db() + MARGIN_DB)
                    .unwrap_or(Rate::R1)
            }
        }
    }
}

/// Airtime of a frame: preamble plus body at the data rate.
pub fn airtime(wire_bits: u64, rate: Rate) -> SimDuration {
    PREAMBLE + SimDuration::for_bits(wire_bits, rate.bps())
}

/// Packet error rate for a frame of `bits` received at `sinr_db` on `rate`.
///
/// Below the rate's threshold reception always fails. Above it, a per-bit
/// error probability decays a decade per 5 dB of margin from 10⁻⁵ at the
/// threshold, and the frame succeeds only if every bit does — the standard
/// independent-bit-error composition, giving longer frames visibly higher
/// loss near the edge.
pub fn packet_error_rate(rate: Rate, sinr_db: f64, bits: u64) -> f64 {
    let margin = sinr_db - rate.sinr_threshold_db();
    if margin < 0.0 {
        return 1.0;
    }
    let p_bit = 1e-5 * 10f64.powf(-margin / 5.0);
    let p_ok = (1.0 - p_bit).powf(bits as f64);
    1.0 - p_ok
}

/// `10⁻⁵·10⁻ʲ`: the per-bit error probability [`packet_error_rate`] takes
/// at a margin of `5·j` dB, and so at least at any wider margin. Past the
/// table's end its last entry still bounds it.
const P_BIT_AT: [f64; 16] = [
    1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17, 1e-18,
    1e-19, 1e-20,
];

/// Relative slack on [`P_BIT_AT`]: it covers the rounding of each literal,
/// of `⌊m/5⌋`, and of `packet_error_rate`'s `-margin / 5.0`, `powf` and
/// product, all a few ulps at the margins the table covers.
const P_BIT_SLACK: f64 = 1.0 + 1e-9;

/// An upper bound on what [`packet_error_rate`] returns for a frame of
/// `bits` at any margin of at least `margin_db ≥ 0` over the rate's
/// threshold:
///
/// * the per-bit error probability is at most `p = 10⁻⁵·10^(−⌊m/5⌋)`;
/// * the frame's is at most `n·p` for `n` bits, by Bernoulli's inequality
///   `(1 − p)ⁿ ≥ 1 − n·p`;
/// * plus `n·2⁻⁵² + 2⁻⁵⁰` for rounding: `1.0 − p_bit` is off by up to
///   2⁻⁵⁴ (below about 2⁻⁵³ it rounds to a neighbour of 1, where the
///   computed loss reads about `n·2⁻⁵³` however small `n·p` is), and
///   `powf` and the final subtraction by a few ulps more.
fn per_max(margin_db: f64, bits: u64) -> f64 {
    // The cast saturates: an infinite margin reads the table's last entry.
    let j = ((margin_db / 5.0) as usize).min(P_BIT_AT.len() - 1);
    bits as f64 * (P_BIT_AT[j] * P_BIT_SLACK + f64::EPSILON) + 4.0 * f64::EPSILON
}

/// Is a frame of `bits` on `rate` lost, given an interval `[lo, hi]` that
/// holds its SINR and the uniform draw `u` that decides it? The answer is
/// `u < packet_error_rate(rate, sinr, bits).clamp(0.0, 1.0)` — what
/// `SimRng::chance` decides with the same draw — for every SINR in the
/// interval, or `None` when the interval leaves it open:
///
/// * `hi` under the rate's threshold: the margin is negative, the loss
///   probability 1.0;
/// * `lo` at or over it, and `u` at or over `per_max` of `lo`'s margin:
///   the frame survives.
pub fn loss_from_bounds(rate: Rate, lo: f64, hi: f64, bits: u64, u: f64) -> Option<bool> {
    let threshold = rate.sinr_threshold_db();
    if hi < threshold {
        Some(u < 1.0)
    } else if lo >= threshold && u >= per_max(lo - threshold, bits) {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_ordered() {
        for w in Rate::ALL.windows(2) {
            assert!(w[0].bps() < w[1].bps());
            assert!(w[0].sinr_threshold_db() < w[1].sinr_threshold_db());
        }
    }

    #[test]
    fn airtime_includes_preamble() {
        let t = airtime(0, Rate::R11);
        assert_eq!(t, PREAMBLE);
        let t2 = airtime(8 * 1500, Rate::R1);
        assert!(t2 > SimDuration::from_millis(12)); // 12 ms body + preamble
    }

    #[test]
    fn airtime_faster_at_higher_rates() {
        let bits = 8 * 1000;
        assert!(airtime(bits, Rate::R11) < airtime(bits, Rate::R2));
    }

    #[test]
    fn per_below_threshold_is_certain_loss() {
        assert_eq!(packet_error_rate(Rate::R11, 10.9, 8000), 1.0);
        assert_eq!(packet_error_rate(Rate::R1, -20.0, 8000), 1.0);
    }

    #[test]
    fn per_decays_with_margin() {
        let bits = 8 * 1500;
        let edge = packet_error_rate(Rate::R11, 11.0, bits);
        let mid = packet_error_rate(Rate::R11, 16.0, bits);
        let good = packet_error_rate(Rate::R11, 26.0, bits);
        assert!(edge > mid && mid > good);
        assert!(edge > 0.05, "edge PER should be noticeable: {edge}");
        assert!(good < 0.01, "comfortable margin should be clean: {good}");
    }

    #[test]
    fn per_grows_with_frame_length() {
        let short = packet_error_rate(Rate::R2, 8.0, 8 * 100);
        let long = packet_error_rate(Rate::R2, 8.0, 8 * 1500);
        assert!(long > short);
    }

    #[test]
    fn per_is_a_probability() {
        for rate in Rate::ALL {
            for sinr in [-10.0, 0.0, 5.0, 12.0, 30.0, 80.0] {
                let p = packet_error_rate(rate, sinr, 12_000);
                assert!((0.0..=1.0).contains(&p), "{rate:?} {sinr} -> {p}");
            }
        }
    }

    #[test]
    fn snr_based_selection_is_monotone() {
        let mut prev = Rate::R1;
        for snr in 0..40 {
            let r = RateAdaptation::SnrBased.select(snr as f64);
            assert!(r >= prev, "rate selection regressed at {snr} dB");
            prev = r;
        }
        assert_eq!(RateAdaptation::SnrBased.select(40.0), Rate::R11);
        assert_eq!(RateAdaptation::SnrBased.select(0.0), Rate::R1);
    }

    #[test]
    fn fixed_rate_ignores_snr() {
        assert_eq!(RateAdaptation::Fixed(Rate::R2).select(40.0), Rate::R2);
        assert_eq!(RateAdaptation::Fixed(Rate::R2).select(-10.0), Rate::R2);
    }

    #[test]
    fn selection_honours_margin() {
        // 11 Mbps needs 11 + 3 = 14 dB.
        assert_eq!(RateAdaptation::SnrBased.select(13.9), Rate::R5_5);
        assert_eq!(RateAdaptation::SnrBased.select(14.0), Rate::R11);
    }

    /// The decision `SimRng::chance(per)` makes with the draw `u`.
    fn exact_loss(rate: Rate, sinr: f64, bits: u64, u: f64) -> bool {
        u < packet_error_rate(rate, sinr, bits).clamp(0.0, 1.0)
    }

    /// Frame sizes from an ACK's bits to an MTU data frame's.
    fn frame_bits() -> impl Strategy<Value = u64> {
        use crate::frame::{ACK_BYTES, MAC_OVERHEAD_BYTES, MTU_BYTES};
        let (ack, mtu) = (
            ACK_BYTES as u64 * 8,
            (MTU_BYTES + MAC_OVERHEAD_BYTES) as u64 * 8,
        );
        prop_oneof![Just(ack), Just(mtu), ack..=mtu]
    }

    /// Draws to try against a loss probability: uniform ones, 0, and one
    /// ulp either side of the exact `per` and of the bound's `per_max`.
    fn draws(uniform: f64, per: f64, bound: f64) -> impl Iterator<Item = f64> {
        [
            uniform,
            0.0,
            per.next_down(),
            per,
            per.next_up(),
            bound.next_down(),
            bound,
            bound.next_up(),
        ]
        .into_iter()
        .filter(|u| (0.0..1.0).contains(u))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whenever `loss_from_bounds` answers, it answers what the exact
        /// PER gives every SINR in the interval (both ends, the middle and
        /// a random point): every rate, ACK to MTU frames, intervals from
        /// a point to 20 dB wide, margins at 0, below it, and around
        /// 50–62 dB, where `1 − p_bit` rounds to a neighbour of 1.
        #[test]
        fn bounded_loss_is_every_exact_decision_in_the_interval(
            rate in 0usize..4,
            bits in frame_bits(),
            margin in prop_oneof![Just(0.0), -1e-9..1e-9, -3.0..3.0, 0.0..100.0, 50.0..62.0, -40.0..0.0],
            below in prop_oneof![Just(0.0), 0.0..1e-6, 0.0..20.0],
            above in prop_oneof![Just(0.0), 0.0..1e-6, 0.0..20.0],
            at in 0.0f64..=1.0,
            uniform in 0.0f64..1.0,
        ) {
            let rate = Rate::ALL[rate];
            let threshold = rate.sinr_threshold_db();
            let (lo, hi) = (threshold + margin - below, threshold + margin + above);
            let bound = per_max(lo - threshold, bits);
            for sinr in [lo, hi, (lo + hi) / 2.0, lo + (hi - lo) * at] {
                let per = packet_error_rate(rate, sinr, bits);
                for u in draws(uniform, per, bound) {
                    if let Some(lost) = loss_from_bounds(rate, lo, hi, bits, u) {
                        prop_assert_eq!(
                            lost,
                            exact_loss(rate, sinr, bits, u),
                            "rate {:?}, bits {}, [{}, {}] at {}, u {}",
                            rate, bits, lo, hi, sinr, u
                        );
                    }
                }
            }
        }

        /// `LinkTable::sinr_bounds` holds `LinkTable::sinr_db`, and the
        /// draw it settles is the exact one, for signals in and far out of
        /// the usual range (at and below the −300 dBm floor, ±∞, NaN), for
        /// interferers likewise, and for counts past the bounded table.
        #[test]
        fn link_table_bounds_hold_the_sinr_and_settle_it_exactly(
            signal in prop_oneof![
                -130.0f64..20.0,
                -130.0f64..20.0,
                -130.0f64..20.0,
                prop_oneof![
                    Just(-300.0), -400.0f64..-300.0, -3500.0f64..-3000.0,
                    Just(f64::NEG_INFINITY), Just(f64::INFINITY), Just(f64::NAN),
                ],
            ],
            interferers in prop_oneof![
                prop::collection::vec(interferer(), 0..8),
                prop::collection::vec(interferer(), 60..70),
            ],
            rise in 0.0f64..15.0,
            rate in 0usize..4,
            bits in frame_bits(),
            uniform in 0.0f64..1.0,
        ) {
            use crate::links::{interference_mw, LinkTable};
            use aroma_env::radio::RadioEnvironment;
            let table = LinkTable::new(RadioEnvironment {
                ambient_noise_rise_db: rise,
                ..RadioEnvironment::default()
            });
            let (mut sum, mut strongest) = (0.0, f64::NEG_INFINITY);
            for &(p_dbm, overlap) in &interferers {
                sum += interference_mw(p_dbm, overlap);
                if p_dbm > strongest || p_dbm.is_nan() {
                    strongest = p_dbm;
                }
            }
            let sinr = table.sinr_db(signal, sum);
            let (lo, hi) = table.sinr_bounds(signal, interferers.len(), strongest);
            if sinr.is_nan() {
                prop_assert_eq!((lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
            } else {
                prop_assert!(lo <= sinr && sinr <= hi, "{} <= {} <= {}", lo, sinr, hi);
            }
            let rate = Rate::ALL[rate];
            let per = packet_error_rate(rate, sinr, bits);
            let bound = per_max(lo - rate.sinr_threshold_db(), bits);
            for u in draws(uniform, per, bound) {
                if let Some(lost) = loss_from_bounds(rate, lo, hi, bits, u) {
                    prop_assert_eq!(lost, exact_loss(rate, sinr, bits, u), "sinr {} in [{}, {}], u {}", sinr, lo, hi, u);
                }
            }
        }
    }

    /// An interferer's received power (usual, far below the floor, ±∞ or
    /// NaN) and its weight in `[0, 1]`.
    fn interferer() -> impl Strategy<Value = (f64, f64)> {
        let power = prop_oneof![
            -130.0f64..0.0,
            -130.0f64..0.0,
            -130.0f64..0.0,
            -130.0f64..0.0,
            -130.0f64..0.0,
            -130.0f64..0.0,
            -130.0f64..0.0,
            prop_oneof![
                -400.0f64..-300.0,
                Just(f64::NEG_INFINITY),
                Just(f64::INFINITY),
                Just(f64::NAN),
            ],
        ];
        (power, prop_oneof![Just(1.0), 0.0f64..=1.0])
    }

    #[test]
    fn bounds_settle_clear_links_and_leave_the_edge_open() {
        let bits = 8 * 1500;
        // Far under the threshold: lost whatever the draw.
        assert_eq!(
            loss_from_bounds(Rate::R11, -20.0, 5.0, bits, 0.999),
            Some(true)
        );
        // 30 dB over it: survives any draw over the bound.
        assert_eq!(
            loss_from_bounds(Rate::R11, 41.0, 60.0, bits, 0.5),
            Some(false)
        );
        assert_eq!(loss_from_bounds(Rate::R11, 41.0, 60.0, bits, 1e-12), None);
        // An interval across the threshold settles nothing.
        assert_eq!(loss_from_bounds(Rate::R11, 10.0, 12.0, bits, 0.5), None);
        // The bound decreases with the margin and grows with the frame.
        assert!(per_max(10.0, bits) < per_max(0.0, bits));
        assert!(per_max(10.0, 112) < per_max(10.0, bits));
        assert_eq!(per_max(f64::INFINITY, bits), per_max(1e6, bits));
    }
}
