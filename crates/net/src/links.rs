//! The link budget: the path loss between every ordered pair of nodes.
//!
//! Carrier sense, receiver SINR and rate selection all ask what a listener
//! receives from a transmitter. Nodes rarely move, so a [`LinkTable`]
//! computes each link's path loss (distance, walls, the shadowing draw of
//! [`RadioEnvironment::path_loss_db`]) once per geometry, not once per
//! frame and listener:
//!
//! * An entry is exactly the `f64` that `path_loss_db(src.key(), src_pos,
//!   dst.key(), dst_pos)` returns, so [`LinkTable::received_dbm`] is bit for
//!   bit [`RadioEnvironment::received_dbm`].
//! * Entries fill at their first query, and a source's row is allocated at
//!   its first query, sized to the node count.
//! * [`LinkTable::move_node`] marks the moved node's row and column stale. A
//!   query that gives a node a position other than its current one (a frame
//!   sent before its sender moved), or names a node the table does not
//!   know, computes the loss directly and stores nothing.
//! * Pairs are ordered: transmit power differs per node, and nothing makes
//!   the wall-crossing test bitwise symmetric.
//!
//! The table also holds the environment's constants that the SINR and
//! carrier-sense arithmetic would otherwise recompute on every call: the
//! noise floor in mW and in dBm after the mW round trip, the dB weight of
//! each channel pair's spectral overlap, and the dB rise of `k` equal
//! powers over one, which [`LinkTable::sinr_bounds`] adds.

use crate::frame::NodeId;
use aroma_env::radio::{dbm_to_mw, mw_to_dbm, Channel, RadioEnvironment};
use aroma_env::space::Point;

/// Path loss by ordered node pair at the nodes' current positions, plus the
/// noise and channel-overlap constants of one radio environment.
#[derive(Debug)]
pub struct LinkTable {
    env: RadioEnvironment,
    /// Current position of every node, by id.
    pos: Vec<Point>,
    /// `rows[src][dst]`: path loss from `src` to `dst`, NaN until asked
    /// for. A row stays empty until its source's first query, and then has
    /// one entry per node.
    rows: Vec<Vec<f64>>,
    /// The noise floor, mW.
    noise_mw: f64,
    /// `mw_to_dbm(noise_mw)`: the SINR denominator when nothing interferes.
    noise_dbm: f64,
    /// `10·log10(overlap)` by (tuned, other) channel number minus one;
    /// `None` where the channels do not overlap.
    overlap_db: [[Option<f64>; 11]; 11],
    /// `10·log10(k + 1)` by interferer count `k`.
    count_db: [f64; BOUNDED_INTERFERERS],
    /// Test-only reference: compute every link directly, as if no entry
    /// were ever stored.
    #[cfg(test)]
    pub(crate) direct: bool,
}

impl LinkTable {
    /// A table for `env` with no nodes yet: until nodes are added, every
    /// query computes its loss directly.
    pub fn new(env: RadioEnvironment) -> Self {
        let noise_mw = dbm_to_mw(env.noise_floor_dbm());
        let mut overlap_db = [[None; 11]; 11];
        for (tuned, row) in (1..=11).zip(&mut overlap_db) {
            for (other, cell) in (1..=11).zip(row) {
                let overlap = Channel::new(tuned).overlap(Channel::new(other));
                *cell = (overlap > 0.0).then(|| 10.0 * overlap.log10());
            }
        }
        LinkTable {
            env,
            pos: Vec::new(),
            rows: Vec::new(),
            noise_mw,
            noise_dbm: mw_to_dbm(noise_mw),
            overlap_db,
            count_db: std::array::from_fn(|k| 10.0 * ((k + 1) as f64).log10()),
            #[cfg(test)]
            direct: false,
        }
    }

    /// Add the next node, at `pos`; returns its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        let id = NodeId(self.pos.len() as u32);
        self.pos.push(pos);
        for row in self.rows.iter_mut().filter(|row| !row.is_empty()) {
            row.push(f64::NAN);
        }
        self.rows.push(Vec::new());
        id
    }

    /// Current position of `node`.
    pub fn position(&self, node: NodeId) -> Point {
        self.pos[node.0 as usize]
    }

    /// Move `node` to `pos`: every link from or to it goes stale.
    pub fn move_node(&mut self, node: NodeId, pos: Point) {
        let i = node.0 as usize;
        self.pos[i] = pos;
        self.rows[i].fill(f64::NAN);
        for row in &mut self.rows {
            if let Some(entry) = row.get_mut(i) {
                *entry = f64::NAN;
            }
        }
    }

    /// Power (dBm) that `dst` at `dst_pos` receives from `src` transmitting
    /// `tx_dbm` at `src_pos`: bit for bit what
    /// [`RadioEnvironment::received_dbm`] returns for the same link.
    pub fn received_dbm(
        &mut self,
        tx_dbm: f64,
        src: NodeId,
        src_pos: Point,
        dst: NodeId,
        dst_pos: Point,
    ) -> f64 {
        tx_dbm - self.path_loss_db(src, src_pos, dst, dst_pos)
    }

    fn path_loss_db(&mut self, src: NodeId, src_pos: Point, dst: NodeId, dst_pos: Point) -> f64 {
        let direct =
            |env: &RadioEnvironment| env.path_loss_db(src.key(), src_pos, dst.key(), dst_pos);
        if !(self.is_at(src, src_pos) && self.is_at(dst, dst_pos)) {
            return direct(&self.env);
        }
        #[cfg(test)]
        if self.direct {
            return direct(&self.env);
        }
        let nodes = self.pos.len();
        let row = &mut self.rows[src.0 as usize];
        if row.is_empty() {
            row.resize(nodes, f64::NAN);
        }
        // A loss that is itself NaN is recomputed at every query, which
        // returns the same bits.
        let entry = &mut row[dst.0 as usize];
        if entry.is_nan() {
            *entry = direct(&self.env);
        }
        *entry
    }

    /// Is `node` in the table and standing at exactly `pos`, bit for bit?
    fn is_at(&self, node: NodeId, pos: Point) -> bool {
        self.pos
            .get(node.0 as usize)
            .is_some_and(|p| p.x.to_bits() == pos.x.to_bits() && p.y.to_bits() == pos.y.to_bits())
    }

    /// The environment's noise floor, ambient rise included, dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        self.env.noise_floor_dbm()
    }

    /// `10·log10` of the share of a transmission on `other` that leaks into
    /// a receiver tuned to `tuned` ([`Channel::overlap`]); `None` when the
    /// channels do not overlap.
    pub fn overlap_db(&self, tuned: Channel, other: Channel) -> Option<f64> {
        self.overlap_db[usize::from(tuned.number()) - 1][usize::from(other.number()) - 1]
    }

    /// SINR (dB) of a `signal_dbm` carrier over the noise floor plus
    /// `interference_mw`, the in-order sum of each interferer's
    /// [`interference_mw`] term: bit for bit what
    /// [`RadioEnvironment::sinr_db`] returns for those interferers.
    pub fn sinr_db(&self, signal_dbm: f64, interference_mw: f64) -> f64 {
        // `noise_mw + 0.0` is `noise_mw`, so a clean reception's
        // denominator is the stored constant.
        let noise_dbm = if interference_mw == 0.0 {
            self.noise_dbm
        } else {
            mw_to_dbm(self.noise_mw + interference_mw)
        };
        mw_to_dbm(dbm_to_mw(signal_dbm)) - noise_dbm
    }

    /// An interval `(lo, hi)` that holds [`LinkTable::sinr_db`] of a
    /// `signal_dbm` carrier over the sum of `interferers` terms of
    /// [`interference_mw`], the strongest received at `strongest_dbm` (−∞
    /// when there are none), with no dBm–mW conversion:
    ///
    /// * `hi = max(S, −300) − noise + ε`: the numerator
    ///   `mw_to_dbm(dbm_to_mw(S))` is `S` to within a few ulps while
    ///   `dbm_to_mw(S)` is a normal float, far below −300 while it is
    ///   subnormal, and −300 once it underflows to 0; the denominator
    ///   `mw_to_dbm(noise_mw + I)` is at least the noise floor for any
    ///   `I ≥ 0`.
    /// * `lo = S − (max(noise, P_max) + 10·log10(K + 1)) − ε`: each term is
    ///   at most its power in mW (its weight is at most 1), so
    ///   `noise_mw + I` is at most `K + 1` times the larger of the noise
    ///   and the strongest interferer. It is −∞ from 64 interferers up
    ///   and for signals under −300 dBm.
    ///
    /// The slack `ε` covers the ulp-level error of `powf`, `log10` and the
    /// sums many times over. A NaN signal or interferer (whose SINR is NaN)
    /// and powers from 3,000 dBm up (where `dbm_to_mw` nears overflow) give
    /// `(−∞, ∞)`.
    pub fn sinr_bounds(
        &self,
        signal_dbm: f64,
        interferers: usize,
        strongest_dbm: f64,
    ) -> (f64, f64) {
        // True for a NaN too, which `f64::max` below would drop.
        if !(signal_dbm < CEILING_DBM && strongest_dbm < CEILING_DBM) {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let hi = signal_dbm.max(FLOOR_DBM) - self.noise_dbm + BOUND_SLACK_DB;
        let lo = match self.count_db.get(interferers) {
            Some(&rise) if signal_dbm >= FLOOR_DBM => {
                signal_dbm - (self.noise_dbm.max(strongest_dbm) + rise) - BOUND_SLACK_DB
            }
            _ => f64::NEG_INFINITY,
        };
        (lo, hi)
    }
}

/// Interferer counts below this get a finite lower bound from
/// [`LinkTable::sinr_bounds`].
const BOUNDED_INTERFERERS: usize = 64;

/// Slack (dB) on each of [`LinkTable::sinr_bounds`]' bounds.
const BOUND_SLACK_DB: f64 = 1e-6;

/// `mw_to_dbm`'s floor: what a power of 0 mW reads.
const FLOOR_DBM: f64 = -300.0;

/// Powers from here up are left unbounded: `dbm_to_mw` overflows past
/// about 3,082 dBm, and the bounds' sums must not.
const CEILING_DBM: f64 = 3_000.0;

/// One interferer's term of the SINR denominator, mW: its power at the
/// receiver weighted by its (spectral × time) overlap, the way
/// [`RadioEnvironment::sinr_db`] weighs it.
pub fn interference_mw(p_dbm: f64, overlap: f64) -> f64 {
    dbm_to_mw(p_dbm) * overlap.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_env::space::{Material, Wall};
    use proptest::prelude::*;

    const MATERIALS: [Material; 5] = [
        Material::Drywall,
        Material::Glass,
        Material::Brick,
        Material::Concrete,
        Material::Metal,
    ];

    fn bits_eq(table: f64, direct: f64) -> bool {
        table.to_bits() == direct.to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random worlds (2–24 nodes, some sharing a position, σ of 0
        /// or 4 dB, 0–3 walls) and random moves and queries, every answer
        /// is the direct computation's, bit for bit: at current positions,
        /// at a source's old position (a frame sent before its sender
        /// moved), and for ids the table does not know.
        #[test]
        fn table_answers_what_the_environment_computes(
            nodes in prop::collection::vec((0.0f64..40.0, 0.0f64..20.0, 0u8..4), 2..25),
            shadowed in any::<bool>(),
            walls in prop::collection::vec(
                (0.0f64..40.0, 0.0f64..20.0, 0.0f64..40.0, 0.0f64..20.0, 0usize..5),
                0..4,
            ),
            ops in prop::collection::vec(
                (0u8..8, 0u32..26, 0u32..26, 0.0f64..40.0, 0.0f64..20.0, -5.0f64..25.0),
                1..200,
            ),
        ) {
            let env = RadioEnvironment {
                shadowing_sigma_db: if shadowed { 4.0 } else { 0.0 },
                walls: walls
                    .iter()
                    .map(|&(ax, ay, bx, by, m)| {
                        Wall::new(Point::new(ax, ay), Point::new(bx, by), MATERIALS[m])
                    })
                    .collect(),
                ..RadioEnvironment::default()
            };
            let mut table = LinkTable::new(env.clone());
            // A quarter of the nodes start on top of the first one.
            let start: Vec<Point> = nodes
                .iter()
                .map(|&(x, y, k)| if k == 0 { Point::new(nodes[0].0, nodes[0].1) } else { Point::new(x, y) })
                .collect();
            for (i, &p) in start.iter().enumerate() {
                prop_assert_eq!(table.add_node(p), NodeId(i as u32));
            }
            let n = start.len() as u32;
            let (mut now, mut old) = (start.clone(), start);
            for (kind, a, b, x, y, tx_dbm) in ops {
                let (src, dst) = (NodeId(a % n), NodeId(b % n));
                match kind {
                    // Move to a fresh point or onto another node.
                    0 | 1 => {
                        let to = if kind == 0 { Point::new(x, y) } else { now[dst.0 as usize] };
                        old[src.0 as usize] = now[src.0 as usize];
                        now[src.0 as usize] = to;
                        table.move_node(src, to);
                    }
                    // A frame sent from the source's old position.
                    2 => {
                        let (sp, dp) = (old[src.0 as usize], now[dst.0 as usize]);
                        let want = env.received_dbm(tx_dbm, src.key(), sp, dst.key(), dp);
                        prop_assert!(bits_eq(table.received_dbm(tx_dbm, src, sp, dst, dp), want));
                    }
                    // Ids past the table's nodes.
                    3 => {
                        let (far, p) = (NodeId(n + a % 2), Point::new(x, y));
                        let dp = now[dst.0 as usize];
                        let want = env.received_dbm(tx_dbm, far.key(), p, dst.key(), dp);
                        prop_assert!(bits_eq(table.received_dbm(tx_dbm, far, p, dst, dp), want));
                        let want = env.received_dbm(tx_dbm, dst.key(), dp, far.key(), p);
                        prop_assert!(bits_eq(table.received_dbm(tx_dbm, dst, dp, far, p), want));
                    }
                    // Current positions, asked twice: filled, then stored.
                    _ => {
                        let (sp, dp) = (now[src.0 as usize], now[dst.0 as usize]);
                        let want = env.received_dbm(tx_dbm, src.key(), sp, dst.key(), dp);
                        prop_assert!(bits_eq(table.received_dbm(tx_dbm, src, sp, dst, dp), want));
                        prop_assert!(bits_eq(table.received_dbm(tx_dbm, src, sp, dst, dp), want));
                    }
                }
            }
        }

        /// The stored noise terms give `RadioEnvironment::sinr_db`'s bits
        /// for random signals and interferer lists (the empty list, and
        /// interferers that overlap nothing, included).
        #[test]
        fn sinr_matches_the_environment(
            signal in -120.0f64..20.0,
            rise in 0.0f64..15.0,
            interferers in prop::collection::vec(
                (-130.0f64..0.0, prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]),
                0..6,
            ),
        ) {
            let env = RadioEnvironment {
                ambient_noise_rise_db: rise,
                ..RadioEnvironment::default()
            };
            let table = LinkTable::new(env.clone());
            let mut sum = 0.0;
            for &(p_dbm, overlap) in &interferers {
                sum += interference_mw(p_dbm, overlap);
            }
            prop_assert!(bits_eq(table.sinr_db(signal, sum), env.sinr_db(signal, &interferers)));
            prop_assert!(bits_eq(table.sinr_db(signal, 0.0), env.sinr_db(signal, &[])));
        }
    }

    #[test]
    fn overlap_db_is_the_log_of_every_channel_pairs_overlap() {
        let table = LinkTable::new(RadioEnvironment::default());
        for a in 1..=11 {
            for b in 1..=11 {
                let (a, b) = (Channel::new(a), Channel::new(b));
                let overlap = a.overlap(b);
                match table.overlap_db(a, b) {
                    Some(db) => {
                        assert!(overlap > 0.0, "{a:?}/{b:?}");
                        assert!(bits_eq(db, 10.0 * overlap.log10()), "{a:?}/{b:?}");
                    }
                    None => assert!(overlap <= 0.0, "{a:?}/{b:?}"),
                }
            }
        }
    }

    #[test]
    fn rows_fill_lazily_and_moves_mark_row_and_column_stale() {
        let mut table = LinkTable::new(RadioEnvironment::default());
        let (a, b, c) = (
            table.add_node(Point::new(0.0, 0.0)),
            table.add_node(Point::new(5.0, 0.0)),
            table.add_node(Point::new(9.0, 3.0)),
        );
        assert!(
            table.rows.iter().all(Vec::is_empty),
            "nothing filled before a query"
        );
        table.received_dbm(15.0, a, table.position(a), b, table.position(b));
        assert_eq!(table.rows[0].len(), 3);
        assert!(table.rows[1].is_empty() && table.rows[2].is_empty());
        assert_eq!(table.rows[0].iter().filter(|e| !e.is_nan()).count(), 1);
        table.received_dbm(15.0, c, table.position(c), a, table.position(a));
        // Moving `a` clears its row and its column in every other row.
        table.move_node(a, Point::new(1.0, 1.0));
        assert!(table.rows[0].iter().all(|e| e.is_nan()));
        assert!(table.rows[2].iter().all(|e| e.is_nan()));
        // A node added after a row exists extends that row.
        table.add_node(Point::new(2.0, 2.0));
        assert_eq!(table.rows[0].len(), 4);
        assert!(table.rows[3].is_empty());
    }
}
