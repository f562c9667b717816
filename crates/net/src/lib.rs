//! # aroma-net — event-driven 2.4 GHz wireless LAN simulator
//!
//! The Aroma Adapter "communicates via a 2.4 GHz wireless LAN PCMCIA card",
//! and two of the paper's layer analyses hinge on that link's behaviour: the
//! physical layer's *"relatively low bandwidth of current wireless
//! networking adapters … prevents us from displaying rapid animation"* (E1)
//! and the environment layer's concern about *"a high concentration of
//! [2.4 GHz] devices"* (E2). This crate is the substitute for that hardware:
//! an 802.11b-flavoured MAC/PHY simulator faithful to the mechanisms those
//! observations depend on —
//!
//! * **PHY** ([`phy`]) — DSSS rate set (1 / 2 / 5.5 / 11 Mbit/s), SINR
//!   thresholds, long-preamble overhead, a smooth SINR→packet-error-rate
//!   model, and SNR-based rate selection (with a fixed-rate ablation arm).
//! * **MAC** ([`mac`]) — CSMA/CA: DIFS deference, slotted binary-exponential
//!   backoff with freezing, SIFS-spaced ACKs, retry limit, duplicate
//!   detection. Broadcasts are unacknowledged single-shot, as in the
//!   standard.
//! * **Medium** ([`medium`]) — tracks concurrent transmissions; carrier
//!   sense and receiver SINR both derive from `aroma-env` propagation
//!   (path loss, walls, shadowing, channel overlap), so hidden terminals and
//!   adjacent-channel leakage emerge rather than being scripted.
//! * **Links** ([`links`]) — the link budget: each ordered node pair's path
//!   loss, computed at its first query and kept until either end moves, so
//!   carrier sense, SINR and rate selection read it instead of recomputing
//!   the propagation physics per frame and listener.
//! * **Network** ([`network`]) — the event loop tying it together, plus the
//!   [`NetApp`] trait and [`NetCtx`] handle through which the higher
//!   substrates (discovery, VNC, the Smart Projector) implement protocols.
//! * **Traffic** ([`traffic`]) — reusable source/sink/echo applications for
//!   load generation and tests.
//! * **Wire** ([`wire`]) — the one reader and length-prefix writer that
//!   every protocol above the MAC (discovery, replication, VNC, projector
//!   control) frames its messages with.
//!
//! Everything is deterministic given the network seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod links;
pub mod mac;
pub mod medium;
pub mod mobility;
pub mod network;
pub mod phy;
pub mod traffic;
pub mod wire;

pub use frame::{Address, Frame, FrameKind, NodeId, MTU_BYTES};
pub use mac::MacConfig;
pub use mobility::MobilityPath;
pub use network::{FaultStats, NetApp, NetCtx, NetStats, Network, NodeConfig};
pub use phy::{Rate, RateAdaptation};
