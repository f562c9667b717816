//! # aroma-discovery — Jini-style service discovery
//!
//! The Smart Projector's services are found through Jini: *"the ability to
//! automatically discover the projector service is implemented using Jini
//! and relies on having a Jini lookup service present"* — a resource-layer
//! dependency the paper explicitly flags as fragile outside the laboratory.
//! This crate is the substitute substrate: the same protocol roles
//! (multicast discovery of a **lookup service**, attribute-matched
//! registration with **leases**, client **lookup**, and **remote events**
//! notifying interested parties of registrations and expirations), running
//! over the simulated WLAN of `aroma-net`.
//!
//! * [`registry`] — the lookup service's pure state machine: registrations,
//!   lease grant/renew/expiry, template matching, event subscriptions.
//!   Separated from I/O so its invariants are directly unit- and
//!   property-testable.
//! * [`codec`] — the binary wire format (length-prefixed, MTU-aware).
//! * [`proxy`] — the mobile-code gate: service-item proxy bytes claiming
//!   to be `aroma-mcode` programs must pass the static verifier under the
//!   client's syscall policy before they can ever run.
//! * [`apps`] — the three network roles as [`aroma_net::NetApp`]s:
//!   [`apps::RegistrarApp`] (the lookup service), [`apps::ProviderApp`]
//!   (registers a service and keeps its lease alive; re-discovers after a
//!   registrar crash), [`apps::ClientApp`] (discovers, looks up, measures
//!   time-to-service — the E3 metric).
//!
//! PR 9 makes the registrar replicated and persistent:
//!
//! * [`replication`] — log-shipped lease replication between registrars:
//!   epoch-owned primaries, majority commit, and election on lease timeout
//!   (at most one active primary per epoch by construction). Each replica
//!   applies the committed log to one [`registry::ServiceRegistry`].
//! * [`snapshot`] — deterministic versioned lease-table snapshots; the
//!   replication log truncates behind them and restarted registrars rejoin
//!   from snapshot + log suffix.
//! * [`flap`] — BGP-style flap damping: churning services accumulate an
//!   exponentially decaying penalty and are absorbed at the registrar's
//!   edge while suppressed.
//! * [`cluster`] — [`cluster::ReplicatedRegistrarApp`], the replicated
//!   registrar as a [`aroma_net::NetApp`]: heartbeats, rank-staggered
//!   elections, synchronous durable persistence across process kills, and
//!   primary-only client serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cluster;
pub mod codec;
pub mod flap;
pub mod proxy;
pub mod registry;
pub mod replication;
pub mod snapshot;

pub use cluster::ReplicatedRegistrarApp;
pub use codec::{Msg, ServiceId, ServiceItem, Template};
pub use flap::{FlapConfig, FlapDamper, FlapDecision};
pub use proxy::{vet_proxy, ProxyError, VettedProxy, MCODE_MAGIC};
pub use registry::{RegistryEvent, ServiceRegistry};
pub use replication::{
    ClientAck, ClusterConfig, DurableState, Effect, LogEntry, RepMsg, RepOp, RepStats,
    ReplicaNode, Role, PROTO_REPLICATION,
};
pub use snapshot::{LeaseSnapshot, SNAPSHOT_VERSION};
