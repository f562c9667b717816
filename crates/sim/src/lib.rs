//! # aroma-sim — discrete-event simulation core
//!
//! Foundation substrate for the reproduction of *“A Conceptual Model for
//! Pervasive Computing”* (Ciarletta & Dima, 2000). Every simulated subsystem
//! in the workspace — the 2.4 GHz wireless LAN, the Jini-style lookup
//! service, the VNC-style remote framebuffer, the appliance runtime and the
//! behavioural user simulator — runs on the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic future-event list with a stable tie
//!   order for simultaneous events (the event's key, then FIFO), kept as a
//!   monotone radix queue over a slab of event slots, so an event is
//!   written once, moved out once and re-filed only a few times between,
//! * [`SimRng`] — a seedable, forkable random stream (SplitMix64 core) with
//!   the distributions the substrates need (uniform, normal, exponential,
//!   log-normal shadowing),
//! * [`stats`] — Welford summaries and rate meters used by every experiment
//!   harness,
//! * [`report`] — aligned ASCII tables plus a minimal JSON emitter so
//!   experiment output can be archived without extra dependencies,
//! * [`telemetry`] — the `aroma-telemetry` recorder (structured trace ring,
//!   metrics registry, event-loop self-profiling) re-exported with JSON
//!   snapshot rendering, so every substrate instruments through one path,
//! * [`faults`] — the `aroma-faults` deterministic fault-injection plane
//!   (seed-stable schedules of crashes, partitions, burst loss, clock skew)
//!   re-exported with `SimTime`/`SimRng` builder glue,
//! * [`sweep`] — structured-concurrency parameter sweeps (each simulation run
//!   owns its world; results are collected without shared mutable state).
//!
//! Determinism is a hard requirement: a run is a pure function of its seed
//! and parameters, which is what makes the paper-shape experiments in
//! `lpc-bench` reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod faults;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
