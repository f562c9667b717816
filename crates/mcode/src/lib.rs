//! # aroma-mcode — mobile code for service proxies
//!
//! Two of the Aroma project's research areas are *"mobile code and data"*
//! and the forecast of $10 systems-on-chip with *"a sufficiently rich
//! run-time environment capable of running sophisticated virtual
//! machines"* — the substrate that made Jini's downloadable proxies
//! plausible. This crate is that substrate in miniature: a deterministic,
//! validated, fuel-metered stack VM whose programs travel as the opaque
//! `proxy` bytes of `aroma-discovery`'s service items, so a client can
//! download *behaviour* (how to talk to a device) rather than hard-coding
//! it.
//!
//! Design constraints, in order:
//!
//! 1. **Safety for untrusted code** — programs are validated before
//!    execution (jump targets in range, local slots bounded) and run under
//!    a fuel budget with hard stack bounds; every failure is a typed
//!    `VmError`, never a panic.
//! 2. **Determinism** — no clocks, no floats, no host randomness: a
//!    program's result is a pure function of its arguments and host
//!    replies, as required by the simulation substrate.
//! 3. **Smallness** — an appliance-class ISA: i64 stack machine, 30-odd
//!    ops, locals, relative-free absolute jumps, and numbered host calls
//!    ([`Host`]) for device effects.
//!
//! Safety comes in two escalating tiers. *Validation* ([`program`])
//! checks shape: jump targets in range, local slots bounded. *Static
//! verification* ([`verify`], over the control-flow graphs of
//! [`cfg`](mod@cfg)) proves behaviour: a worklist abstract interpretation
//! computes the exact operand-stack height and the definitely-initialized
//! locals at every reachable instruction (the lattice per program point
//! is "unvisited ⊥, or one exact height"; joins must agree on height and
//! intersect the init sets), so stack underflow/overflow, reads of
//! unwritten locals, running off the end, and un-allowlisted host calls
//! are all rejected *before* the program runs. The payoff is twofold:
//! hosts get a capability summary of untrusted proxy code (which syscalls
//! it can ever make, how deep its stack goes, a static fuel bound when
//! loop-free), and the interpreter gets a **fast path**
//! ([`vm::Vm::run_verified`]) that trusts the [`verify::VerifiedProgram`]
//! certificate to skip the per-op stack checks — and fuel metering
//! entirely, for loop-free code — while remaining panic-free.
//!
//! Beyond the verifier sits a reusable static-analysis layer
//! ("aroma-flow"): [`dataflow`] is a generic forward/backward worklist
//! fixpoint framework over the [`cfg`](mod@cfg) basic blocks,
//! parameterized by a lattice ([`dataflow::Analysis`]); [`range`]
//! instantiates it with an interval domain to prove **static loop
//! bounds**, extending the unmetered fast path from loop-free programs to
//! counted-loop programs; [`flow`] instantiates it with a taint domain so
//! a [`flow::FlowPolicy`] can prove information-flow properties ("sensor
//! reads never reach network sends") that a capability allowlist cannot
//! express; and [`opt`] is an optimizer (constant folding, branch
//! pruning, dead-store and unreachable-code elimination, jump threading)
//! gated by **translation validation** — an optimized program is only
//! used if it re-verifies and differentially matches the original.
//!
//! Modules: [`isa`] (opcodes + wire format), [`program`] (validated
//! container), [`cfg`](mod@cfg) (basic-block control-flow graphs),
//! [`verify`] (the static verifier), [`vm`] (the interpreter, checked and
//! verified paths), [`asm`] (a line assembler with labels, for
//! tests/examples/docs), [`dataflow`] / [`range`] / [`flow`] / [`opt`]
//! (the analysis layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cfg;
pub mod dataflow;
pub mod flow;
pub mod isa;
pub mod opt;
pub mod program;
pub mod range;
pub mod verify;
pub mod vm;

pub use flow::{FlowError, FlowPolicy, FlowSummary};
pub use isa::Op;
pub use opt::{OptStats, Validated};
pub use program::{Program, ProgramError, ValidateError};
pub use range::{Interval, Ranges};
pub use verify::{SyscallPolicy, SyscallSet, VerifiedProgram, VerifyConfig, VerifyError};
pub use vm::{Host, NullHost, Vm, VmError, FUEL_DEFAULT};
