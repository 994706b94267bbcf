//! # camsoc-core
//!
//! The paper's primary contribution: the SOC design-service flow that
//! takes a digital-still-camera controller from IP integration through
//! system verification, DFT insertion, physical implementation and
//! sign-off to a GDSII hand-off — absorbing spec changes, netlist ECOs,
//! timing fixes and pin-assignment churn along the way.
//!
//! * [`ip`] — IP blocks as the integrator sees them: hard macros, soft
//!   RTL in either HDL, analog blocks; vendor provenance and quality.
//! * [`catalog`] — the DSC controller's published IP set (hybrid
//!   RISC/DSP, JPEG codec, USB 1.1, SD/MMC, SDRAM controller, LCD I/F,
//!   TV encoder, DACs, PLLs).
//! * [`dsc`] — the procedurally reconstructed chip: ~240 K gates of
//!   logic plus 30 embedded memories, at any scale factor.
//! * [`verify`] — the system-verification campaign model: testbench
//!   growth, bug discovery, vendor RTL revisions, cross-simulator
//!   consistency.
//! * [`flow`] — the Netlist→GDSII engine: scan insertion, ATPG,
//!   place/CTS/route/extract, timing-fix ECO loop, formal equivalence,
//!   DRC/LVS, GDSII — staged and supervised (retry, escalation,
//!   checkpoint/resume) by [`flow::FlowSupervisor`].
//! * [`hier`] — hierarchical bottom-up hardening: macros hardened in
//!   parallel through the full flow, abstracted to pin-level boundary
//!   models + outlines (cache-keyed by content hash), then integrated
//!   at top level as opaque placed blocks.
//! * [`resilience`] — the supervision primitives: stage identities,
//!   retry/escalation policy, quality gates, attempt traces and the
//!   deterministic fault injector.
//! * [`eco`] — the change history: spec changes, combinational ECOs,
//!   setup/hold fixes and pin-assignment versions, replayed with
//!   incremental-vs-full cost accounting.
//! * [`signoff`] — the QoR sign-off report.
//! * [`project`] — the schedule/effort model (six engineers, three
//!   months).

pub mod catalog;
pub mod dsc;
pub mod eco;
pub mod flow;
pub mod hier;
pub mod ip;
pub mod persist;
pub mod project;
pub mod resilience;
pub mod signoff;
pub mod verify;

pub use dsc::{build_dsc, DscDesign};
pub use flow::{
    run_flow, CompileStats, FlowCheckpoint, FlowError, FlowOptions, FlowResult, FlowSupervisor,
};
pub use hier::{
    harden_macros, hard_macros, AbstractCache, HardenReport, MacroAbstract, TiledParams,
};
pub use resilience::{
    FailureDisposition, FaultInjector, FlowTrace, QualityGates, QuarantinePolicy, RetryPolicy,
    StageId,
};
