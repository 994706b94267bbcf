//! # camsoc-serve
//!
//! The durable design-service job farm. The paper's flow was sold as a
//! *service* — customers hand over IP lists and constraints, the
//! service returns GDSII — and this crate models the serving layer on
//! top of [`camsoc_core`]'s supervised Netlist→GDSII flow:
//!
//! * [`job`] — tapeout requests ([`JobRequest`]: a deterministic
//!   [`DesignSpec`] plus pinned `FlowOptions`, an optional compute
//!   deadline, and a scheduling [`Priority`]), job states and typed
//!   job errors.
//! * [`lock`] — dependency-free OS advisory file locks: the ledger
//!   transaction lock and the per-farm [`lock::OwnerLease`] whose
//!   release (even by `kill -9`) is what makes a job lease *provably*
//!   stale.
//! * [`ledger`] — the on-disk [`JobLedger`]: a versioned, atomically
//!   rewritten text file recording every job's last known state plus
//!   its lease owner, priority, and attempt count. It records state
//!   transitions only; a completed stage is recorded once, in the job's
//!   checkpoint. All read-modify-write goes through locked
//!   transactions, so any number of farms can share one directory.
//! * [`store`] — per-job durable artifacts: request files,
//!   [`camsoc_core::FlowCheckpoint`]s, and optional exported GDSII,
//!   all written write-temp-then-rename so no kill can tear them.
//! * [`farm`] — the [`Farm`]: priority-then-FIFO claiming out of the
//!   shared ledger, N worker threads each stepping a `FlowSupervisor`
//!   one stage at a time with a checkpoint write and a lease check
//!   (a locked ledger read that writes only to preempt) after every
//!   stage, stage-boundary preemption, deadline parking,
//!   deterministic retry/backoff with poison-job quarantine, artifact
//!   retention, and crash recovery (stale-lease reclamation → resume
//!   from last good stage, bit-identical to an uninterrupted run).
//!
//! Everything is dependency-free: durability uses the same hand-rolled
//! binary codec as the rest of the workspace
//! ([`camsoc_netlist::codec`]), and the locks are `std::fs::File`
//! advisory locks, so the crate builds fully offline.

pub mod farm;
pub mod job;
pub mod ledger;
pub mod lock;
pub mod store;

pub use farm::{Farm, FarmError, FarmReport, JobOutcome, RetentionPolicy};
pub use job::{DesignSpec, JobError, JobId, JobRequest, JobState, Priority};
pub use ledger::{JobLedger, LedgerEntry, LedgerError};
pub use lock::{FileLock, OwnerLease};
pub use store::CheckpointStore;
