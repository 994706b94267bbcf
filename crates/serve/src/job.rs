//! Job identities, durable job specs, and typed job errors.
//!
//! A tapeout request is a [`JobRequest`]: a procedural [`DesignSpec`]
//! (never a materialized netlist — the generators are deterministic, so
//! the seed *is* the design) plus the exact [`FlowOptions`] to run it
//! under and an optional compute deadline. The whole request is
//! serialized with the same dependency-free codec as checkpoints, so a
//! restarted farm re-runs the remaining stages of every job with
//! bit-identical inputs.

use std::time::Duration;

use camsoc_core::flow::{FlowError, FlowOptions};
use camsoc_core::{build_dsc, StageId};
use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};
use camsoc_netlist::generate::{self, IpBlockParams};
use camsoc_netlist::graph::Netlist;
use camsoc_netlist::NetlistError;

/// Identity of a job within one farm directory. Ids are assigned
/// FIFO at submission and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

impl Codec for JobId {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(JobId(d.get_u64()?))
    }
}

/// Scheduling class of a job. Order matters: later variants outrank
/// earlier ones, and within a class scheduling stays FIFO by id. A
/// `Critical` arrival may *preempt* a running lower-class job at its
/// next stage boundary (see the farm docs) — the preempted job parks
/// on its checkpoint and completes later, bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: first to be preempted.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Deadline-critical: may preempt running `Low`/`Normal` jobs.
    Critical,
}

impl Priority {
    /// Stable ledger token.
    pub fn token(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::Critical => "critical",
        }
    }

    /// Parse a ledger token.
    pub fn from_token(s: &str) -> Option<Self> {
        Some(match s {
            "low" => Priority::Low,
            "normal" => Priority::Normal,
            "critical" => Priority::Critical,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl Codec for Priority {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::Critical => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(Priority::Low),
            1 => Ok(Priority::Normal),
            2 => Ok(Priority::Critical),
            t => Err(CodecError::Corrupt(format!("priority tag {t:#04x}"))),
        }
    }
}

/// What to build: a procedural generator spec, deterministic in its
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// A synthetic IP block from [`generate::ip_block`].
    IpBlock {
        /// Design name.
        name: String,
        /// Approximate gate budget.
        target_gates: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The paper's DSC controller from [`build_dsc`], scaled.
    Dsc {
        /// Scale factor (1.0 = the paper's ~240K gates).
        scale: f64,
    },
    /// A poison pill: materialization panics on **every** attempt, with
    /// a deterministic payload. Models a pathological request that
    /// takes down a naive worker; the farm must record the panic
    /// against this job, retry it under its quarantine policy, and
    /// land it in `quarantined` without stalling any other job.
    Poison {
        /// Panic payload.
        message: String,
    },
    /// A transiently flaky request: materialization panics while the
    /// attempt counter is below `failures`, then generates exactly like
    /// [`DesignSpec::IpBlock`] with the same parameters. Deterministic
    /// in `(parameters, attempt)` — the farm's retry path is exactly
    /// reproducible.
    Flaky {
        /// Design name.
        name: String,
        /// Approximate gate budget.
        target_gates: usize,
        /// Generator seed.
        seed: u64,
        /// Attempts that panic before the first success.
        failures: u32,
    },
}

impl DesignSpec {
    /// Generate the netlist this spec describes. Deterministic: the
    /// same spec always yields the same netlist, which is what makes a
    /// spec-plus-options job durable without storing the input graph.
    ///
    /// Equivalent to [`DesignSpec::materialize_attempt`] at attempt 0.
    ///
    /// # Errors
    ///
    /// [`NetlistError`] from the generator on degenerate parameters.
    ///
    /// # Panics
    ///
    /// [`DesignSpec::Poison`] and a [`DesignSpec::Flaky`] with
    /// `failures > 0` panic by design — the farm contains the panic at
    /// its worker loop and books it against the job.
    pub fn materialize(&self) -> Result<Netlist, NetlistError> {
        self.materialize_attempt(0)
    }

    /// Generate the netlist for a given farm-level attempt number (the
    /// job's transient-failure count, as recorded in the ledger).
    /// Deterministic in `(self, attempt)`.
    ///
    /// # Errors
    ///
    /// [`NetlistError`] from the generator on degenerate parameters.
    ///
    /// # Panics
    ///
    /// See [`DesignSpec::materialize`].
    pub fn materialize_attempt(&self, attempt: u32) -> Result<Netlist, NetlistError> {
        match self {
            DesignSpec::IpBlock { name, target_gates, seed } => generate::ip_block(
                name,
                &IpBlockParams { target_gates: *target_gates, seed: *seed, ..Default::default() },
            ),
            DesignSpec::Dsc { scale } => Ok(build_dsc(*scale)?.netlist),
            DesignSpec::Poison { message } => panic!("poison job: {message}"),
            DesignSpec::Flaky { name, target_gates, seed, failures } => {
                assert!(
                    attempt >= *failures,
                    "flaky job {name}: injected failure {attempt} of {failures}"
                );
                generate::ip_block(
                    name,
                    &IpBlockParams {
                        target_gates: *target_gates,
                        seed: *seed,
                        ..Default::default()
                    },
                )
            }
        }
    }
}

impl Codec for DesignSpec {
    fn encode(&self, e: &mut Encoder) {
        match self {
            DesignSpec::IpBlock { name, target_gates, seed } => {
                e.put_u8(0);
                e.put_str(name);
                e.put_usize(*target_gates);
                e.put_u64(*seed);
            }
            DesignSpec::Dsc { scale } => {
                e.put_u8(1);
                e.put_f64(*scale);
            }
            DesignSpec::Poison { message } => {
                e.put_u8(2);
                e.put_str(message);
            }
            DesignSpec::Flaky { name, target_gates, seed, failures } => {
                e.put_u8(3);
                e.put_str(name);
                e.put_usize(*target_gates);
                e.put_u64(*seed);
                e.put_u32(*failures);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(DesignSpec::IpBlock {
                name: d.get_str()?,
                target_gates: d.get_usize()?,
                seed: d.get_u64()?,
            }),
            1 => Ok(DesignSpec::Dsc { scale: d.get_f64()? }),
            2 => Ok(DesignSpec::Poison { message: d.get_str()? }),
            3 => Ok(DesignSpec::Flaky {
                name: d.get_str()?,
                target_gates: d.get_usize()?,
                seed: d.get_u64()?,
                failures: d.get_u32()?,
            }),
            t => Err(CodecError::Corrupt(format!("design spec tag {t:#04x}"))),
        }
    }
}

/// A tapeout request: what to build, the exact flow options, and an
/// optional compute deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The design to generate.
    pub spec: DesignSpec,
    /// Flow options, pinned for the life of the job.
    pub options: FlowOptions,
    /// Compute budget: the sum of stage-attempt durations (as recorded
    /// in the job's `FlowTrace`, surviving restarts) must stay under
    /// this before each new stage starts. Exceeding it parks the job
    /// with its checkpoint intact — typed, never silent. `None` = no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Scheduling class (see [`Priority`]). Defaults to
    /// [`Priority::Normal`].
    pub priority: Priority,
}

impl JobRequest {
    /// A request with no deadline at [`Priority::Normal`].
    pub fn new(spec: DesignSpec, options: FlowOptions) -> Self {
        JobRequest { spec, options, deadline: None, priority: Priority::Normal }
    }

    /// Attach a compute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

impl Codec for JobRequest {
    fn encode(&self, e: &mut Encoder) {
        self.spec.encode(e);
        self.options.encode(e);
        self.deadline.encode(e);
        self.priority.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(JobRequest {
            spec: DesignSpec::decode(d)?,
            options: FlowOptions::decode(d)?,
            deadline: Option::<Duration>::decode(d)?,
            priority: Priority::decode(d)?,
        })
    }
}

/// Why a job did not (or has not yet) taped out.
#[derive(Debug)]
pub enum JobError {
    /// The job's compute budget ran out before the flow finished. The
    /// checkpoint keeps every completed stage; release the job with a
    /// fresh deadline to continue from `next_stage`.
    DeadlineExceeded {
        /// The job.
        job: JobId,
        /// Compute time spent across all attempts (including before a
        /// restart).
        spent: Duration,
        /// The budget that was exceeded.
        budget: Duration,
        /// First stage still missing.
        next_stage: StageId,
    },
    /// The generator rejected the design spec.
    Spec {
        /// The job.
        job: JobId,
        /// Generator error.
        error: NetlistError,
    },
    /// The flow failed beyond the supervisor's recovery budget.
    Flow {
        /// The job.
        job: JobId,
        /// The flow failure.
        error: FlowError,
    },
    /// A durable artifact (request, checkpoint or ledger entry) could
    /// not be read or written.
    Storage {
        /// The job.
        job: JobId,
        /// Rendered cause.
        detail: String,
    },
    /// A panic escaped the job's driver and was caught at the worker
    /// loop. The worker survives; the panic is booked against this job
    /// and counted as a transient failure toward quarantine.
    Panicked {
        /// The job.
        job: JobId,
        /// Rendered panic payload.
        payload: String,
    },
}

impl JobError {
    /// Whether the farm should count this failure as transient and
    /// retry the job (up to its quarantine policy), rather than fail it
    /// outright. Deadline parks and spec rejections are deterministic —
    /// retrying cannot help; panics, storage hiccups, and transient
    /// flow failures are retried with attempt-counted backoff.
    pub fn is_retryable(&self) -> bool {
        match self {
            JobError::DeadlineExceeded { .. } | JobError::Spec { .. } => false,
            JobError::Storage { .. } | JobError::Panicked { .. } => true,
            JobError::Flow { error, .. } => match error.cause() {
                FlowError::Exhausted { last, .. } => last.is_transient(),
                other => other.is_transient(),
            },
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineExceeded { job, spent, budget, next_stage } => write!(
                f,
                "{job}: deadline exceeded ({:.3}s spent of {:.3}s) before {next_stage}; parked",
                spent.as_secs_f64(),
                budget.as_secs_f64()
            ),
            JobError::Spec { job, error } => write!(f, "{job}: bad design spec: {error}"),
            JobError::Flow { job, error } => write!(f, "{job}: flow failed: {error}"),
            JobError::Storage { job, detail } => write!(f, "{job}: storage failure: {detail}"),
            JobError::Panicked { job, payload } => {
                write!(f, "{job}: worker caught job panic: {payload}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::DeadlineExceeded { .. }
            | JobError::Storage { .. }
            | JobError::Panicked { .. } => None,
            JobError::Spec { error, .. } => Some(error),
            JobError::Flow { error, .. } => Some(error),
        }
    }
}

/// Ledger state of a job. Every transition is rewritten to disk, so a
/// restarted farm knows exactly what to requeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker is (or was, at the moment of a kill) driving it.
    Running,
    /// Taped out; result drained.
    Done,
    /// Failed beyond recovery; checkpoint kept for inspection.
    Failed,
    /// Deadline exceeded; checkpoint intact, waiting for a release.
    Parked,
    /// Parked at a stage boundary to make room for a higher-priority
    /// job. Unlike [`JobState::Parked`], needs no explicit release —
    /// any idle worker may reclaim it.
    Preempted,
    /// Terminal: failed or panicked past the quarantine policy's retry
    /// budget. Request and checkpoint are kept as evidence and are
    /// exempt from retention pruning; the job is never scheduled again.
    Quarantined,
}

impl JobState {
    /// Stable ledger token.
    pub fn token(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Parked => "parked",
            JobState::Preempted => "preempted",
            JobState::Quarantined => "quarantined",
        }
    }

    /// Parse a ledger token.
    pub fn from_token(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "parked" => JobState::Parked,
            "preempted" => JobState::Preempted,
            "quarantined" => JobState::Quarantined,
            _ => return None,
        })
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = JobRequest::new(
            DesignSpec::IpBlock { name: "blk".into(), target_gates: 300, seed: 7 },
            FlowOptions::default(),
        )
        .with_deadline(Duration::from_millis(1500))
        .with_priority(Priority::Critical);
        let mut e = Encoder::new();
        req.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = JobRequest::decode(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn specs_materialize_deterministically() {
        let spec = DesignSpec::IpBlock { name: "blk".into(), target_gates: 200, seed: 3 };
        assert_eq!(spec.materialize().unwrap(), spec.materialize().unwrap());
    }

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Parked,
            JobState::Preempted,
            JobState::Quarantined,
        ] {
            assert_eq!(JobState::from_token(s.token()), Some(s));
        }
        assert_eq!(JobState::from_token("bogus"), None);
    }

    #[test]
    fn priority_orders_and_round_trips() {
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::Critical);
        for p in [Priority::Low, Priority::Normal, Priority::Critical] {
            assert_eq!(Priority::from_token(p.token()), Some(p));
            let mut e = Encoder::new();
            p.encode(&mut e);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(Priority::decode(&mut d).unwrap(), p);
        }
        assert_eq!(Priority::from_token("urgent"), None);
    }

    #[test]
    fn poison_and_flaky_specs_round_trip_and_panic_on_schedule() {
        for spec in [
            DesignSpec::Poison { message: "bad request".into() },
            DesignSpec::Flaky { name: "fl".into(), target_gates: 220, seed: 5, failures: 2 },
        ] {
            let mut e = Encoder::new();
            spec.encode(&mut e);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(DesignSpec::decode(&mut d).unwrap(), spec);
        }
        let flaky = DesignSpec::Flaky { name: "fl".into(), target_gates: 220, seed: 5, failures: 2 };
        for attempt in 0..2 {
            let f = flaky.clone();
            assert!(std::panic::catch_unwind(move || f.materialize_attempt(attempt)).is_err());
        }
        let healed = flaky.materialize_attempt(2).unwrap();
        let reference = DesignSpec::IpBlock { name: "fl".into(), target_gates: 220, seed: 5 }
            .materialize()
            .unwrap();
        assert_eq!(healed, reference);
    }
}
