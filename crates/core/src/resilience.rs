//! Resilience primitives for the flow supervisor.
//!
//! The paper's project survived because every flow failure — timing
//! ECOs, coverage shortfalls, congestion blow-ups — was caught,
//! diagnosed and retried with an adjusted recipe instead of crashing
//! the schedule. This module holds the flow-agnostic pieces of that
//! machinery; [`crate::flow::FlowSupervisor`] wires them to the actual
//! Netlist→GDSII stages:
//!
//! * [`StageId`] — the named stages of the flow graph, in execution
//!   order.
//! * [`RetryPolicy`] — per-stage attempt and effort-escalation budget.
//! * [`QualityGates`] — the per-stage acceptance thresholds (ATPG
//!   coverage floor, routing overflow cap, equivalence verdict, timing
//!   closure) the supervisor checks after each attempt.
//! * [`FlowTrace`] / [`StageAttempt`] — the full attempt-by-attempt
//!   record of a run, surfaced on `FlowResult` and carried by
//!   `FlowError::Exhausted`.
//! * [`FaultInjector`] — a seeded, deterministic hook that forces
//!   stage errors, panics or degraded outputs so the recovery paths
//!   are themselves testable. A default-constructed injector is a
//!   no-op; production runs never pay for it.

use std::time::Duration;

/// The named stages of the Netlist→GDSII flow, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Netlist structural validation.
    Validate,
    /// Pre-layout STA (estimated wires).
    PreSta,
    /// Scan insertion.
    Scan,
    /// ATPG + fault simulation.
    Atpg,
    /// Floorplan → place → CTS → route → extract → DRC → sign-off STA.
    Layout,
    /// The setup/hold timing-fix ECO loop (incremental STA).
    TimingFix,
    /// Formal equivalence of the fixed netlist vs the scan netlist.
    Equiv,
    /// LVS of the final netlist vs the extracted view.
    Lvs,
    /// ECO-cell legalisation + GDSII stream-out.
    StreamOut,
}

impl StageId {
    /// All stages in execution order.
    pub const ALL: [StageId; 9] = [
        StageId::Validate,
        StageId::PreSta,
        StageId::Scan,
        StageId::Atpg,
        StageId::Layout,
        StageId::TimingFix,
        StageId::Equiv,
        StageId::Lvs,
        StageId::StreamOut,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Validate => "validate",
            StageId::PreSta => "pre-sta",
            StageId::Scan => "scan",
            StageId::Atpg => "atpg",
            StageId::Layout => "layout",
            StageId::TimingFix => "timing-fix",
            StageId::Equiv => "equiv",
            StageId::Lvs => "lvs",
            StageId::StreamOut => "stream-out",
        }
    }

    /// Position in [`StageId::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stage retry and effort-escalation budget.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per stage (first try included). At least 1.
    pub max_attempts: usize,
    /// Cap on the effort-escalation level a stage can reach. Gate
    /// failures raise the level by one per retry (errors and panics
    /// re-run the same recipe — a transient fault should reproduce the
    /// original result bit-for-bit, not a different one).
    pub max_effort: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, max_effort: 3 }
    }
}

/// Job-level failure containment, one layer above [`RetryPolicy`].
///
/// `RetryPolicy` bounds attempts *within* one stage of one run; a
/// quarantine policy bounds whole-job failures across runs — a job
/// whose driver keeps panicking or failing transiently is retried a
/// few times with deterministic capped backoff and then *quarantined*:
/// parked terminally with its evidence kept, so one poison request can
/// never wedge a queue or monopolize a worker. Backoff is counted in
/// scheduling opportunities ("slots"), never wall-clock time, so the
/// whole path is deterministic and testable.
#[derive(Debug, Clone, Copy)]
pub struct QuarantinePolicy {
    /// Transient failures (panics included) a job may accumulate
    /// before it is quarantined. At least 1.
    pub max_transient_failures: u32,
    /// Cap on the exponential backoff, in scheduling slots.
    pub max_backoff_slots: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy { max_transient_failures: 3, max_backoff_slots: 8 }
    }
}

impl QuarantinePolicy {
    /// Decide what happens to a job after a failure. `failures` is the
    /// job's cumulative transient-failure count *including* the one
    /// just booked; `transient` is whether the error class is worth
    /// retrying at all (panics and injected faults are; deterministic
    /// spec rejections are not).
    pub fn disposition(&self, failures: u32, transient: bool) -> FailureDisposition {
        if !transient {
            return FailureDisposition::Fail;
        }
        if failures >= self.max_transient_failures.max(1) {
            return FailureDisposition::Quarantine;
        }
        // 1, 2, 4, ... capped: deterministic in the attempt count.
        let exp = 1u64.checked_shl(failures.saturating_sub(1)).unwrap_or(u64::MAX);
        FailureDisposition::Retry { backoff_slots: exp.min(self.max_backoff_slots.max(1)) }
    }
}

/// Verdict of [`QuarantinePolicy::disposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureDisposition {
    /// Requeue the job, eligible again after `backoff_slots`
    /// scheduling opportunities have passed.
    Retry {
        /// Deterministic backoff, in scheduling slots.
        backoff_slots: u64,
    },
    /// The retry budget is spent: quarantine the job terminally,
    /// keeping its request/checkpoint as evidence.
    Quarantine,
    /// The failure is deterministic: fail outright, no retry.
    Fail,
}

/// Per-stage acceptance thresholds checked after each attempt.
///
/// The defaults mirror the repo's historical sign-off policy, so a run
/// that passed before the supervisor existed passes its gates on the
/// first attempt and produces bit-identical results.
#[derive(Debug, Clone, Copy)]
pub struct QualityGates {
    /// ATPG stuck-at coverage floor (`None` disables the gate). The
    /// default matches the sign-off report's DFT floor.
    pub min_fault_coverage: Option<f64>,
    /// Maximum acceptable residual routing overflow in tracks
    /// (Σ max(0, usage − capacity) over gcell edges). The default `0`
    /// refuses to hand any overflow to detailed routing.
    pub max_route_overflow: Option<u64>,
    /// Minimum scan flops the scan stage must produce (`None` skips
    /// the check — a combinational block legitimately has none).
    pub min_scan_flops: Option<usize>,
    /// Require setup *and* hold closure from the timing-fix stage.
    /// Off by default: the historical flow reports non-closure in
    /// sign-off rather than failing the run.
    pub require_timing_closure: bool,
    /// Require an `Equivalent`/`ProbablyEquivalent` verdict.
    pub require_equivalence: bool,
    /// Require a clean LVS compare.
    pub require_lvs_clean: bool,
    /// Require a non-empty, well-formed GDSII stream.
    pub require_gds: bool,
}

impl Default for QualityGates {
    fn default() -> Self {
        QualityGates {
            min_fault_coverage: Some(0.75),
            max_route_overflow: Some(0),
            min_scan_flops: None,
            require_timing_closure: false,
            require_equivalence: true,
            require_lvs_clean: true,
            require_gds: true,
        }
    }
}

impl QualityGates {
    /// Every gate armed: full-strictness sign-off (timing closure and
    /// scan insertion become hard requirements too).
    pub fn strict() -> Self {
        QualityGates {
            min_scan_flops: Some(1),
            require_timing_closure: true,
            ..QualityGates::default()
        }
    }

    /// Every gate disabled (observe-only supervision: retries still
    /// contain panics and errors, but no output is rejected).
    pub fn disabled() -> Self {
        QualityGates {
            min_fault_coverage: None,
            max_route_overflow: None,
            min_scan_flops: None,
            require_timing_closure: false,
            require_equivalence: false,
            require_lvs_clean: false,
            require_gds: false,
        }
    }
}

/// What a single stage attempt ended as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Output accepted (gates passed).
    Success,
    /// The stage produced output but a quality gate rejected it.
    GateFailed {
        /// Human-readable gate verdict.
        reason: String,
    },
    /// The stage returned a typed error.
    Error {
        /// Rendered error message.
        message: String,
    },
    /// The stage panicked; the payload was contained by the supervisor.
    Panicked {
        /// Rendered panic payload.
        payload: String,
    },
}

impl AttemptOutcome {
    /// True for [`AttemptOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, AttemptOutcome::Success)
    }
}

/// One recorded stage attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttempt {
    /// Stage attempted.
    pub stage: StageId,
    /// 0-based attempt number within the stage.
    pub attempt: usize,
    /// Effort-escalation level the attempt ran at (0 = base recipe).
    pub effort: u32,
    /// Human-readable escalations applied relative to the base recipe
    /// (empty at effort 0).
    pub escalations: Vec<String>,
    /// Wall-clock duration of the attempt.
    pub duration: Duration,
    /// How it ended.
    pub outcome: AttemptOutcome,
}

/// The attempt-by-attempt record of a supervised run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// Every attempt, in execution order (spanning resumes).
    pub attempts: Vec<StageAttempt>,
    /// True when the run continued from a checkpoint rather than from
    /// scratch.
    pub resumed: bool,
}

impl FlowTrace {
    /// Attempts recorded for one stage, in execution order.
    pub fn attempts_for(&self, stage: StageId) -> Vec<&StageAttempt> {
        self.attempts.iter().filter(|a| a.stage == stage).collect()
    }

    /// Attempts beyond the first per stage (0 on a clean run).
    pub fn retries(&self) -> usize {
        self.attempts.iter().filter(|a| a.attempt > 0).count()
    }

    /// Stages that failed at least once and then succeeded.
    pub fn recovered(&self) -> Vec<StageId> {
        StageId::ALL
            .into_iter()
            .filter(|&s| {
                let mut failed = false;
                let mut ok = false;
                for a in self.attempts.iter().filter(|a| a.stage == s) {
                    if a.outcome.is_success() {
                        ok = true;
                    } else {
                        failed = true;
                    }
                }
                failed && ok
            })
            .collect()
    }

    /// Render as a fixed-width text table (one line per attempt).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== flow trace ({} attempts{}) ====",
            self.attempts.len(),
            if self.resumed { ", resumed" } else { "" }
        );
        for a in &self.attempts {
            let outcome = match &a.outcome {
                AttemptOutcome::Success => "ok".to_string(),
                AttemptOutcome::GateFailed { reason } => format!("gate: {reason}"),
                AttemptOutcome::Error { message } => format!("error: {message}"),
                AttemptOutcome::Panicked { payload } => format!("panic: {payload}"),
            };
            let esc = if a.escalations.is_empty() {
                String::new()
            } else {
                format!(" [{}]", a.escalations.join(", "))
            };
            let _ = writeln!(
                out,
                "{:<11} attempt {} effort {}{} ({:.1} ms) -> {}",
                a.stage.name(),
                a.attempt,
                a.effort,
                esc,
                a.duration.as_secs_f64() * 1e3,
                outcome
            );
        }
        out
    }
}

/// Kinds of fault an injector can force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage returns a typed `FlowError::Injected` instead of
    /// running.
    Error,
    /// The stage panics with a seed-derived payload (contained by the
    /// supervisor's `catch_unwind`).
    Panic,
    /// The stage runs normally, then its output is corrupted so the
    /// stage's quality gate rejects it. On stages without a gated
    /// output (validate, pre-sta) this behaves like
    /// [`FaultKind::Error`].
    Degrade,
}

/// One planned injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Stage to fault.
    pub stage: StageId,
    /// 0-based attempt the fault fires on.
    pub attempt: usize,
    /// What happens.
    pub kind: FaultKind,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic fault-injection hook for supervisor tests.
///
/// The injector is a pure function of its seed and plan: the same
/// `(stage, attempt)` query always returns the same fault and the same
/// panic payload, so a faulted run is exactly reproducible. A
/// default-constructed ([`FaultInjector::none`]) injector never fires.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    seed: u64,
    plan: Vec<InjectedFault>,
}

impl FaultInjector {
    /// The production no-op injector.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// An armed injector with an empty plan; add faults with
    /// [`FaultInjector::with_fault`].
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed, plan: Vec::new() }
    }

    /// Plan one fault.
    pub fn with_fault(mut self, stage: StageId, attempt: usize, kind: FaultKind) -> Self {
        self.plan.push(InjectedFault { stage, attempt, kind });
        self
    }

    /// Plan the same fault on every attempt `0..attempts` of a stage
    /// (a *persistent* fault that outlasts any retry budget).
    pub fn with_persistent_fault(
        mut self,
        stage: StageId,
        kind: FaultKind,
        attempts: usize,
    ) -> Self {
        for attempt in 0..attempts {
            self.plan.push(InjectedFault { stage, attempt, kind });
        }
        self
    }

    /// True when at least one fault is planned.
    pub fn is_armed(&self) -> bool {
        !self.plan.is_empty()
    }

    /// The fault planned for this `(stage, attempt)`, if any.
    pub fn fault_for(&self, stage: StageId, attempt: usize) -> Option<FaultKind> {
        self.plan
            .iter()
            .find(|f| f.stage == stage && f.attempt == attempt)
            .map(|f| f.kind)
    }

    /// Seed-derived, reproducible panic payload for an injected panic.
    pub fn payload(&self, stage: StageId, attempt: usize) -> String {
        let token =
            splitmix64(self.seed ^ ((stage.index() as u64) << 8) ^ attempt as u64);
        format!(
            "injected panic in {} (attempt {}, token {token:016x})",
            stage.name(),
            attempt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_policy_is_deterministic_and_capped() {
        let p = QuarantinePolicy::default();
        // Deterministic failures never retry.
        assert_eq!(p.disposition(1, false), FailureDisposition::Fail);
        // Transient failures back off exponentially ...
        assert_eq!(p.disposition(1, true), FailureDisposition::Retry { backoff_slots: 1 });
        assert_eq!(p.disposition(2, true), FailureDisposition::Retry { backoff_slots: 2 });
        // ... and quarantine at the budget.
        assert_eq!(p.disposition(3, true), FailureDisposition::Quarantine);
        // The backoff cap binds for generous budgets.
        let generous = QuarantinePolicy { max_transient_failures: 20, max_backoff_slots: 8 };
        assert_eq!(generous.disposition(10, true), FailureDisposition::Retry { backoff_slots: 8 });
        // A zero budget still quarantines (treated as 1), never loops.
        let zero = QuarantinePolicy { max_transient_failures: 0, max_backoff_slots: 0 };
        assert_eq!(zero.disposition(1, true), FailureDisposition::Quarantine);
    }

    #[test]
    fn stage_order_and_names_are_stable() {
        assert_eq!(StageId::ALL.len(), 9);
        for (i, s) in StageId::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(StageId::Validate.index(), 0);
        assert_eq!(StageId::StreamOut.index(), 8);
    }

    #[test]
    fn injector_is_deterministic_and_scoped() {
        let inj = FaultInjector::new(42)
            .with_fault(StageId::Atpg, 0, FaultKind::Panic)
            .with_persistent_fault(StageId::Equiv, FaultKind::Degrade, 3);
        assert!(inj.is_armed());
        assert_eq!(inj.fault_for(StageId::Atpg, 0), Some(FaultKind::Panic));
        assert_eq!(inj.fault_for(StageId::Atpg, 1), None);
        assert_eq!(inj.fault_for(StageId::Layout, 0), None);
        for a in 0..3 {
            assert_eq!(inj.fault_for(StageId::Equiv, a), Some(FaultKind::Degrade));
        }
        assert_eq!(inj.payload(StageId::Atpg, 0), inj.payload(StageId::Atpg, 0));
        assert_ne!(inj.payload(StageId::Atpg, 0), inj.payload(StageId::Atpg, 1));
        assert_ne!(
            FaultInjector::new(1).payload(StageId::Atpg, 0),
            FaultInjector::new(2).payload(StageId::Atpg, 0)
        );
        assert!(!FaultInjector::none().is_armed());
        assert_eq!(FaultInjector::none().fault_for(StageId::Scan, 0), None);
    }

    #[test]
    fn trace_accounting() {
        let mut trace = FlowTrace::default();
        let attempt = |stage, attempt, outcome| StageAttempt {
            stage,
            attempt,
            effort: 0,
            escalations: Vec::new(),
            duration: Duration::from_millis(1),
            outcome,
        };
        trace.attempts.push(attempt(
            StageId::Atpg,
            0,
            AttemptOutcome::GateFailed { reason: "cov".into() },
        ));
        trace.attempts.push(attempt(StageId::Atpg, 1, AttemptOutcome::Success));
        trace.attempts.push(attempt(StageId::Layout, 0, AttemptOutcome::Success));
        assert_eq!(trace.attempts_for(StageId::Atpg).len(), 2);
        assert_eq!(trace.attempts_for(StageId::Atpg)[1].attempt, 1);
        assert!(trace.attempts_for(StageId::StreamOut).is_empty());
        assert_eq!(trace.retries(), 1);
        assert_eq!(trace.recovered(), vec![StageId::Atpg]);
        let text = trace.render();
        assert!(text.contains("atpg"));
        assert!(text.contains("gate: cov"));
    }
}
