//! The Netlist→GDSII flow engine, run by a resilient supervisor.
//!
//! The paper's silicon phase in one call: validate → pre-layout STA →
//! scan insertion → ATPG → floorplan/place/CTS/route/extract → sign-off
//! STA with a timing-fix ECO loop (the "physical synthesis" role) →
//! formal equivalence across the fixes → DRC/LVS → GDSII.
//!
//! Since the flow supervisor rebuild, the flow is a sequence of named
//! [`StageId`]s driven by [`FlowSupervisor`]:
//!
//! * every stage runs under `catch_unwind`, so a panicking kernel
//!   surfaces as [`FlowError::StagePanic`] instead of tearing down the
//!   caller (a batch service keeps serving its other jobs);
//! * each stage's output is checked against [`QualityGates`] (ATPG
//!   coverage floor, routing-overflow cap, equivalence verdict, …) and
//!   on a gate failure the stage is retried with a deterministic
//!   effort escalation — more SA starts for placement, extra rip-up
//!   rounds and congestion penalty for routing, a raised backtrack
//!   budget for ATPG, a bigger BDD budget for equivalence — up to a
//!   [`RetryPolicy`] budget;
//! * every attempt is recorded in a [`FlowTrace`] surfaced on
//!   [`FlowResult::trace`] and carried by [`FlowError::Exhausted`];
//! * completed stage outputs live in a [`FlowCheckpoint`], so a failed
//!   run resumes from the last good stage via
//!   [`FlowSupervisor::resume`] without redoing earlier work;
//! * a seeded [`FaultInjector`] (no-op in production) deterministically
//!   forces stage failures, panics and degraded outputs so the
//!   recovery paths are themselves testable.
//!
//! One compiled snapshot per netlist: the Scan stage compiles the
//! scanned netlist once, and ATPG, both STAs of the layout stage, the
//! timing-fix engine and the equivalence check read that snapshot (or
//! the engine's journal-patched copy of it for the final netlist)
//! instead of compiling again. [`FlowResult::compile_stats`] audits it.
//!
//! The ECO loop's sign-off timing is maintained **incrementally**: the
//! engine baselines one full analysis on the routed view, then each
//! upsize/buffer fix re-times only its fanout/fanin cone via
//! [`IncrementalSta`], bit-identically to a from-scratch run.
//! [`FlowResult::sta_incremental_evals`] versus
//! [`FlowResult::sta_full_evals`] records the saving;
//! [`FlowOptions::sta_cone_fraction`] bounds the cone before the engine
//! falls back to a full re-annotation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use camsoc_dft::atpg::{Atpg, AtpgConfig, AtpgResult};
use camsoc_dft::fsim::FsimMode;
use camsoc_dft::scan::{insert_scan, ScanConfig, ScanReport};
use camsoc_layout::lvs::{compare as lvs_compare, LvsReport};
use camsoc_layout::{
    gdsii, implement_with, HardMacros, ImplementOptions, LayoutError, LayoutResult,
};
use camsoc_netlist::compiled::{compiles_on_this_thread, CompiledNetlist};
use camsoc_netlist::eco::EcoSession;
use camsoc_netlist::equiv::{check_models, CombModel, EquivOptions, EquivReport, EquivVerdict};
use camsoc_netlist::graph::Netlist;
use camsoc_netlist::tech::Technology;
use camsoc_netlist::NetlistError;
use camsoc_par::Parallelism;
use camsoc_sta::{
    multi_corner, Constraints, Corner, CornerSignoff, IncrementalSta, Sta, StaError,
    TimingReport, UpdateStats,
};

use crate::resilience::{
    AttemptOutcome, FaultInjector, FaultKind, FlowTrace, QualityGates, RetryPolicy,
    StageAttempt, StageId,
};

/// Flow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Target technology.
    pub tech: Technology,
    /// Clock port name.
    pub clock_port: String,
    /// Clock period in ns (7.5 ns = 133 MHz for the DSC).
    pub clock_period_ns: f64,
    /// Scan-insertion options.
    pub scan: ScanConfig,
    /// ATPG options (set `fault_sample` for large designs).
    pub atpg: AtpgConfig,
    /// Back-end options.
    pub layout: ImplementOptions,
    /// Maximum timing-fix ECO iterations.
    pub max_timing_fixes: usize,
    /// Dirty-cone fraction above which the ECO loop's incremental STA
    /// falls back to a full re-analysis.
    pub sta_cone_fraction: f64,
    /// Equivalence-check options.
    pub equiv: EquivOptions,
    /// One switch for the whole flow: propagated to every parallelized
    /// stage (ATPG fault simulation, multi-start placement, equivalence
    /// checking), overriding their per-stage settings. Results are
    /// bit-identical for every value — only wall-clock time changes.
    pub parallelism: Parallelism,
    /// Unread and not encoded: fault simulation has one engine. Kept
    /// only because the end-to-end benchmark's sources name this field.
    pub fsim_mode: FsimMode,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            tech: Technology::default(),
            clock_port: "clk".to_string(),
            clock_period_ns: 7.5,
            scan: ScanConfig::default(),
            atpg: AtpgConfig { fault_sample: Some(4_000), ..AtpgConfig::default() },
            layout: ImplementOptions::default(),
            max_timing_fixes: 4,
            sta_cone_fraction: 0.75,
            equiv: EquivOptions::default(),
            parallelism: Parallelism::Serial,
            fsim_mode: FsimMode::Cached,
        }
    }
}

/// Per-stage audit of [`Netlist::compile`] calls observed while the
/// flow ran, proving no kernel silently re-derives a
/// [`camsoc_netlist::CompiledNetlist`] that a sibling already built.
///
/// The counter behind it ([`compiles_on_this_thread`]) is thread-local;
/// every stage kernel derives its compiled view on the stage-driving
/// thread (the parallel stages compile once *before* fanning work out),
/// so the deltas captured around each stage are exact. A flow compiles
/// exactly twice: once in pre-layout STA (the input netlist), and once
/// in the Scan stage (the scanned netlist, whose snapshot ATPG, layout,
/// the timing-fix engine and equivalence read; the engine patches a
/// copy through the fix loops, and that copy is the final netlist's
/// snapshot). A checkpoint decode re-derives the snapshots outside any
/// stage, so a resumed run counts fewer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CompileStats {
    /// `(stage, compile calls while that stage ran)` in execution
    /// order, one entry per committed stage (retries included in the
    /// committed stage's figure).
    pub per_stage: Vec<(StageId, usize)>,
}

impl CompileStats {
    /// Total `Netlist::compile` calls across the whole flow.
    pub fn total(&self) -> usize {
        self.per_stage.iter().map(|(_, n)| n).sum()
    }

    /// Compile calls observed while `stage` ran (0 if it never ran).
    pub fn for_stage(&self, stage: StageId) -> usize {
        self.per_stage.iter().filter(|(s, _)| *s == stage).map(|(_, n)| n).sum()
    }

    fn record(&mut self, stage: StageId, compiles: usize) {
        self.per_stage.push((stage, compiles));
    }
}

/// Everything the flow produces.
#[derive(Debug)]
pub struct FlowResult {
    /// Pre-layout timing (estimated wires, no CTS).
    pub pre_layout_timing: TimingReport,
    /// Scan-insertion report.
    pub scan: ScanReport,
    /// ATPG result (the paper's "fault coverage was 93 %").
    pub atpg: AtpgResult,
    /// Back-end result (placement, routing, CTS, DRC, sign-off timing).
    pub layout: LayoutResult,
    /// Sign-off timing after the ECO loop (typical corner).
    pub signoff_timing: TimingReport,
    /// Two-corner sign-off of the post-ECO netlist: setup at the slow
    /// (worst) corner, hold at the fast (best) corner, both analyzed in
    /// one [`multi_corner::signoff`] fan-out.
    pub corner_signoff: CornerSignoff,
    /// Upsize/buffer ECOs applied by the timing-fix loop.
    pub timing_ecos: usize,
    /// Graph evaluations the ECO loop's incremental STA performed.
    pub sta_incremental_evals: usize,
    /// Evaluations the same re-analyses would have cost from scratch.
    pub sta_full_evals: usize,
    /// Formal equivalence of the post-fix netlist vs the scan netlist.
    pub equivalence: EquivReport,
    /// LVS of the final netlist vs the extracted view.
    pub lvs: LvsReport,
    /// The GDSII stream.
    pub gds: Vec<u8>,
    /// The final netlist (scanned + timing fixes).
    pub netlist: Netlist,
    /// Attempt-by-attempt supervision record (one successful attempt
    /// per stage on a clean run).
    pub trace: FlowTrace,
    /// Per-stage [`Netlist::compile`] audit (see [`CompileStats`]).
    pub compile_stats: CompileStats,
}

impl FlowResult {
    /// The sign-off gate: everything that must be true to tape out.
    pub fn tapeout_ready(&self) -> bool {
        self.signoff_timing.setup.clean()
            && self.signoff_timing.hold.clean()
            && self.layout.drc.clean()
            && self.lvs.clean()
            && self.equivalence.passed()
    }
}

/// Flow errors.
#[derive(Debug)]
pub enum FlowError {
    /// Netlist problem.
    Netlist(NetlistError),
    /// Timing analysis problem.
    Sta(StaError),
    /// Back-end problem.
    Layout(LayoutError),
    /// A stage panicked; the payload was contained by the supervisor.
    StagePanic {
        /// Stage that panicked.
        stage: StageId,
        /// Rendered panic payload.
        payload: String,
    },
    /// A [`FaultInjector`] forced this stage to fail (test-only by
    /// construction — the production injector never fires).
    Injected {
        /// Stage the fault fired on.
        stage: StageId,
    },
    /// A quality gate rejected the stage's output.
    Gate {
        /// Stage whose output was rejected.
        stage: StageId,
        /// Human-readable gate verdict.
        reason: String,
    },
    /// A stage was started without its prerequisite product (a drained
    /// or hand-built checkpoint).
    MissingInput {
        /// Stage that could not start.
        stage: StageId,
        /// The missing product.
        what: &'static str,
    },
    /// A stage kept failing until the retry budget ran out. Carries
    /// the full supervision trace and the last attempt's error.
    Exhausted {
        /// Stage that exhausted its budget.
        stage: StageId,
        /// Attempts made.
        attempts: usize,
        /// The final attempt's error.
        last: Box<FlowError>,
        /// Full attempt-by-attempt record of the run so far.
        trace: Box<FlowTrace>,
    },
    /// A failure that carries the partial [`FlowCheckpoint`] — every
    /// stage completed before the failure survives inside it, so the
    /// caller resumes from the last good stage instead of redoing the
    /// whole flow. Produced by [`FlowSupervisor::run`], which owns its
    /// checkpoint ([`FlowSupervisor::resume`] leaves the caller's
    /// checkpoint in place and returns the bare cause).
    Resumable {
        /// Everything completed before the failure.
        checkpoint: Box<FlowCheckpoint>,
        /// Why the run stopped.
        cause: Box<FlowError>,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist: {e}"),
            FlowError::Sta(e) => write!(f, "sta: {e}"),
            FlowError::Layout(e) => write!(f, "layout: {e}"),
            FlowError::StagePanic { stage, payload } => {
                write!(f, "stage {stage} panicked: {payload}")
            }
            FlowError::Injected { stage } => {
                write!(f, "stage {stage}: injected fault")
            }
            FlowError::Gate { stage, reason } => {
                write!(f, "stage {stage} gate failed: {reason}")
            }
            FlowError::MissingInput { stage, what } => {
                write!(f, "stage {stage} cannot start: missing {what}")
            }
            FlowError::Exhausted { stage, attempts, last, .. } => {
                write!(f, "stage {stage} exhausted {attempts} attempts; last: {last}")
            }
            FlowError::Resumable { checkpoint, cause } => {
                write!(
                    f,
                    "{cause} ({} stages checkpointed, resumable)",
                    checkpoint.completed_stages().len()
                )
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Netlist(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            FlowError::Layout(e) => Some(e),
            FlowError::Exhausted { last, .. } => Some(last.as_ref()),
            FlowError::Resumable { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}
impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}
impl From<LayoutError> for FlowError {
    fn from(e: LayoutError) -> Self {
        FlowError::Layout(e)
    }
}

impl FlowError {
    /// True for failures worth retrying with the same recipe: contained
    /// panics and injected faults. Typed domain errors (bad netlist, no
    /// clock, infeasible floorplan) are deterministic — retrying them
    /// re-derives the same error, so the supervisor fails fast instead.
    pub fn is_transient(&self) -> bool {
        match self {
            FlowError::StagePanic { .. } | FlowError::Injected { .. } => true,
            FlowError::Resumable { cause, .. } => cause.is_transient(),
            _ => false,
        }
    }

    /// The underlying failure, unwrapping a [`FlowError::Resumable`]
    /// shell (identity for every other variant).
    pub fn cause(&self) -> &FlowError {
        match self {
            FlowError::Resumable { cause, .. } => cause,
            other => other,
        }
    }

    /// Split a [`FlowError::Resumable`] into its salvaged checkpoint
    /// and underlying cause. Other variants come back with no
    /// checkpoint.
    pub fn into_parts(self) -> (Option<FlowCheckpoint>, FlowError) {
        match self {
            FlowError::Resumable { checkpoint, cause } => (Some(*checkpoint), *cause),
            other => (None, other),
        }
    }
}

/// Output of the timing-fix ECO loop stage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimingFixOutcome {
    pub(crate) netlist: Netlist,
    /// Snapshot of `netlist`; never encoded (a decode re-derives it).
    pub(crate) compiled: CompiledNetlist,
    pub(crate) signoff_timing: TimingReport,
    pub(crate) corner_signoff: CornerSignoff,
    pub(crate) timing_ecos: usize,
    pub(crate) sta_incremental_evals: usize,
    pub(crate) sta_full_evals: usize,
}

/// One stage's committed product.
#[allow(clippy::large_enum_variant)] // stored, but at most one per stage: nine in all
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StageOutput {
    Validated,
    PreSta(TimingReport),
    /// The scanned netlist with its snapshot, which is never encoded (a
    /// decode re-derives it).
    Scan { netlist: Netlist, compiled: CompiledNetlist, report: ScanReport },
    Atpg(AtpgResult),
    Layout(LayoutResult),
    TimingFix(TimingFixOutcome),
    Equiv(EquivReport),
    Lvs(LvsReport),
    StreamOut(Vec<u8>),
}

/// All intermediate products of a run: the input, then the product of
/// each completed stage in [`StageId::ALL`] order. Stages run strictly in
/// that order, so `StageId::ALL[i]` is complete exactly when
/// `i < done.len()`, and `done[i]` is its product.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct FlowState {
    pub(crate) input: Option<Netlist>,
    pub(crate) done: Vec<StageOutput>,
}

impl FlowState {
    fn input(&self, stage: StageId) -> Result<&Netlist, FlowError> {
        self.input.as_ref().ok_or(FlowError::MissingInput { stage, what: "input netlist" })
    }

    /// The scanned netlist and its snapshot, committed together by Scan.
    fn scanned(&self, stage: StageId) -> Result<(&Netlist, &CompiledNetlist), FlowError> {
        match self.done.get(StageId::Scan.index()) {
            Some(StageOutput::Scan { netlist, compiled, .. }) => Ok((netlist, compiled)),
            _ => Err(FlowError::MissingInput { stage, what: "scanned netlist" }),
        }
    }

    fn layout(&self, stage: StageId) -> Result<&LayoutResult, FlowError> {
        match self.done.get(StageId::Layout.index()) {
            Some(StageOutput::Layout(layout)) => Ok(layout),
            _ => Err(FlowError::MissingInput { stage, what: "layout result" }),
        }
    }

    fn fix(&self, stage: StageId) -> Result<&TimingFixOutcome, FlowError> {
        match self.done.get(StageId::TimingFix.index()) {
            Some(StageOutput::TimingFix(fix)) => Ok(fix),
            _ => Err(FlowError::MissingInput { stage, what: "timing-fix outcome" }),
        }
    }
}

/// In-memory checkpoint of a (possibly partial) flow run: the products
/// of every completed stage plus the supervision trace.
///
/// Create one with [`FlowCheckpoint::new`], drive it with
/// [`FlowSupervisor::resume`]. If the run fails, the checkpoint keeps
/// every stage completed so far; a later `resume` (possibly with
/// different options, gates or budget) continues from the last good
/// stage without redoing earlier work. A **successful** run drains the
/// checkpoint into its [`FlowResult`]; the checkpoint is then spent.
#[derive(Debug, Default, Clone)]
pub struct FlowCheckpoint {
    pub(crate) state: FlowState,
    pub(crate) trace: FlowTrace,
    /// Transient per-process audit; deliberately outside the persisted
    /// image and the equality contract — a checkpoint reloaded from
    /// disk compares equal to the one that wrote it even though the
    /// writing process observed the compiles.
    pub(crate) compile_stats: CompileStats,
}

impl PartialEq for FlowCheckpoint {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && self.trace == other.trace
    }
}

impl FlowCheckpoint {
    /// Start a checkpoint from an unprocessed netlist.
    pub fn new(netlist: Netlist) -> Self {
        FlowCheckpoint {
            state: FlowState { input: Some(netlist), ..FlowState::default() },
            trace: FlowTrace::default(),
            compile_stats: CompileStats::default(),
        }
    }

    /// Whether a stage's product is present.
    pub fn is_complete(&self, stage: StageId) -> bool {
        stage.index() < self.state.done.len()
    }

    /// Stages whose products are present, in execution order.
    pub fn completed_stages(&self) -> Vec<StageId> {
        StageId::ALL[..self.state.done.len()].to_vec()
    }

    /// The supervision trace accumulated so far (spans resumes).
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }

    /// Mark the trace as a resumed run. [`FlowSupervisor::resume`] does
    /// this automatically from the completed-stage count; callers that
    /// step stages one at a time with [`FlowSupervisor::advance`] after
    /// reloading a checkpoint from disk record the resumption here.
    pub fn mark_resumed(&mut self) {
        self.trace.resumed = true;
    }

    /// Drain a fully-complete checkpoint into its [`FlowResult`] (the
    /// checkpoint is then spent). This is how per-stage drivers
    /// ([`FlowSupervisor::advance`] until `None`) collect the product
    /// that [`FlowSupervisor::resume`] would have returned.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingInput`] naming the first absent stage
    /// product if the flow has not actually finished.
    pub fn finish(&mut self) -> Result<FlowResult, FlowError> {
        if let Some(&stage) = StageId::ALL.get(self.state.done.len()) {
            // nothing is taken: the checkpoint can still be resumed
            return Err(FlowError::MissingInput { stage, what: "stage product" });
        }
        let Ok(
            [
                StageOutput::Validated,
                StageOutput::PreSta(pre_layout_timing),
                StageOutput::Scan { report: scan, .. },
                StageOutput::Atpg(atpg),
                StageOutput::Layout(layout),
                StageOutput::TimingFix(fix),
                StageOutput::Equiv(equivalence),
                StageOutput::Lvs(lvs),
                StageOutput::StreamOut(gds),
            ],
        ) = <[StageOutput; 9]>::try_from(std::mem::take(&mut self.state.done))
        else {
            unreachable!("one product per stage, committed in stage order");
        };
        // fully spend the checkpoint: retaining the input would let a
        // second resume silently re-run the flow from scratch
        self.state.input = None;
        Ok(FlowResult {
            pre_layout_timing,
            scan,
            atpg,
            layout,
            signoff_timing: fix.signoff_timing,
            corner_signoff: fix.corner_signoff,
            timing_ecos: fix.timing_ecos,
            sta_incremental_evals: fix.sta_incremental_evals,
            sta_full_evals: fix.sta_full_evals,
            equivalence,
            lvs,
            gds,
            netlist: fix.netlist,
            trace: std::mem::take(&mut self.trace),
            compile_stats: std::mem::take(&mut self.compile_stats),
        })
    }
}

/// Staged, supervised execution of the Netlist→GDSII flow.
///
/// Wraps every stage in `catch_unwind`, checks [`QualityGates`] on each
/// output, retries failures under a [`RetryPolicy`] with deterministic
/// effort escalation, records everything in a [`FlowTrace`], and keeps
/// a [`FlowCheckpoint`] so failed runs resume from the last good stage.
///
/// ```
/// use camsoc_core::flow::{FlowOptions, FlowSupervisor};
/// use camsoc_netlist::generate::{self, IpBlockParams};
///
/// let nl = generate::ip_block(
///     "blk",
///     &IpBlockParams { target_gates: 200, seed: 1, ..Default::default() },
/// )
/// .unwrap();
/// let result = FlowSupervisor::new(FlowOptions::default()).run(nl).unwrap();
/// assert!(result.tapeout_ready());
/// // one successful attempt per stage, nothing retried
/// assert_eq!(result.trace.attempts.len(), 9);
/// assert_eq!(result.trace.retries(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowSupervisor {
    options: FlowOptions,
    policy: RetryPolicy,
    gates: QualityGates,
    injector: FaultInjector,
    hier: Option<HardMacros>,
}

impl FlowSupervisor {
    /// Supervisor with the default retry policy, gates and no fault
    /// injection.
    pub fn new(options: FlowOptions) -> Self {
        FlowSupervisor {
            options,
            policy: RetryPolicy::default(),
            gates: QualityGates::default(),
            injector: FaultInjector::none(),
            hier: None,
        }
    }

    /// Run hierarchically: the input netlist's macro instances named in
    /// `hard` are treated as pre-hardened opaque blocks — the
    /// floorplanner places each as a fixed obstacle of its exact
    /// hardened outline, routing avoids the footprint, and every STA in
    /// the flow (pre-layout, layout sign-off, the ECO loop's
    /// incremental engine, the two-corner sign-off) times through the
    /// abstract's boundary arcs instead of the generic memory model.
    /// Macros without an entry keep the generic treatment, so mixed
    /// designs work. Build a [`HardMacros`] from hardened abstracts
    /// with [`crate::hier::hard_macros`].
    pub fn with_hier(mut self, hard: HardMacros) -> Self {
        self.hier = Some(hard);
        self
    }

    /// Replace the retry/escalation budget.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the per-stage quality gates.
    pub fn with_gates(mut self, gates: QualityGates) -> Self {
        self.gates = gates;
        self
    }

    /// Arm a fault injector (testing only; the default injector never
    /// fires).
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Run the full flow from scratch.
    ///
    /// # Errors
    ///
    /// [`FlowError::Resumable`] once a stage fails beyond recovery: the
    /// underlying cause wrapped together with the internal
    /// [`FlowCheckpoint`], so every stage completed before the failure
    /// is salvaged — hand the checkpoint back to
    /// [`FlowSupervisor::resume`] (possibly under different gates or
    /// budget) to continue from the last good stage instead of redoing
    /// the whole flow.
    pub fn run(&self, netlist: Netlist) -> Result<FlowResult, FlowError> {
        let mut checkpoint = FlowCheckpoint::new(netlist);
        self.resume(&mut checkpoint).map_err(|cause| FlowError::Resumable {
            checkpoint: Box::new(checkpoint),
            cause: Box::new(cause),
        })
    }

    /// Drive every stage the checkpoint has not yet completed. Fresh
    /// checkpoints run the whole flow; partial ones (from a failed
    /// earlier run) continue from the last good stage without redoing
    /// earlier work.
    ///
    /// On success the checkpoint's products are drained into the
    /// returned [`FlowResult`] (the checkpoint is then spent). On
    /// failure the checkpoint keeps everything completed so far and can
    /// be resumed again.
    ///
    /// # Errors
    ///
    /// [`FlowError`] once a stage fails beyond recovery: immediately
    /// for deterministic domain errors (see [`FlowError::is_transient`])
    /// or as [`FlowError::Exhausted`] when the retry budget runs out.
    pub fn resume(&self, checkpoint: &mut FlowCheckpoint) -> Result<FlowResult, FlowError> {
        if !checkpoint.completed_stages().is_empty() {
            checkpoint.trace.resumed = true;
        }
        while self.advance(checkpoint)?.is_some() {}
        checkpoint.finish()
    }

    /// Run exactly one stage: the first whose product the checkpoint is
    /// missing. Returns the stage that ran, or `None` when every stage
    /// is already complete (drain the result with
    /// [`FlowCheckpoint::finish`]).
    ///
    /// This is the stepping primitive the durable job farm
    /// (`camsoc-serve`) is built on: it persists the checkpoint to disk
    /// after every `advance`, so a killed process loses at most the
    /// stage that was in flight.
    ///
    /// # Errors
    ///
    /// [`FlowError`] once the stage fails beyond recovery; the
    /// checkpoint keeps everything completed so far.
    pub fn advance(
        &self,
        checkpoint: &mut FlowCheckpoint,
    ) -> Result<Option<StageId>, FlowError> {
        let Some(&stage) = StageId::ALL.get(checkpoint.state.done.len()) else {
            return Ok(None);
        };
        self.run_stage(stage, checkpoint)?;
        Ok(Some(stage))
    }

    fn run_stage(
        &self,
        stage: StageId,
        checkpoint: &mut FlowCheckpoint,
    ) -> Result<(), FlowError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut effort = 0u32;
        let mut last: Option<FlowError> = None;
        // every kernel compiles on the stage-driving thread (parallel
        // stages compile once before fanning out), so this delta is the
        // stage's exact CompiledNetlist derivation count
        let compiles_before = compiles_on_this_thread();
        for attempt in 0..max_attempts {
            let escalations = escalation_notes(stage, effort);
            let started = Instant::now();
            let outcome = self.attempt_stage(stage, &checkpoint.state, attempt, effort);
            let duration = started.elapsed();
            let mut record = |outcome: AttemptOutcome| {
                checkpoint.trace.attempts.push(StageAttempt {
                    stage,
                    attempt,
                    effort,
                    escalations: escalations.clone(),
                    duration,
                    outcome,
                });
            };
            match outcome {
                Ok(output) => match check_gates(&output, &self.gates) {
                    Ok(()) => {
                        record(AttemptOutcome::Success);
                        checkpoint.state.done.push(output);
                        checkpoint
                            .compile_stats
                            .record(stage, compiles_on_this_thread() - compiles_before);
                        return Ok(());
                    }
                    Err(reason) => {
                        record(AttemptOutcome::GateFailed { reason: reason.clone() });
                        last = Some(gate_error(stage, &output, reason));
                        // quality shortfall: escalate effort for the retry
                        effort = (effort + 1).min(self.policy.max_effort);
                    }
                },
                Err(e) => {
                    if let FlowError::StagePanic { payload, .. } = &e {
                        record(AttemptOutcome::Panicked { payload: payload.clone() });
                    } else {
                        record(AttemptOutcome::Error { message: e.to_string() });
                    }
                    if !e.is_transient() {
                        // deterministic domain error: retrying re-derives it
                        return Err(e);
                    }
                    // transient: retry the same recipe (bit-identical on
                    // recovery), no escalation
                    last = Some(e);
                }
            }
        }
        Err(FlowError::Exhausted {
            stage,
            attempts: max_attempts,
            last: Box::new(last.unwrap_or(FlowError::Gate {
                stage,
                reason: "no attempt ran".to_string(),
            })),
            trace: Box::new(checkpoint.trace.clone()),
        })
    }

    fn attempt_stage(
        &self,
        stage: StageId,
        state: &FlowState,
        attempt: usize,
        effort: u32,
    ) -> Result<StageOutput, FlowError> {
        let fault = self.injector.fault_for(stage, attempt);
        match fault {
            Some(FaultKind::Error) => return Err(FlowError::Injected { stage }),
            // stages without a gated output degrade into a hard error
            Some(FaultKind::Degrade)
                if matches!(stage, StageId::Validate | StageId::PreSta) =>
            {
                return Err(FlowError::Injected { stage });
            }
            _ => {}
        }
        let panic_payload = matches!(fault, Some(FaultKind::Panic))
            .then(|| self.injector.payload(stage, attempt));
        // Contain panics: state is only read inside, and the output is
        // discarded on unwind, so no partially-mutated product escapes.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = &panic_payload {
                panic!("{p}");
            }
            execute_stage(stage, state, &self.options, effort, self.hier.as_ref())
        }));
        match unwound {
            Ok(Ok(mut output)) => {
                if matches!(fault, Some(FaultKind::Degrade)) {
                    degrade_output(stage, &mut output);
                }
                Ok(output)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                Err(FlowError::StagePanic { stage, payload: panic_message(payload) })
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Human-readable knob changes an effort level applies (empty at the
/// base level and for stages without effort knobs).
fn escalation_notes(stage: StageId, effort: u32) -> Vec<String> {
    if effort == 0 {
        return Vec::new();
    }
    match stage {
        StageId::Atpg => vec![
            format!("podem backtrack x{}", 1u64 << effort.min(16)),
            format!("+{} random blocks", 32 * effort),
            format!("+{} stall tolerance", 2 * effort),
        ],
        StageId::Layout => vec![
            format!("+{effort} placement starts"),
            format!("+{} reroute rounds", 4 * effort),
            format!("congestion penalty x{:.1}", 1.0 + 0.5 * f64::from(effort)),
        ],
        StageId::TimingFix => vec![format!("+{} fix iterations", 2 * effort)],
        StageId::Equiv => vec![
            format!("+{} random rounds", 16 * effort),
            format!("+{} BDD support", 4 * effort),
            format!("BDD nodes x{}", 1u64 << effort.min(16)),
        ],
        _ => Vec::new(),
    }
}

/// The per-stage quality gates (a disabled gate always passes). The
/// output variant identifies the stage, so matching on the output alone
/// is enough.
fn check_gates(output: &StageOutput, gates: &QualityGates) -> Result<(), String> {
    let failure = match output {
        StageOutput::Scan { report, .. } => match gates.min_scan_flops {
            Some(min) if report.scan_flops < min => {
                Some(format!("{} scan flops < floor {min}", report.scan_flops))
            }
            _ => None,
        },
        StageOutput::Atpg(r) => match gates.min_fault_coverage {
            Some(floor) if r.fault_coverage() < floor => Some(format!(
                "fault coverage {:.3} < floor {floor:.3}",
                r.fault_coverage()
            )),
            _ => None,
        },
        StageOutput::Layout(l) => match gates.max_route_overflow {
            Some(cap) if l.routing.total_overflow > cap => Some(format!(
                "routing overflow {} tracks ({} nets) > cap {cap}",
                l.routing.total_overflow, l.routing.unrouted_nets
            )),
            _ => None,
        },
        StageOutput::TimingFix(fx)
            if gates.require_timing_closure && !fx.signoff_timing.clean() =>
        {
            Some(format!(
                "timing not closed: setup WNS {:+.3} ns ({} viol), hold WNS {:+.3} ns ({} viol)",
                fx.signoff_timing.setup.wns_ns,
                fx.signoff_timing.setup.violations,
                fx.signoff_timing.hold.wns_ns,
                fx.signoff_timing.hold.violations
            ))
        }
        StageOutput::Equiv(r) if gates.require_equivalence && !r.passed() => {
            Some(format!("equivalence verdict {:?}", r.verdict))
        }
        StageOutput::Lvs(r) if gates.require_lvs_clean && !r.clean() => {
            Some(format!("{} LVS mismatches", r.mismatches.len()))
        }
        StageOutput::StreamOut(gds) if gates.require_gds => {
            if gds.is_empty() {
                Some("empty GDSII stream".to_string())
            } else if let Err(e) = gdsii::verify(gds) {
                Some(format!("malformed GDSII stream: {e}"))
            } else {
                None
            }
        }
        _ => None,
    };
    match failure {
        Some(reason) => Err(reason),
        None => Ok(()),
    }
}

/// The typed error a gate failure becomes once the budget is exhausted.
fn gate_error(stage: StageId, output: &StageOutput, reason: String) -> FlowError {
    if let (StageId::Layout, StageOutput::Layout(l)) = (stage, output) {
        return FlowError::Layout(LayoutError::Routing {
            total_overflow: l.routing.total_overflow,
            unrouted: l.routing.unrouted_nets,
        });
    }
    FlowError::Gate { stage, reason }
}

/// Corrupt a stage's output so its gate rejects it (fault injection
/// only).
fn degrade_output(stage: StageId, output: &mut StageOutput) {
    match (stage, output) {
        (StageId::Scan, StageOutput::Scan { report, .. }) => {
            report.scan_flops = 0;
            report.chains.clear();
        }
        (StageId::Atpg, StageOutput::Atpg(r)) => {
            r.detected = 0;
            r.random_detected = 0;
            r.podem_detected = 0;
            r.patterns.clear();
        }
        (StageId::Layout, StageOutput::Layout(l)) => {
            l.routing.total_overflow += 1_000;
            l.routing.overflowed_edges += 1;
            l.routing.unrouted_nets += 17;
        }
        (StageId::TimingFix, StageOutput::TimingFix(fx)) => {
            fx.signoff_timing.setup.wns_ns = -1.0;
            fx.signoff_timing.setup.tns_ns = -1.0;
            fx.signoff_timing.setup.violations = 1;
        }
        (StageId::Equiv, StageOutput::Equiv(r)) => {
            r.verdict = EquivVerdict::InterfaceMismatch {
                detail: "injected degradation".to_string(),
            };
        }
        (StageId::Lvs, StageOutput::Lvs(r)) => {
            r.mismatches.push(camsoc_layout::lvs::LvsMismatch::InstanceOnlyIn {
                side: "layout",
                name: "injected_degradation".to_string(),
            });
        }
        (StageId::StreamOut, StageOutput::StreamOut(gds)) => gds.clear(),
        _ => {}
    }
}

fn atpg_config(options: &FlowOptions, effort: u32) -> AtpgConfig {
    AtpgConfig { parallelism: options.parallelism, ..options.atpg.clone() }.escalated(effort)
}

fn layout_config(options: &FlowOptions, effort: u32) -> ImplementOptions {
    let mut layout = options.layout.clone();
    layout.placement.parallelism = options.parallelism;
    layout.routing.parallelism = options.parallelism;
    layout.escalated(effort)
}

/// Arm an [`Sta`] with the hierarchical boundary models, when any.
fn sta_with_hier<'a>(sta: Sta<'a>, hier: Option<&HardMacros>) -> Sta<'a> {
    match hier {
        Some(h) if !h.timing.is_empty() => sta.with_macro_timing(h.timing.clone()),
        _ => sta,
    }
}

fn equiv_config(options: &FlowOptions, effort: u32) -> EquivOptions {
    EquivOptions { parallelism: options.parallelism, ..options.equiv.clone() }
        .escalated(effort)
}

/// Run one stage against the current state. Pure with respect to
/// `state`: outputs are returned, never written in place, so a panicked
/// or rejected attempt leaves no partial product behind.
fn execute_stage(
    stage: StageId,
    state: &FlowState,
    options: &FlowOptions,
    effort: u32,
    hier: Option<&HardMacros>,
) -> Result<StageOutput, FlowError> {
    let constraints =
        Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    match stage {
        StageId::Validate => {
            state.input(stage)?.validate()?;
            Ok(StageOutput::Validated)
        }
        StageId::PreSta => {
            let nl = state.input(stage)?;
            let report =
                sta_with_hier(Sta::new(nl, &options.tech, constraints), hier).analyze()?;
            Ok(StageOutput::PreSta(report))
        }
        StageId::Scan => {
            let nl = state.input(stage)?;
            let (scanned, report) = insert_scan(nl.clone(), &options.scan)?;
            let compiled = scanned.compile()?;
            Ok(StageOutput::Scan { netlist: scanned, compiled, report })
        }
        StageId::Atpg => {
            let (scanned, compiled) = state.scanned(stage)?;
            let result =
                Atpg::with_compiled(scanned, compiled, atpg_config(options, effort)).run();
            Ok(StageOutput::Atpg(result))
        }
        StageId::Layout => {
            let (scanned, compiled) = state.scanned(stage)?;
            let result = implement_with(
                scanned,
                compiled,
                &options.tech,
                &constraints,
                &layout_config(options, effort),
                hier,
            )?;
            Ok(StageOutput::Layout(result))
        }
        StageId::TimingFix => {
            let (scanned, compiled) = state.scanned(stage)?;
            let layout = state.layout(stage)?;
            let outcome = stage_timing_fix(scanned, compiled, layout, options, effort, hier)?;
            Ok(StageOutput::TimingFix(outcome))
        }
        StageId::Equiv => {
            let (scanned, compiled) = state.scanned(stage)?;
            let fix = state.fix(stage)?;
            let report = check_models(
                &CombModel::with_compiled(scanned, compiled),
                &CombModel::with_compiled(&fix.netlist, &fix.compiled),
                &equiv_config(options, effort),
            );
            Ok(StageOutput::Equiv(report))
        }
        StageId::Lvs => {
            // final netlist vs the "extracted" database (identity here —
            // extraction corruption is exercised in the LVS crate's own
            // tests)
            let fix = state.fix(stage)?;
            Ok(StageOutput::Lvs(lvs_compare(&fix.netlist, &fix.netlist)))
        }
        StageId::StreamOut => {
            let fix = state.fix(stage)?;
            let layout = state.layout(stage)?;
            Ok(StageOutput::StreamOut(stream_out(&fix.netlist, layout)))
        }
    }
}

/// The timing-fix ECO loop on the sign-off view: upsizing for setup,
/// delay-buffer insertion for hold (the paper's "3 ECO changes to fix
/// setup/hold time violation"). Timing is re-derived incrementally per
/// fix round, on a copy of the scanned netlist's snapshot that the
/// engine patches. Effort escalation widens the iteration budget.
fn stage_timing_fix(
    scanned: &Netlist,
    scanned_compiled: &CompiledNetlist,
    layout: &LayoutResult,
    options: &FlowOptions,
    effort: u32,
    hier: Option<&HardMacros>,
) -> Result<TimingFixOutcome, FlowError> {
    let constraints =
        Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let max_timing_fixes = options.max_timing_fixes + 2 * effort as usize;
    let mut eco = EcoSession::new(scanned.clone());
    let mut signoff_timing = layout.timing.clone();
    let mut timing_ecos = 0usize;
    let mut wires = layout.wire_delays_ns.clone();
    let mut sta_incremental_evals = 0usize;
    let mut sta_full_evals = 0usize;
    // Baseline the incremental engine on the pre-ECO sign-off view; each
    // rerun in the fix loops then re-times only the edited cones. A fix
    // loop runs only while sign-off is unclean, so when it is already
    // clean no engine is built and no loop runs.
    let mut engine: Option<IncrementalSta> = if signoff_timing.clean() {
        None
    } else {
        let (inc, _) = sta_with_hier(
            Sta::new(eco.netlist(), &options.tech, constraints.clone())
                .with_compiled(scanned_compiled)
                .with_wire_delays(wires.clone())
                .with_clock_latency(layout.clock_tree.latency_ns.clone()),
            hier,
        )
        .into_incremental()?;
        Some(inc.with_max_cone_fraction(options.sta_cone_fraction))
    };
    let rerun_sta = |eco: &mut EcoSession,
                     wires: &mut Vec<f64>,
                     engine: &mut Option<IncrementalSta>|
     -> Result<(TimingReport, UpdateStats), StaError> {
        // ECO-inserted nets get the short-wire estimate (they are
        // placed next to their driver in a real flow)
        wires.resize(eco.netlist().num_nets(), 0.01);
        let delta = eco.take_delta();
        let inc = engine.as_mut().expect("a fix loop runs only on an unclean sign-off");
        inc.set_wire_delays(wires.clone());
        let report = inc.update(eco.netlist(), &options.tech, &delta)?;
        Ok((report, *inc.stats()))
    };
    let mut iterations = 0usize;
    while !signoff_timing.setup.clean() && iterations < max_timing_fixes {
        iterations += 1;
        let Some(path) = signoff_timing.critical_path.clone() else {
            break;
        };
        let mut fixed_any = false;
        for step in path.steps.iter().rev().take(6) {
            if step.cell.is_empty() {
                continue;
            }
            if let Some(inst) = eco.netlist().find_instance(&step.instance) {
                if eco.upsize(inst).is_ok() {
                    timing_ecos += 1;
                    fixed_any = true;
                }
            }
        }
        if !fixed_any {
            break;
        }
        let (report, stats) = rerun_sta(&mut eco, &mut wires, &mut engine)?;
        signoff_timing = report;
        sta_incremental_evals += stats.evaluated;
        sta_full_evals += stats.full_evaluated;
    }
    let mut hold_rounds = 0usize;
    let max_hold_rounds = max_timing_fixes.max(6);
    while !signoff_timing.hold.clean() && hold_rounds < max_hold_rounds {
        hold_rounds += 1;
        let mut fixed_any = false;
        for (net_name, _) in signoff_timing.hold_violations.clone() {
            // two delay buffers per violating endpoint; either insertion
            // counts as progress, and a net renamed/absorbed by the
            // first insertion simply skips the second
            if let Some(net) = eco.netlist().find_net(&net_name) {
                if eco.insert_buffer(net, camsoc_netlist::cell::Drive::X1).is_ok() {
                    timing_ecos += 1;
                    fixed_any = true;
                }
                if let Some(net2) = eco.netlist().find_net(&net_name) {
                    if eco.insert_buffer(net2, camsoc_netlist::cell::Drive::X1).is_ok() {
                        timing_ecos += 1;
                        fixed_any = true;
                    }
                }
            }
        }
        if !fixed_any {
            break;
        }
        let (report, stats) = rerun_sta(&mut eco, &mut wires, &mut engine)?;
        signoff_timing = report;
        sta_incremental_evals += stats.evaluated;
        sta_full_evals += stats.full_evaluated;
    }
    // Two-corner sign-off of the post-ECO netlist: setup where delays
    // are slowest, hold where they are fastest, both corners analyzed
    // concurrently over the flow's parallelism setting, over the final
    // netlist's snapshot: the engine's, patched by the update that ends
    // every fix round, or the scanned one when no fix loop ran.
    assert!(eco.delta().is_empty(), "every fix round ends in an engine update");
    let compiled = engine.map_or_else(|| scanned_compiled.clone(), IncrementalSta::into_compiled);
    wires.resize(eco.netlist().num_nets(), 0.01);
    let base = sta_with_hier(
        Sta::new(eco.netlist(), &options.tech, constraints)
            .with_compiled(&compiled)
            .with_wire_delays(wires)
            .with_clock_latency(layout.clock_tree.latency_ns.clone()),
        hier,
    );
    let corner_signoff =
        multi_corner::signoff(&base, Corner::worst(), Corner::best(), options.parallelism)?;
    let (netlist, _) = eco.finish();
    Ok(TimingFixOutcome {
        netlist,
        compiled,
        signoff_timing,
        corner_signoff,
        timing_ecos,
        sta_incremental_evals,
        sta_full_evals,
    })
}

/// ECO cells were added after placement; a real flow legalises them
/// next to their drivers, which is what the incremental placement here
/// does before streaming out.
fn stream_out(final_netlist: &Netlist, layout: &LayoutResult) -> Vec<u8> {
    let mut final_placement = layout.placement.clone();
    for idx in final_placement.x.len()..final_netlist.num_instances() {
        let inst = final_netlist.instance(camsoc_netlist::graph::InstanceId(idx as u32));
        let anchor = inst
            .inputs
            .iter()
            .find_map(|&n| match final_netlist.net(n).driver {
                Some(camsoc_netlist::graph::NetDriver::Instance(d))
                    if d.index() < layout.placement.x.len() =>
                {
                    Some((
                        layout.placement.x[d.index()],
                        layout.placement.y[d.index()],
                        layout.placement.row[d.index()],
                    ))
                }
                _ => None,
            })
            .unwrap_or((
                layout.floorplan.core.w / 2.0,
                layout.floorplan.core.h / 2.0,
                0,
            ));
        // nudge each ECO cell so outlines do not coincide exactly
        let nudge = (idx - layout.placement.x.len()) as f64 * 0.01 + 0.2;
        final_placement.x.push((anchor.0 + nudge).min(layout.floorplan.core.w));
        final_placement.y.push(anchor.1);
        final_placement.row.push(anchor.2);
    }
    gdsii::write(final_netlist, &layout.floorplan, &final_placement)
}

/// Run the full flow on a netlist under the default supervisor
/// (default retry policy and quality gates, no fault injection).
///
/// # Errors
///
/// [`FlowError`] from any stage.
pub fn run_flow(netlist: Netlist, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    FlowSupervisor::new(options.clone()).run(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsc::build_dsc;
    use camsoc_layout::place::{PlacementConfig, PlacementMode};

    fn quick_options() -> FlowOptions {
        FlowOptions {
            atpg: AtpgConfig {
                fault_sample: Some(400),
                max_random_blocks: 16,
                ..AtpgConfig::default()
            },
            layout: ImplementOptions {
                placement: PlacementConfig {
                    mode: PlacementMode::Wirelength,
                    iterations: 40_000,
                    ..PlacementConfig::default()
                },
                ..ImplementOptions::default()
            },
            ..FlowOptions::default()
        }
    }

    #[test]
    fn dsc_flow_reaches_tapeout() {
        let design = build_dsc(0.03).unwrap();
        let result = run_flow(design.netlist, &quick_options()).unwrap();
        assert!(result.scan.scan_flops > 0);
        assert!(result.atpg.fault_coverage() > 0.7, "cov {}", result.atpg.fault_coverage());
        assert!(
            result.equivalence.passed(),
            "equivalence failed: {:?}",
            result.equivalence.verdict
        );
        assert!(result.lvs.clean());
        assert!(!result.gds.is_empty());
        camsoc_layout::gdsii::verify(&result.gds).unwrap();
        assert!(
            result.tapeout_ready(),
            "not tapeout ready: setup {:?} hold {:?} drc {:?}",
            result.signoff_timing.setup,
            result.signoff_timing.hold,
            result.layout.drc.summary()
        );
        // a clean supervised run: one successful attempt per stage
        assert_eq!(result.trace.attempts.len(), StageId::ALL.len());
        assert_eq!(result.trace.retries(), 0);
        assert!(result.trace.attempts.iter().all(|a| a.outcome.is_success()));
    }

    #[test]
    fn timing_fixes_preserve_function() {
        // a slow clock gives zero violations; a brutally fast one forces
        // the ECO loop to engage (it may not fully close, but must stay
        // equivalent)
        let design = build_dsc(0.02).unwrap();
        let mut options = quick_options();
        options.clock_period_ns = 1.2;
        options.max_timing_fixes = 3;
        let result = run_flow(design.netlist, &options).unwrap();
        assert!(result.equivalence.passed());
        // the loop actually did something
        assert!(result.timing_ecos > 0, "expected timing ECOs");
        // ... and each rerun re-timed only the edited cones
        assert!(result.sta_incremental_evals > 0, "expected incremental reruns");
        assert!(
            result.sta_incremental_evals < result.sta_full_evals,
            "incremental STA should beat from-scratch evals ({} vs {})",
            result.sta_incremental_evals,
            result.sta_full_evals
        );
    }

    #[test]
    fn invalid_netlist_is_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_net("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_instance(
            "u0",
            camsoc_netlist::cell::Cell::new(
                camsoc_netlist::cell::CellFunction::Inv,
                camsoc_netlist::cell::Drive::X1,
            ),
            &[a],
            y,
            None,
            "top",
        )
        .unwrap();
        // a deterministic domain error is not retried: the cause
        // surfaces directly (not wrapped in Exhausted), and `run`
        // salvages the checkpoint around it
        let err = run_flow(nl, &FlowOptions::default()).unwrap_err();
        assert!(matches!(err.cause(), FlowError::Netlist(_)), "got {err}");
        let (checkpoint, cause) = err.into_parts();
        assert!(matches!(cause, FlowError::Netlist(_)));
        // nothing completed before Validate failed, but the input is
        // still in the checkpoint (nothing to redo, nothing lost)
        assert_eq!(checkpoint.expect("run carries its checkpoint").completed_stages(), []);
    }

    #[test]
    fn tapeout_gates_fail_individually() {
        let design = build_dsc(0.015).unwrap();
        let mut result = run_flow(design.netlist, &quick_options()).unwrap();
        assert!(result.tapeout_ready());

        // setup timing
        let clean_setup = result.signoff_timing.setup;
        result.signoff_timing.setup.violations = 1;
        result.signoff_timing.setup.wns_ns = -0.5;
        assert!(!result.tapeout_ready(), "setup gate did not trip");
        result.signoff_timing.setup = clean_setup;
        assert!(result.tapeout_ready());

        // hold timing
        let clean_hold = result.signoff_timing.hold;
        result.signoff_timing.hold.violations = 2;
        result.signoff_timing.hold.wns_ns = -0.1;
        assert!(!result.tapeout_ready(), "hold gate did not trip");
        result.signoff_timing.hold = clean_hold;
        assert!(result.tapeout_ready());

        // drc
        result.layout.drc.violations.push(
            camsoc_layout::drc::DrcViolation::RoutingOverflow { edges: 3 },
        );
        assert!(!result.tapeout_ready(), "drc gate did not trip");
        result.layout.drc.violations.clear();
        assert!(result.tapeout_ready());

        // lvs
        result.lvs.mismatches.push(
            camsoc_layout::lvs::LvsMismatch::InstanceOnlyIn {
                side: "layout",
                name: "ghost".to_string(),
            },
        );
        assert!(!result.tapeout_ready(), "lvs gate did not trip");
        result.lvs.mismatches.clear();
        assert!(result.tapeout_ready());

        // formal equivalence
        let clean_verdict = result.equivalence.verdict.clone();
        result.equivalence.verdict =
            EquivVerdict::InterfaceMismatch { detail: "x".to_string() };
        assert!(!result.tapeout_ready(), "equivalence gate did not trip");
        result.equivalence.verdict = clean_verdict;
        assert!(result.tapeout_ready());
    }

    #[test]
    fn flow_error_display_and_from_round_trips() {
        let e: FlowError = NetlistError::DuplicateName("n1".to_string()).into();
        assert!(matches!(e, FlowError::Netlist(_)));
        assert!(e.to_string().starts_with("netlist:"));

        let e: FlowError = StaError::NoClock.into();
        assert!(matches!(e, FlowError::Sta(_)));
        assert!(e.to_string().starts_with("sta:"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(StaError::UnclockedFlop("u1".to_string()).to_string().contains("u1"));
        assert!(StaError::CombinationalCycle("n9".to_string()).to_string().contains("n9"));

        // an STA failure inside the back end wraps twice without losing
        // the message
        let e: FlowError = LayoutError::from(StaError::NoClock).into();
        assert!(matches!(e, FlowError::Layout(LayoutError::Sta(_))));
        assert!(e.to_string().contains("no clock"));

        let e: FlowError =
            LayoutError::Routing { total_overflow: 12, unrouted: 3 }.into();
        assert!(matches!(e, FlowError::Layout(LayoutError::Routing { .. })));
        let text = e.to_string();
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("3"), "{text}");

        let e = FlowError::StagePanic {
            stage: StageId::Atpg,
            payload: "boom".to_string(),
        };
        assert_eq!(e.to_string(), "stage atpg panicked: boom");
        assert!(e.is_transient());

        let e = FlowError::Injected { stage: StageId::Layout };
        assert_eq!(e.to_string(), "stage layout: injected fault");
        assert!(e.is_transient());

        let e = FlowError::Gate { stage: StageId::Equiv, reason: "nope".to_string() };
        assert_eq!(e.to_string(), "stage equiv gate failed: nope");
        assert!(!e.is_transient());

        let e = FlowError::MissingInput { stage: StageId::Scan, what: "input netlist" };
        assert!(e.to_string().contains("missing input netlist"));

        let inner = FlowError::Gate {
            stage: StageId::StreamOut,
            reason: "empty GDSII stream".to_string(),
        };
        let e = FlowError::Exhausted {
            stage: StageId::StreamOut,
            attempts: 3,
            last: Box::new(inner),
            trace: Box::new(FlowTrace::default()),
        };
        let text = e.to_string();
        assert!(text.contains("stream-out"), "{text}");
        assert!(text.contains("3 attempts"), "{text}");
        assert!(text.contains("empty GDSII stream"), "{text}");
        let source = std::error::Error::source(&e).expect("exhausted carries a source");
        assert!(source.to_string().contains("gate failed"));
    }
}
