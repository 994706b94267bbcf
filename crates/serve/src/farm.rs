//! The durable, multi-process-safe job farm.
//!
//! A [`Farm`] drives queued tapeout jobs to completion with `workers`
//! threads, each running its own [`FlowSupervisor`] one stage at a
//! time. After every completed stage the job's [`FlowCheckpoint`] is
//! rewritten atomically, so killing the process at ANY instant loses at
//! most the stage currently in flight. The checkpoint is the only record
//! of a completed stage: the stage-boundary heartbeat reads the ledger
//! under its lock, and writes it only to preempt the job.
//!
//! The crash model is kill-safety, not power-loss durability: every
//! file is replaced by write-temp-then-rename, so a process killed at
//! any instant (`kill -9` included) leaves each file whole, old or new.
//! Nothing is `fsync`ed, so nothing is promised after a power loss or
//! an operating-system crash.
//!
//! Unlike its first incarnation, the farm does **not** own its
//! directory: any number of farms (threads or whole processes) may
//! share one. The ledger is the single scheduling source of truth, and
//! every claim or transition is a locked read-modify-write transaction
//! ([`JobLedger::update`]). Ownership is a *lease*: a claimed job's
//! ledger entry names its owner, and each farm holds an OS advisory
//! lock (`owners/<owner>.lock`, see [`crate::lock`]) for its entire
//! lifetime. A `running` entry is reclaimable exactly when its owner's
//! lock can be acquired — which the OS guarantees only happens once the
//! owning farm is gone, `kill -9` included. No heartbeat-timeout
//! guessing: staleness is proven, never inferred, which is why
//! reclamation preserves bit-identity (the survivor resumes from the
//! dead owner's last atomic checkpoint; stage products are pure
//! functions of the netlist and options).
//!
//! Scheduling is priority-then-FIFO: higher [`Priority`] first, id
//! order within a class. When a higher-priority job is waiting and
//! every worker is busy, the lowest-priority running job (highest id
//! tie-breaks) is *preempted* at its next stage boundary — parked on
//! its checkpoint in the `preempted` state, which any idle worker may
//! re-claim without an explicit release.
//!
//! Failures are contained per job. A panic anywhere in a job's driver
//! is caught at the worker loop and booked against that job; transient
//! failures requeue with deterministic attempt-counted backoff (the
//! default [`QuarantinePolicy`]) and land in the terminal `quarantined`
//! state once the budget is spent — a poison job can never wedge the
//! queue, poison a shared mutex, or take a worker down.
//!
//! The `stage_budget` knob bounds how many stages the farm as a whole
//! may execute before workers abandon their jobs *without* touching
//! the ledger — exactly the on-disk state a `kill -9` leaves behind —
//! which is how the tests and the CI smokes exercise crash recovery
//! deterministically in-process.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use camsoc_core::flow::{FlowResult, FlowSupervisor};
use camsoc_core::{FailureDisposition, FlowCheckpoint, QuarantinePolicy, StageId};

use crate::job::{JobError, JobId, JobRequest, JobState, Priority};
use crate::ledger::{JobLedger, LedgerEntry, LedgerError};
use crate::lock::{owner_is_stale, OwnerLease};
use crate::store::CheckpointStore;

/// Farm-level (as opposed to per-job) failures.
#[derive(Debug)]
pub enum FarmError {
    /// Filesystem failure on shared state.
    Io(io::Error),
    /// The ledger could not be read or written.
    Ledger(LedgerError),
    /// A job id was used in a way its ledger state forbids.
    BadTransition {
        /// The job.
        job: JobId,
        /// Its current state.
        state: Option<JobState>,
        /// What was attempted.
        action: &'static str,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Io(e) => write!(f, "farm I/O error: {e}"),
            FarmError::Ledger(e) => write!(f, "farm ledger error: {e}"),
            FarmError::BadTransition { job, state, action } => {
                write!(f, "cannot {action} {job} in state {state:?}")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Io(e) => Some(e),
            FarmError::Ledger(e) => Some(e),
            FarmError::BadTransition { .. } => None,
        }
    }
}

impl From<io::Error> for FarmError {
    fn from(e: io::Error) -> Self {
        FarmError::Io(e)
    }
}

impl From<LedgerError> for FarmError {
    fn from(e: LedgerError) -> Self {
        FarmError::Ledger(e)
    }
}

/// How one job ended within a single [`Farm::run_until_idle`] call.
#[derive(Debug)]
pub enum JobOutcome {
    /// Taped out; the full flow result, drained from the checkpoint.
    Done(Box<FlowResult>),
    /// Failed deterministically (bad spec, non-transient flow failure,
    /// broken durable state); ledger says `failed`, checkpoint kept.
    Failed(JobError),
    /// Deadline exceeded; ledger says `parked`, checkpoint intact,
    /// waiting for an explicit [`Farm::release`].
    Parked(JobError),
    /// Failed or panicked past the quarantine policy's retry budget;
    /// ledger says `quarantined`, request and checkpoint kept as
    /// evidence, never scheduled again.
    Quarantined(JobError),
    /// The farm's stage budget ran out mid-job: abandoned with the
    /// ledger still saying `running` under this farm's (now dropped)
    /// lease — the simulated kill. Any later farm on the directory
    /// reclaims and resumes it.
    Interrupted,
}

/// What one [`Farm::run_until_idle`] call accomplished.
#[derive(Debug, Default)]
pub struct FarmReport {
    /// Per-job *terminal* outcomes, in id order. Jobs still queued,
    /// preempted, in backoff, or owned by another live farm when the
    /// call returned do not appear.
    pub outcomes: BTreeMap<JobId, JobOutcome>,
    /// Stages executed across all jobs in this call.
    pub stages_executed: usize,
    /// Running jobs parked at a stage boundary to make room for
    /// higher-priority work.
    pub preemptions: usize,
    /// Transient failures that were requeued with backoff.
    pub retries: usize,
    /// Jobs that exhausted their retry budget and were quarantined.
    pub quarantines: usize,
    /// Jobs claimed out of a provably stale lease (a dead farm's
    /// `running` entries) during this call.
    pub reclaimed: usize,
    /// Artifact sets removed by the retention policy at the end of the
    /// call.
    pub pruned: usize,
}

impl FarmReport {
    /// True when every reported job taped out.
    pub fn all_done(&self) -> bool {
        self.outcomes.values().all(|o| matches!(o, JobOutcome::Done(_)))
    }

    /// True when the stage budget interrupted at least one job.
    pub fn interrupted(&self) -> bool {
        self.outcomes.values().any(|o| matches!(o, JobOutcome::Interrupted))
    }

    /// The flow result of `job`, if it taped out in this call.
    pub fn result(&self, job: JobId) -> Option<&FlowResult> {
        match self.outcomes.get(&job) {
            Some(JobOutcome::Done(r)) => Some(r),
            _ => None,
        }
    }

    /// Fold another report (e.g. a later polling round) into this one.
    pub fn absorb(&mut self, other: FarmReport) {
        self.outcomes.extend(other.outcomes);
        self.stages_executed += other.stages_executed;
        self.preemptions += other.preemptions;
        self.retries += other.retries;
        self.quarantines += other.quarantines;
        self.reclaimed += other.reclaimed;
        self.pruned += other.pruned;
    }
}

/// Which done/failed artifacts to keep on disk. Ledger entries are
/// never pruned (the history stays auditable), and quarantined
/// evidence is always kept regardless of this policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionPolicy {
    /// Keep the artifacts (request/checkpoint/GDS) of at most the last
    /// K `done` jobs; `None` keeps everything.
    pub keep_done: Option<usize>,
    /// Same for `failed` jobs.
    pub keep_failed: Option<usize>,
}

/// Process-wide counter so every `Farm::open` in this process gets a
/// distinct owner id without consulting a clock or an RNG.
static OPEN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The durable design-service job farm. See the module docs.
#[derive(Debug)]
pub struct Farm {
    store: CheckpointStore,
    ledger: JobLedger,
    lease: OwnerLease,
    workers: usize,
    stage_budget: Option<usize>,
    retention: RetentionPolicy,
    gds_export: bool,
    /// job → claim tick at which it becomes backoff-eligible again.
    backoff: BTreeMap<JobId, u64>,
    /// Monotonic count of claim attempts (the backoff clock).
    claim_tick: AtomicU64,
    reclaimed_total: usize,
}

/// Ledger file name inside a farm directory.
const LEDGER_FILE: &str = "ledger.txt";

impl Farm {
    /// Open the farm rooted at `dir` with `workers` worker threads,
    /// acquiring a fresh owner lease. `running` jobs whose lease is
    /// *provably stale* (the owning farm is gone — its liveness lock is
    /// acquirable) are reclaimed to `queued`; `running` jobs under a
    /// live lease belong to another farm sharing the directory and are
    /// left alone.
    ///
    /// # Errors
    ///
    /// [`FarmError`] if the directory cannot be created, the lease
    /// cannot be acquired, or the ledger is unreadable/malformed.
    pub fn open(dir: impl AsRef<Path>, workers: usize) -> Result<Self, FarmError> {
        let store = CheckpointStore::open(dir.as_ref())?;
        let mut ledger = JobLedger::open(store.dir().join(LEDGER_FILE))?;
        let owner =
            format!("farm-{}-{}", std::process::id(), OPEN_COUNTER.fetch_add(1, Ordering::Relaxed));
        let lease = OwnerLease::acquire(store.dir(), &owner)?;
        let dir = store.dir().to_path_buf();
        let me = lease.owner().to_string();
        let reclaimed_total = ledger.update(|t| {
            let stale: Vec<(JobId, LedgerEntry)> = t
                .iter()
                .filter(|(_, e)| {
                    e.state == JobState::Running
                        && e.owner != me
                        && owner_is_stale(&dir, &e.owner)
                })
                .map(|(id, e)| (id, e.clone()))
                .collect();
            let n = stale.len();
            for (id, mut e) in stale {
                e.detail = format!("reclaimed from stale lease of {}", e.owner);
                e.state = JobState::Queued;
                e.owner.clear();
                t.set(id, e);
            }
            n
        })?;
        Ok(Farm {
            store,
            ledger,
            lease,
            workers: workers.max(1),
            stage_budget: None,
            retention: RetentionPolicy::default(),
            gds_export: false,
            backoff: BTreeMap::new(),
            claim_tick: AtomicU64::new(0),
            reclaimed_total,
        })
    }

    /// Cap the total number of stages this farm may execute before
    /// workers abandon their jobs as if the process had been killed
    /// (checkpoints on disk, ledger frozen at `running` under a lease
    /// that dies with this farm).
    #[must_use]
    pub fn with_stage_budget(mut self, stages: usize) -> Self {
        self.stage_budget = Some(stages);
        self
    }

    /// Set the artifact [`RetentionPolicy`] (pruned after each
    /// [`Farm::run_until_idle`] call, or explicitly via [`Farm::prune`]).
    #[must_use]
    pub fn with_retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    /// Export each finished job's GDSII stream to `job-NNNNNN.gds` in
    /// the farm directory (so another process can verify bit-identity
    /// after this one exits).
    #[must_use]
    pub fn with_gds_export(mut self, export: bool) -> Self {
        self.gds_export = export;
        self
    }

    /// The farm directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// This farm's owner id (the name on its job leases).
    pub fn owner(&self) -> &str {
        self.lease.owner()
    }

    /// The ledger (read-only mirror of the last transaction's view).
    pub fn ledger(&self) -> &JobLedger {
        &self.ledger
    }

    /// Jobs currently claimable without a release: `queued` plus
    /// `preempted`, as of the last ledger transaction.
    pub fn queued(&self) -> usize {
        self.ledger
            .entries()
            .filter(|(_, e)| matches!(e.state, JobState::Queued | JobState::Preempted))
            .count()
    }

    /// Jobs this farm has claimed out of provably stale leases, open
    /// included.
    pub fn reclaimed(&self) -> usize {
        self.reclaimed_total
    }

    /// Submit a tapeout request: assigns the next id *inside* a ledger
    /// transaction (so two farms sharing the directory can never mint
    /// the same id), persists the request file, and records `queued`.
    ///
    /// # Errors
    ///
    /// [`FarmError`] if the request or ledger cannot be written; the
    /// job is not enqueued in that case.
    pub fn submit(&mut self, request: &JobRequest) -> Result<JobId, FarmError> {
        let store = &self.store;
        self.ledger.update(|t| -> Result<JobId, FarmError> {
            let id = JobId(t.max_id().map_or(0, |id| id.0 + 1));
            store.save_request(id, request)?;
            t.set(id, LedgerEntry::new(JobState::Queued, request.priority));
            Ok(id)
        })?
    }

    /// Put a parked job back in the queue, optionally with a new
    /// deadline (rewrites its durable request). Its checkpoint — every
    /// stage completed before the deadline hit — is kept, so released
    /// jobs continue rather than restart.
    ///
    /// # Errors
    ///
    /// [`FarmError::BadTransition`] if the job is not parked, or an
    /// I/O/ledger error persisting the change.
    pub fn release(
        &mut self,
        job: JobId,
        new_deadline: Option<Duration>,
    ) -> Result<(), FarmError> {
        let store = &self.store;
        self.ledger.update(|t| -> Result<(), FarmError> {
            let Some(entry) = t.get(job) else {
                return Err(FarmError::BadTransition { job, state: None, action: "release" });
            };
            if entry.state != JobState::Parked {
                return Err(FarmError::BadTransition {
                    job,
                    state: Some(entry.state),
                    action: "release",
                });
            }
            if let Some(deadline) = new_deadline {
                let mut request = store
                    .load_request(job)
                    .map_err(|e| FarmError::Io(io::Error::other(e.to_string())))?;
                request.deadline = Some(deadline);
                store.save_request(job, &request)?;
            }
            let mut entry = entry.clone();
            entry.state = JobState::Queued;
            entry.owner.clear();
            entry.detail.clear();
            t.set(job, entry);
            Ok(())
        })?
    }

    /// Drain everything this farm can claim with the configured worker
    /// threads, returning when nothing claimable remains (jobs owned by
    /// another *live* farm are not waited for — see
    /// [`Farm::run_until_drained`]) or the stage budget ran out.
    ///
    /// # Errors
    ///
    /// [`FarmError`] only for shared-state failures hit while claiming
    /// (ledger lock/rewrite). Per-job failures — panics included — are
    /// reported in the [`FarmReport`], never as a farm error, and never
    /// poison the farm.
    pub fn run_until_idle(&mut self) -> Result<FarmReport, FarmError> {
        self.ledger.refresh()?;
        let spawn = self.workers.min(self.queued().max(1));
        let shared = self.shared();
        std::thread::scope(|scope| {
            for _ in 0..spawn {
                scope.spawn(|| worker(&shared));
            }
        });
        if let Some(e) = shared.farm_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        let mut report = FarmReport {
            outcomes: shared.outcomes.into_inner().unwrap_or_else(PoisonError::into_inner),
            stages_executed: shared.stages_executed.load(Ordering::Relaxed),
            preemptions: shared.preemptions.load(Ordering::Relaxed),
            retries: shared.retries.load(Ordering::Relaxed),
            quarantines: shared.quarantines.load(Ordering::Relaxed),
            reclaimed: shared.reclaimed.load(Ordering::Relaxed),
            pruned: 0,
        };
        self.reclaimed_total += report.reclaimed;
        report.pruned = self.prune()?;
        Ok(report)
    }

    /// Keep calling [`Farm::run_until_idle`] (sleeping `poll` between
    /// rounds) until every ledger entry is terminal — `done`, `failed`,
    /// `quarantined`, or `parked` — absorbing each round's report. This
    /// is how a surviving farm waits out a sibling process: jobs under
    /// the sibling's live lease are untouchable, but the moment it dies
    /// its leases go stale and the next round claims them.
    ///
    /// Returns early (not yet drained) if the stage budget interrupts.
    ///
    /// # Errors
    ///
    /// [`FarmError`] as for [`Farm::run_until_idle`].
    pub fn run_until_drained(&mut self, poll: Duration) -> Result<FarmReport, FarmError> {
        let mut total = FarmReport::default();
        loop {
            let round = self.run_until_idle()?;
            let interrupted = round.interrupted();
            total.absorb(round);
            if interrupted {
                return Ok(total);
            }
            self.ledger.refresh()?;
            let drained = self.ledger.entries().all(|(_, e)| {
                matches!(
                    e.state,
                    JobState::Done | JobState::Failed | JobState::Quarantined | JobState::Parked
                )
            });
            if drained {
                return Ok(total);
            }
            std::thread::sleep(poll);
        }
    }

    /// The state the workers of one [`Farm::run_until_idle`] call share.
    fn shared(&mut self) -> Shared<'_> {
        Shared {
            dir: self.store.dir().to_path_buf(),
            store: &self.store,
            owner: self.lease.owner().to_string(),
            workers: self.workers,
            gds_export: self.gds_export,
            ledger: Mutex::new(&mut self.ledger),
            backoff: Mutex::new(&mut self.backoff),
            claim_tick: &self.claim_tick,
            outcomes: Mutex::new(BTreeMap::new()),
            busy: AtomicUsize::new(0),
            stages_left: self
                .stage_budget
                .map(|n| AtomicIsize::new(isize::try_from(n).unwrap_or(isize::MAX))),
            stages_executed: AtomicUsize::new(0),
            preemptions: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            quarantines: AtomicUsize::new(0),
            reclaimed: AtomicUsize::new(0),
            farm_error: Mutex::new(None),
        }
    }

    /// Apply the retention policy now: for `done` and `failed` jobs
    /// beyond the keep-last-K window (by id), remove request,
    /// checkpoint, and exported GDS. Quarantined evidence and ledger
    /// history are always kept. Returns the number of jobs pruned.
    ///
    /// # Errors
    ///
    /// [`FarmError::Io`] if an artifact removal fails.
    pub fn prune(&mut self) -> Result<usize, FarmError> {
        let mut pruned = 0;
        for (state, keep) in [
            (JobState::Done, self.retention.keep_done),
            (JobState::Failed, self.retention.keep_failed),
        ] {
            let Some(keep) = keep else { continue };
            let jobs = self.ledger.jobs_in(state); // ascending id = oldest first
            let excess = jobs.len().saturating_sub(keep);
            for &job in &jobs[..excess] {
                let had_artifacts = self.store.request_path(job).exists()
                    || self.store.checkpoint_path(job).exists()
                    || self.store.gds_path(job).exists();
                self.store.remove_request(job)?;
                self.store.remove_checkpoint(job)?;
                self.store.remove_gds(job)?;
                if had_artifacts {
                    pruned += 1;
                }
            }
        }
        Ok(pruned)
    }
}

/// A successfully claimed job: the lease is ours until we settle it.
#[derive(Debug, Clone, Copy)]
struct Claim {
    job: JobId,
    priority: Priority,
    /// Transient failures booked before this claim (selects the
    /// deterministic `materialize_attempt` and the next disposition).
    attempts: u32,
}

/// State shared by the worker threads of one `run_until_idle` call.
struct Shared<'a> {
    dir: std::path::PathBuf,
    store: &'a CheckpointStore,
    owner: String,
    workers: usize,
    gds_export: bool,
    ledger: Mutex<&'a mut JobLedger>,
    backoff: Mutex<&'a mut BTreeMap<JobId, u64>>,
    claim_tick: &'a AtomicU64,
    outcomes: Mutex<BTreeMap<JobId, JobOutcome>>,
    busy: AtomicUsize,
    stages_left: Option<AtomicIsize>,
    stages_executed: AtomicUsize,
    preemptions: AtomicUsize,
    retries: AtomicUsize,
    quarantines: AtomicUsize,
    reclaimed: AtomicUsize,
    farm_error: Mutex<Option<FarmError>>,
}

impl Shared<'_> {
    /// Take permission to run one stage. `false` = the budget is gone:
    /// the worker must abandon its job immediately (simulated kill).
    fn take_stage_token(&self) -> bool {
        match &self.stages_left {
            None => true,
            Some(left) => left.fetch_sub(1, Ordering::AcqRel) > 0,
        }
    }

    /// Claim the best eligible job under the ledger lock: `queued` and
    /// `preempted` entries, plus `running` entries whose lease is
    /// provably stale. Backoff only *deprioritizes*: if every candidate
    /// is still backing off, the nearest-eligible one is taken anyway,
    /// so the queue can never wedge on a retrying job.
    fn claim(&self) -> Result<Option<Claim>, FarmError> {
        let tick = self.claim_tick.fetch_add(1, Ordering::Relaxed);
        let mut backoff = self.backoff.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        let claim = ledger.update(|t| {
            let mut eligible: Vec<(Priority, JobId)> = Vec::new();
            let mut deferred: Vec<(u64, Priority, JobId)> = Vec::new();
            let mut stale: Vec<JobId> = Vec::new();
            for (id, e) in t.iter() {
                let claimable = match e.state {
                    JobState::Queued | JobState::Preempted => true,
                    JobState::Running => {
                        let reclaimable =
                            e.owner != self.owner && owner_is_stale(&self.dir, &e.owner);
                        if reclaimable {
                            stale.push(id);
                        }
                        reclaimable
                    }
                    _ => false,
                };
                if !claimable {
                    continue;
                }
                match backoff.get(&id) {
                    Some(&at) if at > tick => deferred.push((at, e.priority, id)),
                    _ => eligible.push((e.priority, id)),
                }
            }
            eligible.sort_by_key(|&(p, id)| (Reverse(p), id));
            deferred.sort_unstable();
            let pick = eligible
                .first()
                .map(|&(_, id)| id)
                .or_else(|| deferred.first().map(|&(_, _, id)| id));
            let job = pick?;
            let mut entry = t.get(job).cloned().expect("picked job has an entry");
            if stale.contains(&job) {
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
                entry.detail = format!("reclaimed from stale lease of {}", entry.owner);
            } else {
                entry.detail.clear();
            }
            entry.state = JobState::Running;
            entry.owner = self.owner.clone();
            let claim = Claim { job, priority: entry.priority, attempts: entry.attempts };
            t.set(job, entry);
            Some(claim)
        })?;
        if let Some(c) = claim {
            backoff.remove(&c.job);
        }
        Ok(claim)
    }

    /// One locked transition of `job`'s entry (used for settlement).
    /// The closure sees the fresh snapshot's entry.
    fn transition(
        &self,
        job: JobId,
        f: impl FnOnce(&mut LedgerEntry),
    ) -> Result<(), JobError> {
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        ledger
            .update(|t| {
                let mut entry = t
                    .get(job)
                    .cloned()
                    .unwrap_or_else(|| LedgerEntry::new(JobState::Queued, Priority::Normal));
                f(&mut entry);
                t.set(job, entry);
            })
            .map_err(|e| JobError::Storage { job, detail: e.to_string() })
    }

    /// Check the lease after a completed stage, and decide whether this
    /// job must yield: a locked read of the ledger that writes only to
    /// preempt (the lease needs no renewal, since the owner lock proves
    /// it alive, and the stage itself is recorded in the checkpoint).
    /// Preemption fires only when a strictly higher-priority job is
    /// waiting, every worker is busy, and this job is the designated
    /// victim (lowest priority among this farm's running jobs; highest
    /// id tie-breaks).
    fn heartbeat(&self, claim: Claim) -> Result<Heartbeat, JobError> {
        let busy = self.busy.load(Ordering::Acquire);
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        ledger
            .update(|t| {
                let Some(entry) = t.get(claim.job) else { return Heartbeat::LostLease };
                if entry.state != JobState::Running || entry.owner != self.owner {
                    return Heartbeat::LostLease;
                }
                let waiting_above = t
                    .iter()
                    .filter(|(_, e)| {
                        matches!(e.state, JobState::Queued | JobState::Preempted)
                            && e.priority > claim.priority
                    })
                    .map(|(id, _)| id)
                    .next();
                let victim = t
                    .iter()
                    .filter(|(_, e)| e.state == JobState::Running && e.owner == self.owner)
                    .min_by_key(|&(id, e)| (e.priority, Reverse(id)))
                    .map(|(id, _)| id);
                if let Some(waiting) = waiting_above {
                    if busy >= self.workers && victim == Some(claim.job) {
                        let mut entry = t.get(claim.job).cloned().expect("checked above");
                        entry.state = JobState::Preempted;
                        entry.owner.clear();
                        entry.detail = format!("preempted by {waiting}");
                        t.set(claim.job, entry);
                        self.preemptions.fetch_add(1, Ordering::Relaxed);
                        return Heartbeat::Preempted;
                    }
                }
                Heartbeat::Continue
            })
            .map_err(|e| JobError::Storage { job: claim.job, detail: e.to_string() })
    }

    fn finish_job(&self, job: JobId, outcome: JobOutcome) {
        self.outcomes.lock().unwrap_or_else(PoisonError::into_inner).insert(job, outcome);
    }

    fn fail_farm(&self, error: FarmError) {
        let mut slot = self.farm_error.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(error);
    }
}

/// Verdict of a stage-boundary heartbeat.
enum Heartbeat {
    /// Lease still ours; keep driving.
    Continue,
    /// This job was parked as `preempted`; the worker should go claim
    /// the higher-priority work.
    Preempted,
    /// The entry no longer names us (reclaimed after outside
    /// interference); abandon without touching it.
    LostLease,
}

/// One worker: claim, drive, settle, repeat — until nothing is
/// claimable or the stage budget dies. A panic anywhere inside the
/// driver is contained here and booked against the job.
fn worker(shared: &Shared<'_>) {
    loop {
        let claim = match shared.claim() {
            Ok(Some(c)) => c,
            Ok(None) => return,
            Err(e) => {
                shared.fail_farm(e);
                return;
            }
        };
        shared.busy.fetch_add(1, Ordering::AcqRel);
        let drive = catch_unwind(AssertUnwindSafe(|| drive(shared, claim))).unwrap_or_else(
            |payload| {
                Drive::Failed(JobError::Panicked {
                    job: claim.job,
                    payload: panic_payload(payload.as_ref()),
                })
            },
        );
        shared.busy.fetch_sub(1, Ordering::AcqRel);
        match drive {
            Drive::Done(result) => {
                if shared.gds_export {
                    if let Err(e) = shared.store.save_gds(claim.job, &result.gds) {
                        let err = JobError::Storage { job: claim.job, detail: e.to_string() };
                        settle_failure(shared, claim, err);
                        continue;
                    }
                }
                // Record `done` first so a kill between the record and
                // the checkpoint removal leaves a consistent "don't
                // requeue" state.
                let record = shared.transition(claim.job, |e| {
                    e.state = JobState::Done;
                    e.owner.clear();
                    e.detail.clear();
                });
                let outcome = match record {
                    Ok(()) => {
                        let _ = shared.store.remove_checkpoint(claim.job);
                        JobOutcome::Done(result)
                    }
                    Err(e) => JobOutcome::Failed(e),
                };
                shared.finish_job(claim.job, outcome);
            }
            Drive::Failed(error) => settle_failure(shared, claim, error),
            Drive::Parked(error) => {
                let detail = error.to_string();
                let record = shared.transition(claim.job, |e| {
                    e.state = JobState::Parked;
                    e.owner.clear();
                    e.detail = detail.clone();
                });
                let outcome = match record {
                    Ok(()) => JobOutcome::Parked(error),
                    Err(e) => JobOutcome::Failed(e),
                };
                shared.finish_job(claim.job, outcome);
            }
            Drive::Preempted | Drive::LostLease => {
                // The ledger transition already happened inside the
                // heartbeat; nothing terminal to report. Loop: the next
                // claim naturally picks the higher-priority job first.
            }
            Drive::Interrupted => {
                // Simulated kill: NO ledger update — it still says
                // `running` under our lease, exactly what a dead
                // process leaves (the lease goes stale when this farm
                // drops) — and the last checkpoint is already on disk.
                shared.finish_job(claim.job, JobOutcome::Interrupted);
                return;
            }
        }
    }
}

/// Book a failure against a job: retry with deterministic backoff,
/// quarantine past the budget, or fail outright — per the policy.
fn settle_failure(shared: &Shared<'_>, claim: Claim, error: JobError) {
    let failures = claim.attempts.saturating_add(1);
    match QuarantinePolicy::default().disposition(failures, error.is_retryable()) {
        FailureDisposition::Retry { backoff_slots } => {
            let detail = format!("retry {failures} after: {error}");
            match shared.transition(claim.job, |e| {
                e.state = JobState::Queued;
                e.owner.clear();
                e.attempts = failures;
                e.detail = detail.clone();
            }) {
                Ok(()) => {
                    let tick = shared.claim_tick.load(Ordering::Relaxed);
                    shared
                        .backoff
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(claim.job, tick.saturating_add(backoff_slots));
                    shared.retries.fetch_add(1, Ordering::Relaxed);
                    // Not terminal: no outcome. The job will be
                    // re-claimed (deprioritized by backoff) later.
                }
                Err(e) => shared.finish_job(claim.job, JobOutcome::Failed(e)),
            }
        }
        FailureDisposition::Quarantine => {
            let detail = format!("quarantined after {failures} failures; last: {error}");
            let record = shared.transition(claim.job, |e| {
                e.state = JobState::Quarantined;
                e.owner.clear();
                e.attempts = failures;
                e.detail = detail.clone();
            });
            let outcome = match record {
                Ok(()) => {
                    shared.quarantines.fetch_add(1, Ordering::Relaxed);
                    JobOutcome::Quarantined(error)
                }
                Err(e) => JobOutcome::Failed(e),
            };
            shared.finish_job(claim.job, outcome);
        }
        FailureDisposition::Fail => {
            let detail = error.to_string();
            let record = shared.transition(claim.job, |e| {
                e.state = JobState::Failed;
                e.owner.clear();
                e.detail = detail.clone();
            });
            let outcome = match record {
                Ok(()) => JobOutcome::Failed(error),
                Err(e) => JobOutcome::Failed(e),
            };
            shared.finish_job(claim.job, outcome);
        }
    }
}

fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Drive {
    Done(Box<FlowResult>),
    Failed(JobError),
    Parked(JobError),
    Preempted,
    LostLease,
    Interrupted,
}

/// Drive one claimed job from its durable state to a terminal outcome
/// (or a preemption/interruption), checkpointing after every completed
/// stage and renewing the lease at each boundary.
fn drive(shared: &Shared<'_>, claim: Claim) -> Drive {
    let job = claim.job;
    let request = match shared.store.load_request(job) {
        Ok(r) => r,
        Err(e) => return Drive::Failed(JobError::Storage { job, detail: e.to_string() }),
    };
    let mut checkpoint = match shared.store.load_checkpoint(job) {
        Ok(Some(mut ckpt)) => {
            ckpt.mark_resumed();
            ckpt
        }
        // May panic for a poison/flaky spec — contained by the worker.
        Ok(None) => match request.spec.materialize_attempt(claim.attempts) {
            Ok(netlist) => FlowCheckpoint::new(netlist),
            Err(error) => return Drive::Failed(JobError::Spec { job, error }),
        },
        Err(e) => return Drive::Failed(JobError::Storage { job, detail: e.to_string() }),
    };
    let supervisor = FlowSupervisor::new(request.options.clone());
    loop {
        if let Some(budget) = request.deadline {
            let spent: Duration = checkpoint.trace().attempts.iter().map(|a| a.duration).sum();
            if spent >= budget {
                let next_stage = StageId::ALL
                    .into_iter()
                    .find(|&s| !checkpoint.is_complete(s))
                    .unwrap_or(StageId::StreamOut);
                return Drive::Parked(JobError::DeadlineExceeded {
                    job,
                    spent,
                    budget,
                    next_stage,
                });
            }
        }
        // Budget accounting sits between stages — after the previous
        // stage's atomic checkpoint write — which is the only place a
        // real kill is observable from the disk's point of view.
        if !shared.take_stage_token() {
            return Drive::Interrupted;
        }
        match supervisor.advance(&mut checkpoint) {
            Ok(Some(_stage)) => {
                shared.stages_executed.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = shared.store.save_checkpoint(job, &checkpoint) {
                    return Drive::Failed(JobError::Storage { job, detail: e.to_string() });
                }
                match shared.heartbeat(claim) {
                    Ok(Heartbeat::Continue) => {}
                    Ok(Heartbeat::Preempted) => return Drive::Preempted,
                    Ok(Heartbeat::LostLease) => return Drive::LostLease,
                    Err(e) => return Drive::Failed(e),
                }
            }
            Ok(None) => {
                return match checkpoint.finish() {
                    Ok(result) => Drive::Done(Box::new(result)),
                    Err(error) => Drive::Failed(JobError::Flow { job, error }),
                };
            }
            Err(error) => {
                // The checkpoint keeps every completed stage even on
                // failure; persist it so a post-mortem resume (or a
                // retry) picks up where it stopped.
                let _ = shared.store.save_checkpoint(job, &checkpoint);
                return Drive::Failed(JobError::Flow { job, error });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DesignSpec;
    use camsoc_core::flow::FlowOptions;
    use std::os::unix::fs::MetadataExt;

    fn request(priority: Priority) -> JobRequest {
        let spec = DesignSpec::IpBlock { name: "beat".into(), target_gates: 200, seed: 1 };
        JobRequest::new(spec, FlowOptions::default()).with_priority(priority)
    }

    /// The ledger file's bytes and inode: an atomic rewrite renames a
    /// new file into place, so even a byte-identical rewrite shows.
    fn ledger_image(dir: &Path) -> (Vec<u8>, u64) {
        let path = dir.join(LEDGER_FILE);
        (std::fs::read(&path).unwrap(), std::fs::metadata(&path).unwrap().ino())
    }

    #[test]
    fn a_heartbeat_that_does_not_preempt_leaves_the_ledger_unwritten() {
        let dir = std::env::temp_dir().join(format!("camsoc-farm-beat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut farm = Farm::open(&dir, 1).unwrap();
        let low = farm.submit(&request(Priority::Low)).unwrap();
        let shared = farm.shared();
        let claim = shared.claim().unwrap().expect("one job is queued");
        assert_eq!(claim.job, low);
        shared.busy.store(1, Ordering::Release);

        // nothing waits above the job: the lease is checked, not renewed
        let claimed = ledger_image(&dir);
        assert!(matches!(shared.heartbeat(claim), Ok(Heartbeat::Continue)));
        assert_eq!(ledger_image(&dir), claimed, "a non-preempting heartbeat wrote the ledger");

        // critical work arrives through another farm while the only
        // worker is busy: the next heartbeat parks the job, and says so
        let critical = Farm::open(&dir, 1).unwrap().submit(&request(Priority::Critical)).unwrap();
        assert!(matches!(shared.heartbeat(claim), Ok(Heartbeat::Preempted)));
        let ledger = JobLedger::open(dir.join(LEDGER_FILE)).unwrap();
        let entry = ledger.entry(low).unwrap();
        assert_eq!(entry.state, JobState::Preempted);
        assert_eq!(entry.owner, "");
        assert_eq!(entry.detail, format!("preempted by {critical}"));
        drop(shared);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
