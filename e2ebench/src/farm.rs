//! `farm_mixed`: one generator thread keeps `nproc + 1` jobs outstanding
//! on a `Farm` with `nproc` workers in a fresh directory. Jobs are
//! seeded 150–550-gate IP blocks under the `serve` row's quick options;
//! 70% are normal, 20% low and 10% critical priority, so preemption and
//! checkpoint reloads happen. The generator sees a job finish when its
//! exported GDSII file appears, never by re-reading the ledger.
//!
//! Why: this is the design-service use. A job is only about 50 ms of
//! compute, so ledger transactions, nine checkpoint writes per job and
//! preempt/resume are a large share of its time. It is the only
//! workload where `camsoc-serve` runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use camsoc_core::flow::{FlowOptions, FlowResult, FlowSupervisor};
use camsoc_core::{FlowCheckpoint, StageId};
use camsoc_dft::atpg::AtpgConfig;
use camsoc_layout::place::{PlacementConfig, PlacementMode};
use camsoc_layout::ImplementOptions;
use camsoc_netlist::generate::SplitMix64;
use camsoc_serve::{
    CheckpointStore, DesignSpec, Farm, FarmReport, JobId, JobLedger, JobOutcome, JobRequest,
    Priority,
};

use crate::flows::{kernel_pass, result_layers, stage_layers_from_traces};
use crate::host::fs_type;
use crate::metrics::Headline;
use crate::trace::Tracer;
use crate::{mix, repeat_setup, Ctx, Run, SETUP_REPEATS};

/// The farm keeps its ledger under this name in its directory.
const LEDGER_FILE: &str = "ledger.txt";

/// Jobs per round (see [`Outstanding`]).
const ROUND: usize = 32;

/// Flow results kept for the per-layer figures of a traced run.
const KEEP_RESULTS: u64 = 64;

/// Longest a run may wait for outstanding jobs after the window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// The `serve` row's quick flow options.
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

/// Job `i` of the run: a seeded 150–550-gate block and its priority.
fn job(seed: u64, i: u64) -> (DesignSpec, Priority) {
    let mut rng = SplitMix64::new(mix(seed, i));
    let spec = DesignSpec::IpBlock {
        name: format!("svc{i}"),
        target_gates: 150 + rng.below(401),
        seed: rng.next_u64(),
    };
    let draw = rng.below(100);
    let priority = match draw {
        0..=69 => Priority::Normal,
        70..=89 => Priority::Low,
        _ => Priority::Critical,
    };
    (spec, priority)
}

/// The generator's bookkeeping of outstanding jobs: it tops the farm up
/// to `target` while the window is open, in rounds of `round` jobs, and
/// records each job's turnaround when it completes.
///
/// A round ends when its last job completes; the generator then waits
/// for the farms to report every outcome before the next round starts.
/// The drain lets every farm's `run_until_idle` call return, which
/// releases the flow results the call holds. Without it a call holds
/// every job it served, so peak memory would grow with the number of
/// jobs a run completes, that is with throughput.
#[derive(Debug)]
pub struct Outstanding {
    target: usize,
    round: usize,
    in_round: usize,
    open: BTreeMap<JobId, Instant>,
}

impl Outstanding {
    pub fn new(target: usize, round: usize) -> Self {
        assert!(target > 0 && round > 0, "empty targets admit no job");
        Outstanding {
            target,
            round,
            in_round: 0,
            open: BTreeMap::new(),
        }
    }

    /// Whether every job of the current round was submitted and has
    /// completed.
    pub fn round_done(&self) -> bool {
        self.in_round == self.round && self.open.is_empty()
    }

    /// Jobs to submit now: enough to restore `target` while the window
    /// is open and the round has jobs left, none once it has closed.
    pub fn due(&mut self, window_open: bool) -> usize {
        if self.in_round == self.round && self.open.is_empty() {
            self.in_round = 0;
        }
        if !window_open {
            return 0;
        }
        self.target
            .saturating_sub(self.open.len())
            .min(self.round - self.in_round)
    }

    pub fn submitted(&mut self, job: JobId, at: Instant) {
        let fresh = self.open.insert(job, at).is_none();
        debug_assert!(fresh, "job {job} submitted twice");
        self.in_round += 1;
    }

    /// Mark `job` complete at `at`; its turnaround, or `None` for a job
    /// that is not outstanding (unknown or already complete).
    pub fn completed(&mut self, job: JobId, at: Instant) -> Option<Duration> {
        self.open
            .remove(&job)
            .map(|submitted| at.saturating_duration_since(submitted))
    }

    pub fn outstanding(&self) -> impl Iterator<Item = JobId> + '_ {
        self.open.keys().copied()
    }

    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

/// One job as the generator saw it.
struct Seen {
    index: u64,
    job: JobId,
    submit: Instant,
    submit_took: Duration,
    done: Instant,
}

/// State the generator and the farm threads share.
#[derive(Default)]
struct Shared {
    submitted: usize,
    generator_done: bool,
    drained: Drained,
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let workers = ctx.threads;
    let target = workers + 1;
    let options = quick_options();
    let dir = ctx.work.join("farm");
    let (mut farms, mut submitter) =
        repeat_setup(&mut run, SETUP_REPEATS, || -> Result<_, String> {
            let _ = std::fs::remove_dir_all(&dir);
            let farms = (0..workers)
                .map(|_| Farm::open(&dir, 1).map(|f| f.with_gds_export(true)))
                .collect::<Result<Vec<Farm>, _>>()
                .map_err(|e| e.to_string())?;
            let submitter = Farm::open(&dir, 1).map_err(|e| e.to_string())?;
            // warm-up: one mid-sized job's flow outside the farm (a
            // fixed size, so set-up time does not vary with the seed)
            let spec = DesignSpec::IpBlock {
                name: "warmup".into(),
                target_gates: 350,
                seed: ctx.seed,
            };
            let nl = spec.materialize().map_err(|e| e.to_string())?;
            FlowSupervisor::new(options.clone())
                .run(nl)
                .map_err(|e| e.to_string())?;
            Ok((farms, submitter))
        })?;
    let store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
    run.host.push((
        "farm_workers",
        format!("{workers} one-worker farms on one directory"),
    ));
    run.host.push(("jobs_outstanding", target.to_string()));
    run.host
        .push(("job_parallelism", format!("{:?}", options.parallelism)));
    run.host.push(("farm_fs", fs_type(&dir)));

    let shared = (Mutex::new(Shared::default()), Condvar::new());
    let window = ctx.seconds;
    // Job ids are minted in submission order from 0, so a job's id is
    // its index; in a traced run the odd ones are traced.
    let keep = |id: JobId| ctx.traced(id.0 as usize) && id.0 < 2 * KEEP_RESULTS;
    let seen = std::thread::scope(|scope| -> Result<_, String> {
        let generator = scope.spawn(|| {
            let seen = generate(&mut submitter, &store, ctx.seed, target, window, &shared);
            let (lock, cvar) = &shared;
            lock.lock().expect("farm state lock").generator_done = true;
            cvar.notify_all();
            seen
        });
        let servers: Vec<_> = farms
            .iter_mut()
            .map(|farm| scope.spawn(|| serve(farm, &shared, keep)))
            .collect();
        let mut failure = None;
        for server in servers {
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some("a farm thread panicked".to_string()),
            }
        }
        let seen = generator
            .join()
            .map_err(|_| "the generator thread panicked".to_string())??;
        failure.map_or(Ok(seen), Err)
    })?;
    let drained = std::mem::take(&mut shared.0.lock().expect("farm state lock").drained);
    let totals = &drained.counters;

    // checks
    run.attempted = seen.len();
    for s in &seen {
        match (drained.done.get(&s.job), drained.other.get(&s.job)) {
            (Some((true, _)), _) => {}
            (Some((false, _)), _) => run.fail(format!("job {}: not signed off", s.job)),
            (None, Some(other)) => run.fail(format!("job {}: {other}", s.job)),
            (None, None) => run.fail(format!("job {}: no outcome", s.job)),
        }
    }
    if totals.retries != 0 || totals.quarantines != 0 {
        run.problem(format!(
            "{} retries and {} quarantines on a healthy workload",
            totals.retries, totals.quarantines
        ));
    }
    let check = seen.first().ok_or("the generator submitted no job")?;
    let kept_gds = match std::fs::read(store.gds_path(check.job)) {
        Ok(gds) => Some(gds),
        Err(e) => {
            run.problem(format!("job {}: exported GDSII unreadable: {e}", check.job));
            None
        }
    };
    let (spec, _) = job(ctx.seed, check.index);
    let scratch = CheckpointStore::open(ctx.work.join("direct")).map_err(|e| e.to_string())?;
    let direct = direct_run(&spec, &options, &scratch, ctx.trace, tracer)?;
    if kept_gds.as_deref() != Some(&direct.gds[..]) {
        run.problem(format!(
            "job {}: served GDSII differs from a direct FlowSupervisor run",
            check.job
        ));
    }

    // end-to-end figures: turnaround from submit to the GDSII file
    let first_submit = seen.iter().map(|s| s.submit).min().ok_or("no job")?;
    let last_done = seen.iter().map(|s| s.done).max().ok_or("no job")?;
    run.wall = last_done.saturating_duration_since(first_submit);
    let mut waits = Vec::new();
    let mut busy = Duration::ZERO;
    for s in &seen {
        let took = s.done.saturating_duration_since(s.submit);
        let traced = ctx.traced(s.index as usize);
        let ms = took.as_secs_f64() * 1e3;
        if traced {
            run.traced_turnaround_ms.push(ms);
        } else {
            run.turnaround_ms.push(ms);
        }
        if let Some(&(_, own)) = drained.done.get(&s.job) {
            busy += own;
            waits.push(took.saturating_sub(own).as_secs_f64());
        }
    }
    let completed = run.attempted - run.failed;
    let secs: Vec<f64> = run.turnaround_ms.iter().map(|ms| ms / 1e3).collect();
    run.headlines.push(Headline::new(
        "jobs_per_hour",
        "jobs/h",
        "higher",
        completed as f64 * 3600.0 / run.wall.as_secs_f64().max(f64::MIN_POSITIVE),
        completed,
    ));
    run.headlines
        .push(Headline::median("job_p50_s", "s", &secs));
    run.headlines
        .push(Headline::tail("job_p95_s", "s", &secs, 95.0));
    run.notes.push(format!(
        "{} jobs, {} stages executed, {} preemptions, {} retries, {} quarantines",
        seen.len(),
        totals.stages_executed,
        totals.preemptions,
        totals.retries,
        totals.quarantines
    ));

    if ctx.trace {
        // the generator thread timed each job; record its spans now
        tracer.set_on(true);
        for s in seen.iter().filter(|s| ctx.traced(s.index as usize)) {
            let root = tracer.record("job", s.index, None, s.submit, s.done);
            tracer.record(
                "serve.submit",
                s.index,
                root,
                s.submit,
                s.submit + s.submit_took,
            );
        }
        tracer.set_on(false);
        run.layer_spans("serve.submit_ms", tracer, "serve.submit");
        run.layer_spans("serve.checkpoint_save_ms", tracer, "serve.checkpoint_save");
        run.layer_spans("serve.checkpoint_load_ms", tracer, "serve.checkpoint_load");
        run.layer_median("serve.checkpoint_kb", &direct.checkpoint_kb);
        ledger_layers(&mut run, &dir)?;
        run.layer_median("serve.wait_p50_s", &waits);
        let capacity = workers as f64 * run.wall.as_secs_f64();
        run.layer(
            "serve.busy_frac",
            busy.as_secs_f64() / capacity.max(f64::MIN_POSITIVE),
            completed,
        );
        run.layer(
            "serve.stages_per_job",
            totals.stages_executed as f64 / completed.max(1) as f64,
            completed,
        );
        run.layer("serve.preemptions", totals.preemptions as f64, completed);
        run.layer("serve.retries", totals.retries as f64, completed);
        run.layer("serve.quarantines", totals.quarantines as f64, completed);
        stage_layers_from_traces(&mut run, drained.kept.values());
        let refs: Vec<&FlowResult> = drained.kept.values().collect();
        result_layers(&mut run, &refs);
        let input = spec.materialize().map_err(|e| e.to_string())?;
        kernel_pass(
            &mut run,
            tracer,
            seen.len() as u64,
            &input,
            &direct.netlist,
            &options,
            None,
        )?;
    }
    Ok(run)
}

/// The generator thread: keep `target` jobs outstanding while the
/// window is open, then wait for the rest to finish.
fn generate(
    submitter: &mut Farm,
    store: &CheckpointStore,
    seed: u64,
    target: usize,
    window: Duration,
    shared: &(Mutex<Shared>, Condvar),
) -> Result<Vec<Seen>, String> {
    let (lock, cvar) = shared;
    let mut acct = Outstanding::new(target, ROUND);
    // job → (index, time its submit call took)
    let mut pending: BTreeMap<JobId, (u64, Duration)> = BTreeMap::new();
    let mut seen = Vec::new();
    let start = Instant::now();
    let mut next = 0u64;
    loop {
        let accepting = start.elapsed() < window;
        if accepting && acct.round_done() {
            // a GDSII file appears before its job's farm call returns:
            // wait for the farms to hand every outcome back
            let mut state = lock.lock().expect("farm state lock");
            while state.drained.outcomes() < state.submitted {
                state = cvar.wait(state).expect("farm state lock");
            }
        }
        let batch = acct.due(accepting);
        for _ in 0..batch {
            let (spec, priority) = job(seed, next);
            let request = JobRequest::new(spec, quick_options()).with_priority(priority);
            let t0 = Instant::now();
            let id = submitter
                .submit(&request)
                .map_err(|e| format!("submit: {e}"))?;
            let took = t0.elapsed();
            acct.submitted(id, t0);
            pending.insert(id, (next, took));
            next += 1;
        }
        if batch > 0 {
            lock.lock().expect("farm state lock").submitted += batch;
            cvar.notify_all();
        }
        if !accepting && acct.is_empty() {
            return Ok(seen);
        }
        if start.elapsed() > window + DRAIN_LIMIT {
            return Err("outstanding jobs did not finish".into());
        }
        // a job that ended without a GDSII file (failed, parked or
        // quarantined) is complete too
        let finished: Vec<JobId> = {
            let state = lock.lock().expect("farm state lock");
            acct.outstanding()
                .filter(|&id| state.drained.other.contains_key(&id) || store.gds_path(id).exists())
                .collect()
        };
        if finished.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let now = Instant::now();
        for id in finished {
            let turnaround = acct.completed(id, now).expect("an outstanding job");
            let (index, submit_took) = pending.remove(&id).expect("a pending job");
            seen.push(Seen {
                index,
                job: id,
                submit: now - turnaround,
                submit_took,
                done: now,
            });
        }
    }
}

/// Every job outcome the farm threads collected, plus the farm counters.
#[derive(Default)]
struct Drained {
    /// Whether each finished job signed off, and its flow's own time.
    done: BTreeMap<JobId, (bool, Duration)>,
    /// Flow results kept for the per-layer figures (traced jobs only).
    kept: BTreeMap<JobId, FlowResult>,
    /// Jobs that ended any other way.
    other: BTreeMap<JobId, String>,
    counters: FarmReport,
}

impl Drained {
    fn outcomes(&self) -> usize {
        self.done.len() + self.other.len()
    }
}

/// One farm thread: serve the shared directory until the generator is
/// done and every submitted job has an outcome. A round that finds
/// nothing to claim sleeps until the generator submits again.
///
/// The farm is run as `nproc` one-worker farms on one directory rather
/// than one `nproc`-worker farm: a `run_until_idle` worker exits the
/// first time it finds the queue empty, and under a continuous feed the
/// remaining workers then keep the call alive indefinitely, so one farm
/// loses a worker for the rest of the run at a random moment.
fn serve(
    farm: &mut Farm,
    shared: &(Mutex<Shared>, Condvar),
    keep: impl Fn(JobId) -> bool,
) -> Result<(), String> {
    let (lock, cvar) = shared;
    loop {
        let before = lock.lock().expect("farm state lock").submitted;
        let mut report = farm.run_until_idle().map_err(|e| format!("farm: {e}"))?;
        let progressed = report.stages_executed > 0 || !report.outcomes.is_empty();
        let mut state = lock.lock().expect("farm state lock");
        for (id, outcome) in std::mem::take(&mut report.outcomes) {
            match outcome {
                JobOutcome::Done(r) => {
                    let own: Duration = r.trace.attempts.iter().map(|a| a.duration).sum();
                    state.drained.done.insert(id, (r.tapeout_ready(), own));
                    if keep(id) {
                        state.drained.kept.insert(id, *r);
                    }
                }
                other => {
                    state.drained.other.insert(id, format!("{other:?}"));
                }
            }
        }
        state.drained.counters.absorb(report);
        cvar.notify_all();
        loop {
            if state.generator_done && state.drained.outcomes() >= state.submitted {
                return Ok(());
            }
            if progressed || state.submitted != before {
                break;
            }
            state = cvar.wait(state).expect("farm state lock");
        }
    }
}

/// The direct run the served GDSII is compared with: the same job
/// stepped through a bare `FlowSupervisor`. While tracing, the
/// checkpoint is saved to and reloaded from a checkpoint store after
/// every stage, as the farm does, and the flow continues from the
/// reloaded copy.
struct Direct {
    gds: Vec<u8>,
    netlist: camsoc_netlist::graph::Netlist,
    checkpoint_kb: Vec<f64>,
}

fn direct_run(
    spec: &DesignSpec,
    options: &FlowOptions,
    store: &CheckpointStore,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<Direct, String> {
    let nl = spec.materialize().map_err(|e| e.to_string())?;
    let supervisor = FlowSupervisor::new(options.clone());
    let mut checkpoint = FlowCheckpoint::new(nl);
    let mut checkpoint_kb = Vec::new();
    let id = JobId(0);
    tracer.set_on(trace);
    while let Some(stage) = StageId::ALL
        .into_iter()
        .find(|&s| !checkpoint.is_complete(s))
    {
        supervisor
            .advance(&mut checkpoint)
            .map_err(|e| format!("direct run, {}: {e}", stage.name()))?;
        if !trace {
            continue;
        }
        let saved = tracer.time("serve.checkpoint_save", 0, None, || {
            store.save_checkpoint(id, &checkpoint)
        });
        saved.map_err(|e| format!("checkpoint save: {e}"))?;
        checkpoint_kb.push(file_kb(&store.checkpoint_path(id)));
        let loaded = tracer.time("serve.checkpoint_load", 0, None, || {
            store.load_checkpoint(id)
        });
        checkpoint = loaded
            .map_err(|e| format!("checkpoint load: {e}"))?
            .ok_or("checkpoint vanished")?;
        checkpoint.mark_resumed();
    }
    tracer.set_on(false);
    let result = checkpoint
        .finish()
        .map_err(|e| format!("direct run: {e}"))?;
    Ok(Direct {
        gds: result.gds,
        netlist: result.netlist,
        checkpoint_kb,
    })
}

fn file_kb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e3)
}

/// Ledger figures at the run's final size: one read-modify-write
/// transaction (what every claim and heartbeat costs) and the file size.
fn ledger_layers(run: &mut Run, dir: &Path) -> Result<(), String> {
    let path = dir.join(LEDGER_FILE);
    let mut ledger = JobLedger::open(&path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        ledger
            .update(|t| {
                let first = t.iter().next().map(|(id, e)| (id, e.clone()));
                if let Some((id, entry)) = first {
                    t.set(id, entry);
                }
            })
            .map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    run.layer_median("serve.ledger_update_ms", &times);
    run.layer("serve.ledger_kb", file_kb(&path), 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tops_up_to_target_while_accepting() {
        let t0 = Instant::now();
        let mut acct = Outstanding::new(3, 100);
        assert_eq!(acct.due(true), 3);
        for id in 0..3 {
            acct.submitted(JobId(id), t0);
        }
        assert_eq!(acct.due(true), 0);
        // a completion frees exactly one slot
        let later = t0 + Duration::from_millis(40);
        assert_eq!(
            acct.completed(JobId(1), later),
            Some(Duration::from_millis(40))
        );
        assert_eq!(acct.due(true), 1);
        assert_eq!(
            acct.outstanding().collect::<Vec<_>>(),
            vec![JobId(0), JobId(2)]
        );
    }

    #[test]
    fn closed_window_drains_to_zero() {
        let t0 = Instant::now();
        let mut acct = Outstanding::new(2, 100);
        acct.submitted(JobId(7), t0);
        acct.submitted(JobId(8), t0);
        acct.completed(JobId(7), t0);
        assert_eq!(acct.due(false), 0, "no submissions after the window");
        assert!(!acct.is_empty());
        acct.completed(JobId(8), t0);
        assert!(acct.is_empty());
        assert_eq!(acct.due(false), 0);
    }

    #[test]
    fn a_round_drains_before_the_next_starts() {
        let t0 = Instant::now();
        let mut acct = Outstanding::new(3, 4);
        let mut next = 0;
        let mut submit = |acct: &mut Outstanding, n: usize| {
            for _ in 0..n {
                acct.submitted(JobId(next), t0);
                next += 1;
            }
        };
        let n = acct.due(true);
        assert_eq!(n, 3);
        submit(&mut acct, n);
        acct.completed(JobId(0), t0);
        // one job of the round is left: only one slot refills
        let n = acct.due(true);
        assert_eq!(n, 1);
        submit(&mut acct, n);
        acct.completed(JobId(1), t0);
        assert_eq!(acct.due(true), 0, "the round is fully submitted");
        acct.completed(JobId(2), t0);
        assert!(!acct.round_done());
        assert_eq!(acct.due(true), 0, "job 3 is still running");
        acct.completed(JobId(3), t0);
        assert!(acct.round_done());
        assert_eq!(acct.due(true), 3, "drained: the next round starts");
        assert!(!acct.round_done());
    }

    #[test]
    fn unknown_or_repeated_completions_are_ignored() {
        let t0 = Instant::now();
        let mut acct = Outstanding::new(1, 100);
        assert_eq!(acct.completed(JobId(5), t0), None);
        acct.submitted(JobId(5), t0);
        assert!(acct.completed(JobId(5), t0).is_some());
        assert_eq!(acct.completed(JobId(5), t0), None, "a job completes once");
        assert_eq!(acct.due(true), 1);
    }

    #[test]
    fn job_mix_is_seeded_and_in_range() {
        let mut counts = [0usize; 3];
        for i in 0..1_000 {
            let (spec, priority) = job(42, i);
            assert_eq!(job(42, i), (spec.clone(), priority), "same seed, same job");
            let DesignSpec::IpBlock { target_gates, .. } = spec else {
                panic!("an IP block")
            };
            assert!((150..=550).contains(&target_gates));
            counts[match priority {
                Priority::Normal => 0,
                Priority::Low => 1,
                Priority::Critical => 2,
            }] += 1;
        }
        // 70/20/10 within sampling noise
        assert!((650..750).contains(&counts[0]), "{counts:?}");
        assert!((160..240).contains(&counts[1]), "{counts:?}");
        assert!((70..130).contains(&counts[2]), "{counts:?}");
    }
}
