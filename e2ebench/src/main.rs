//! End-to-end benchmark of the camsoc design service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <tapeout_16k|eco_paper|farm_mixed|hier_1m> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over the public APIs of `camsoc-core`,
//! `camsoc-serve` and the kernel crates. The workload's inputs are
//! generated from `--seed`; the program under test only ever sees those
//! inputs. Every request's output is checked in the same run and a
//! failed check counts against the attempts.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is a
//! separate run that alternates untraced and traced requests: the
//! traced ones record spans around the benchmark's calls into each
//! layer (see [`trace`]), and the difference between the two halves is
//! reported as the tracing overhead.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable report of the same run.

mod eco;
mod farm;
mod flows;
mod hier;
mod host;
mod metrics;
mod stats;
mod tapeout;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use camsoc_par::Parallelism;

use crate::metrics::{Headline, END_TO_END, LAYERS};
use crate::trace::Tracer;

/// The four workloads; see each module for why it was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tapeout16k,
    EcoPaper,
    FarmMixed,
    Hier1m,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Tapeout16k,
        Workload::EcoPaper,
        Workload::FarmMixed,
        Workload::Hier1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tapeout16k => "tapeout_16k",
            Workload::EcoPaper => "eco_paper",
            Workload::FarmMixed => "farm_mixed",
            Workload::Hier1m => "hier_1m",
        }
    }
}

/// Everything a workload needs from the command line and the host.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Hardware threads the flows and the farm are given.
    pub threads: usize,
    /// Scratch directory of this run (farm and cache directories).
    pub work: PathBuf,
}

impl Ctx {
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::Threads(self.threads)
    }

    /// Whether request `i` of a traced run is traced: odd requests are,
    /// even ones run untraced so the same run measures both.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Requests started (tapeouts, changes, jobs or iterations).
    pub attempted: usize,
    /// Requests whose output failed a check or that returned an error.
    pub failed: usize,
    /// Every failed check, request-level and run-level.
    pub problems: Vec<String>,
    /// Each repetition of the workload's set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Turnaround of every untraced request (ms).
    pub turnaround_ms: Vec<f64>,
    /// Turnaround of every traced request (ms; traced runs only).
    pub traced_turnaround_ms: Vec<f64>,
    /// Time the measured requests took: their sum for a single client,
    /// first submit to last completion for the farm.
    pub wall: Duration,
    /// Each workload's own end-to-end figures for the human report.
    pub headlines: Vec<Headline>,
    /// Per-layer values with their sample counts (traced runs).
    pub layers: BTreeMap<&'static str, (f64, usize)>,
    /// Host context specific to the workload (worker counts, file
    /// systems of its directories).
    pub host: Vec<(&'static str, String)>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Run {
    /// Book a failed check against request `what`.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Record one finished request's turnaround.
    pub fn request_done(&mut self, traced: bool, took: Duration) {
        let ms = took.as_secs_f64() * 1e3;
        if traced {
            self.traced_turnaround_ms.push(ms);
        } else {
            self.turnaround_ms.push(ms);
        }
        self.wall += took;
    }

    /// Book a run-level check that failed (not tied to one request).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Record a per-layer value measured over `n` samples.
    pub fn layer(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(
            LAYERS.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, (value, n));
    }

    /// Record the median of `samples` as a per-layer value.
    pub fn layer_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(m) = stats::median(samples) {
            self.layer(name, m, samples.len());
        }
    }

    /// Record the median duration of the spans called `span` as the
    /// per-layer value `name`.
    pub fn layer_spans(&mut self, name: &'static str, tracer: &Tracer, span: &str) {
        self.layer_median(name, &tracer.durations_ms(span));
    }
}

/// Stops a closed loop once the next request would end after the
/// measuring window.
pub struct Window {
    start: Instant,
    limit: Duration,
}

impl Window {
    pub fn open(limit: Duration) -> Self {
        Window {
            start: Instant::now(),
            limit,
        }
    }

    /// Whether a request expected to take `predicted` still fits.
    pub fn fits(&self, predicted: Duration) -> bool {
        self.start.elapsed() + predicted <= self.limit
    }
}

/// Run `setup` `times` times, recording each duration, and keep the
/// last result (the others are dropped before the next repetition).
pub fn repeat_setup<T, E: std::fmt::Display>(
    run: &mut Run,
    times: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        let state = setup().map_err(|e| format!("set-up failed: {e}"))?;
        run.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    last.ok_or_else(|| "set-up never ran".to_string())
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// FNV-1a over a byte stream: the GDSII digest the checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive an independent stream seed from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut rng = camsoc_netlist::generate::SplitMix64::new(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    rng.next_u64()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload_name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload_name)
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {workload_name:?} (one of {})",
                names.join(", ")
            )
        })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(k) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let work =
        bench_dir()
            .join("work")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads,
        work,
    };
    let mut tracer = Tracer::new();
    let outcome = match args.workload {
        Workload::Tapeout16k => tapeout::run(&ctx, &mut tracer),
        Workload::EcoPaper => eco::run(&ctx, &mut tracer),
        Workload::FarmMixed => farm::run(&ctx, &mut tracer),
        Workload::Hier1m => hier::run(&ctx, &mut tracer),
    };
    let mut host_ctx = host::context(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    // the parent goes too unless another run is using it
    let _ = std::fs::remove_dir(bench_dir().join("work"));
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = host::peak_rss_mb();
    host_ctx.extend(run.host.iter().cloned());
    let trace_file = if ctx.trace {
        match write_trace(&args, &host_ctx, &tracer) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("e2ebench: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    match report(&args, &run, &host_ctx, peak_rss_mb, &tracer, trace_file) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write the spans, after a host-context line, as JSON lines.
fn write_trace(
    args: &Args,
    host_ctx: &[(&'static str, String)],
    tracer: &Tracer,
) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("traces");
    std::fs::create_dir_all(&dir)?;
    let mut text = format!("{{\"host\":{}}}\n", host::json(host_ctx));
    text.push_str(&tracer.to_jsonl());
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Print the human-readable report and return the final JSON line.
fn report(
    args: &Args,
    run: &Run,
    host_ctx: &[(&'static str, String)],
    peak_rss_mb: Option<f64>,
    tracer: &Tracer,
    trace_file: Option<PathBuf>,
) -> Result<String, String> {
    let w = args.workload.name();
    println!(
        "e2ebench workload={w} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host    {}", host::json(host_ctx));

    let setup = stats::median(&run.setup_s).ok_or("no set-up was timed")?;
    let rss = peak_rss_mb.ok_or("peak RSS unavailable (no /proc/self/status VmHWM)")?;
    let completed = run.attempted - run.failed;
    let mut e2e: Vec<(&'static str, f64)> = vec![("setup_s", setup), ("peak_rss_mb", rss)];
    if !args.trace {
        let p50 = stats::median(&run.turnaround_ms).ok_or("no request completed")?;
        let wall = run.wall.as_secs_f64();
        if wall <= 0.0 || completed == 0 {
            return Err("no request completed".into());
        }
        e2e.push(("turnaround_p50_ms", p50));
        e2e.push(("throughput_per_h", completed as f64 * 3600.0 / wall));
    }
    println!(
        "e2e     {:<24} {:>14} {:<8} {:<7} n",
        "metric", "value", "unit", "better"
    );
    for (name, value) in &e2e {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("declared metric");
        let n = match *name {
            "setup_s" => run.setup_s.len(),
            "turnaround_p50_ms" => run.turnaround_ms.len(),
            _ => 1,
        };
        println!(
            "e2e     {:<24} {:>14.4} {:<8} {:<7} n={n}",
            m.name, value, m.unit, m.better
        );
    }
    for h in &run.headlines {
        println!("{}", h.line(w));
    }
    if args.trace {
        trace_report(run);
    }
    if let Some(path) = trace_file {
        println!(
            "trace   {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for note in &run.notes {
        println!("note    {note}");
    }
    let correct = run.problems.is_empty();
    println!(
        "checks  {} attempted, {} failed, {}",
        run.attempted,
        run.failed,
        if correct {
            "all outputs verified".to_string()
        } else {
            run.problems.join("; ")
        }
    );

    let mut metrics = String::new();
    let pairs: Vec<(&str, f64, &str)> = if args.trace {
        LAYERS
            .iter()
            .map(|m| (m.name, run.layers.get(m.name).map_or(0.0, |v| v.0), m.unit))
            .collect()
    } else {
        e2e.iter()
            .map(|(name, v)| {
                let m = END_TO_END
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("declared metric");
                (m.name, *v, m.unit)
            })
            .collect()
    };
    for (i, (name, value, unit)) in pairs.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted, run.failed
    ))
}

/// The traced run's per-layer table, each metric with the end-to-end
/// metric it is predicted to move, plus the tracing overhead.
fn trace_report(run: &Run) {
    println!(
        "layer   {:<28} {:>14} {:<8} {:>6}  moves",
        "metric", "value", "unit", "n"
    );
    for m in LAYERS {
        match run.layers.get(m.name) {
            Some(&(v, n)) => {
                println!(
                    "layer   {:<28} {:>14.4} {:<8} {:>6}  {}",
                    m.name, v, m.unit, n, m.moves
                )
            }
            None => println!(
                "layer   {:<28} {:>14} {:<8} {:>6}  {}",
                m.name, "0 (idle)", m.unit, 0, m.moves
            ),
        }
    }
    let untraced = stats::median(&run.turnaround_ms);
    let traced = stats::median(&run.traced_turnaround_ms);
    match (untraced, traced) {
        (Some(u), Some(t)) => println!(
            "trace   overhead: traced median {t:.3} ms (n={}) - untraced median {u:.3} ms (n={}) = {:+.3} ms ({:+.2}%)",
            run.traced_turnaround_ms.len(),
            run.turnaround_ms.len(),
            t - u,
            100.0 * (t - u) / u
        ),
        _ => println!("trace   overhead: not measured (needs one traced and one untraced request)"),
    }
}
