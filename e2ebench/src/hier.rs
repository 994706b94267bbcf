//! `hier_1m`: one client integrates a tiled chip of about 1M gates (250
//! tiles × 4,000 gates in two kinds) bottom-up against a persistent
//! abstract cache filled cold during set-up. Each iteration gives one
//! tile kind a fresh seed, so exactly one macro is re-hardened and the
//! other is a cache hit, then runs the top-level flow through the
//! abstracts to sign-off under the `hier` row's relaxed gates.
//!
//! Why: `core::hier` (harden, content hash, cache) and macro-arc STA go
//! unmeasured without it, and 250 tiles drawn from 2 kinds show how much
//! work is shared. The roadmap names hierarchical wall clock as a
//! whole-run metric.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use camsoc_core::flow::{FlowOptions, FlowSupervisor};
use camsoc_core::hier::{
    build_tiled_hier, content_hash, fold_signoff, hard_macros, harden_macros, tile_kinds,
    AbstractCache, MacroAbstract, TiledParams, DEFAULT_PESSIMISM_NS,
};
use camsoc_core::resilience::QualityGates;
use camsoc_core::FlowCheckpoint;
use camsoc_netlist::generate::{ip_block, IpBlockParams};
use camsoc_netlist::graph::Netlist;

use crate::flows::{
    finish, kernel_pass, result_layers, run_stages, stage_layers_from_spans, tiled_options,
};
use crate::host::fs_type;
use crate::metrics::Headline;
use crate::trace::Tracer;
use crate::{mix, repeat_setup, Ctx, Run, Window, SETUP_REPEATS};

/// Top-level clock. At the `hier` row's 20 ns about one iteration in
/// three misses top-level setup by up to 1.7 ns: the glue counter's
/// `ctl` nets fan out to all 250 tiles across the million-gate die.
/// Every tile closes with more than 10 ns to spare either way.
const CLOCK_NS: f64 = 25.0;

struct Ready {
    cache: AbstractCache,
    kinds: Vec<Netlist>,
    abstracts: HashMap<u64, MacroAbstract>,
    top: Netlist,
    instance_kind: Vec<(String, usize)>,
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let options = FlowOptions {
        clock_period_ns: CLOCK_NS,
        ..tiled_options(ctx.parallelism())
    };
    let params = TiledParams {
        tiles: 250,
        kinds: 2,
        tile_gates: 4_000,
        data_width: 16,
        seed: ctx.seed,
    };
    let gates = QualityGates {
        min_fault_coverage: None,
        max_route_overflow: None,
        ..QualityGates::default()
    };
    let cache_dir = ctx.work.join("abstracts");
    let par = ctx.parallelism();
    let mut ready = repeat_setup(&mut run, SETUP_REPEATS, || -> Result<Ready, String> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = AbstractCache::open(&cache_dir).map_err(|e| e.to_string())?;
        let kinds = tile_kinds(&params).map_err(|e| e.to_string())?;
        let (abstracts, report) =
            harden_macros(&kinds, &options, DEFAULT_PESSIMISM_NS, Some(&cache), par)
                .map_err(|e| e.to_string())?;
        if report.hardened != params.kinds {
            return Err(format!(
                "cold fill hardened {} of {} kinds",
                report.hardened, params.kinds
            ));
        }
        let (top, instance_kind) = build_tiled_hier(&params).map_err(|e| e.to_string())?;
        Ok(Ready {
            cache,
            kinds,
            abstracts,
            top,
            instance_kind,
        })
    })?;
    run.host.push(("cache_fs", fs_type(&cache_dir)));
    run.host.push(("harden_parallelism", format!("{par:?}")));
    run.host
        .push(("flow_parallelism", format!("{:?}", options.parallelism)));
    run.notes.push(format!(
        "hierarchical top: {} tiles x {} gates ({} gates flat) from {} kinds, {} top-level instances",
        params.tiles,
        params.tile_gates,
        params.tiles * params.tile_gates,
        params.kinds,
        ready.top.num_instances()
    ));

    let window = Window::open(ctx.seconds);
    let mut last = Duration::ZERO;
    let mut hardened = Vec::new();
    let mut cache_hits = Vec::new();
    let mut traced_results = Vec::new();
    let mut i = 0usize;
    while window.fits(last) {
        let traced = ctx.traced(i);
        let k = i % params.kinds;
        let fresh = ip_block(
            &format!("tile_kind{k}"),
            &IpBlockParams {
                target_gates: params.tile_gates,
                data_width: params.data_width,
                seed: mix(ctx.seed, i as u64 + 1),
                ..IpBlockParams::default()
            },
        )
        .map_err(|e| e.to_string())?;
        ready.kinds[k] = fresh;
        let top = ready.top.clone();
        tracer.set_on(traced);
        run.attempted += 1;
        let id = i as u64;
        let t0 = Instant::now();
        let root = tracer.begin("integrate", id, None);
        let outcome = integrate(&mut ready, &options, gates, par, top, tracer, id, root);
        tracer.end(root);
        last = t0.elapsed();
        tracer.set_on(false);
        run.request_done(traced, last);
        match outcome {
            Ok(done) => {
                let mut bad = Vec::new();
                if done.report.hardened != 1 {
                    bad.push(format!(
                        "{} macros re-hardened, expected 1",
                        done.report.hardened
                    ));
                }
                if done.report.cache_hits != 1 {
                    bad.push(format!("{} cache hits, expected 1", done.report.cache_hits));
                }
                let (setup, hold, signed_off) = done.folded;
                if !signed_off {
                    bad.push(format!(
                        "hierarchy does not sign off (folded setup WNS {setup:.3} ns, hold WNS {hold:.3} ns)"
                    ));
                }
                if !bad.is_empty() {
                    run.fail(format!("iteration {i}: {}", bad.join(", ")));
                }
                if traced {
                    hardened.push(done.report.hardened as f64);
                    cache_hits.push(done.report.cache_hits as f64);
                    traced_results.push(done.result);
                }
            }
            Err(e) => run.fail(format!("iteration {i}: {e}")),
        }
        i += 1;
    }

    let s: Vec<f64> = run.turnaround_ms.iter().map(|ms| ms / 1e3).collect();
    run.headlines.push(Headline::median("integrate_s", "s", &s));
    if ctx.trace {
        run.layer_spans("hier.harden_ms", tracer, "hier.harden");
        run.layer_spans("hier.top_flow_ms", tracer, "hier.top_flow");
        run.layer_median("hier.hardened", &hardened);
        run.layer_median("hier.cache_hits", &cache_hits);
        stage_layers_from_spans(&mut run, tracer);
        let refs: Vec<_> = traced_results.iter().collect();
        result_layers(&mut run, &refs);
        // every abstract the run stored, loaded back outside the
        // timed iterations
        tracer.set_on(true);
        let hashes: Vec<u64> = ready.abstracts.keys().copied().collect();
        for h in hashes {
            let loaded = tracer.time("hier.cache_load", h, None, || ready.cache.load(h));
            if loaded.is_none() {
                run.problem(format!(
                    "abstract {h:016x} did not load back from the cache"
                ));
            }
        }
        tracer.set_on(false);
        run.layer_spans("hier.cache_load_ms", tracer, "hier.cache_load");
        let hard = hard_macros(&binding(&ready, &options), &ready.abstracts);
        if let Some(last) = traced_results.last() {
            kernel_pass(
                &mut run,
                tracer,
                i as u64,
                &ready.top,
                &last.netlist,
                &options,
                Some(&hard),
            )?;
        }
    }
    Ok(run)
}

/// Macro instance name → content hash of its kind's current netlist.
fn binding(ready: &Ready, options: &FlowOptions) -> Vec<(String, u64)> {
    let hashes: Vec<u64> = ready
        .kinds
        .iter()
        .map(|k| content_hash(k, options))
        .collect();
    ready
        .instance_kind
        .iter()
        .map(|(name, k)| (name.clone(), hashes[*k]))
        .collect()
}

struct Integrated {
    report: camsoc_core::hier::HardenReport,
    /// `fold_signoff`'s (setup WNS, hold WNS, signed off).
    folded: (f64, f64, bool),
    result: camsoc_core::flow::FlowResult,
}

/// One timed iteration: harden the kinds against the cache, bind the
/// abstracts, run the top-level flow and fold the macro sign-off in.
#[allow(clippy::too_many_arguments)]
fn integrate(
    ready: &mut Ready,
    options: &FlowOptions,
    gates: QualityGates,
    par: camsoc_par::Parallelism,
    top: Netlist,
    tracer: &mut Tracer,
    id: u64,
    root: Option<usize>,
) -> Result<Integrated, String> {
    let (abstracts, report) = tracer
        .time("hier.harden", id, root, || {
            harden_macros(
                &ready.kinds,
                options,
                DEFAULT_PESSIMISM_NS,
                Some(&ready.cache),
                par,
            )
        })
        .map_err(|e| format!("harden: {e}"))?;
    let bind = binding(ready, options);
    ready.abstracts.extend(abstracts);
    let hard = hard_macros(&bind, &ready.abstracts);
    let supervisor = FlowSupervisor::new(options.clone())
        .with_gates(gates)
        .with_hier(hard);
    let mut checkpoint = FlowCheckpoint::new(top);
    let flow = tracer.begin("hier.top_flow", id, root);
    let outcome = run_stages(&supervisor, &mut checkpoint, tracer, id, flow)
        .and_then(|()| finish(&mut checkpoint, tracer, id, flow));
    tracer.end(flow);
    let result = outcome.map_err(|e| format!("top-level flow: {e}"))?;
    let used: Vec<&MacroAbstract> = {
        let mut hashes: Vec<u64> = bind.iter().map(|(_, h)| *h).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes
            .iter()
            .filter_map(|h| ready.abstracts.get(h))
            .collect()
    };
    let folded = fold_signoff(
        result.signoff_timing.setup.wns_ns,
        result.signoff_timing.hold.wns_ns,
        result.tapeout_ready(),
        &used,
    );
    Ok(Integrated {
        report,
        folded,
        result,
    })
}
