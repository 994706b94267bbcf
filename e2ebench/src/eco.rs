//! `eco_paper`: one client replays the paper's 29-change history (3
//! spec, 10 netlist, 3 timing, 13 pin-assignment versions) on the DSC
//! controller at 10% scale. Each change goes through `apply_change` and
//! is re-timed by one persistent `IncrementalSta`; replays repeat with
//! fresh seeded gate picks while another whole replay fits the window.
//! Replays are never cut short: the median sits where the fast spec and
//! netlist classes meet the pin-version class, so a partial replay
//! would shift it between classes.
//!
//! Why: ECO turnaround is what the paper says set the schedule.
//! Cone-local equivalence proofs, pin re-optimisation and
//! journal-patched STA do the work; layout and ATPG never run, so this
//! is the no-change workload for every back-end optimisation.

use std::time::{Duration, Instant};

use camsoc_core::build_dsc;
use camsoc_core::eco::{
    apply_change, paper_change_history, ChangeKind, ReplayContext, ReplayOptions,
};
use camsoc_sta::{Constraints, IncrementalSta, Sta};

use crate::metrics::Headline;
use crate::trace::Tracer;
use crate::{mix, repeat_setup, Ctx, Run, Window, SETUP_REPEATS};

/// DSC scale: about 12.4K instances.
const SCALE: f64 = 0.1;

fn class_span(kind: ChangeKind) -> &'static str {
    match kind {
        ChangeKind::Spec => "eco.spec",
        ChangeKind::NetlistEco => "eco.netlist",
        ChangeKind::TimingEco => "eco.timing",
        ChangeKind::PinAssign => "eco.pin",
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let opts = ReplayOptions::default();
    let constraints = Constraints::single_clock(&opts.clock_port, opts.clock_period_ns);
    let history = paper_change_history();
    let (base, baseline) = repeat_setup(&mut run, SETUP_REPEATS, || -> Result<_, String> {
        let design = build_dsc(SCALE).map_err(|e| e.to_string())?;
        let (engine, _) = Sta::new(&design.netlist, &opts.tech, constraints.clone())
            .with_corner(opts.corner)
            .into_incremental()
            .map_err(|e| e.to_string())?;
        Ok((
            design.netlist,
            engine.with_max_cone_fraction(opts.max_cone_fraction),
        ))
    })?;
    run.notes.push(format!(
        "DSC at scale {SCALE}: {} instances; {} changes per replay",
        base.num_instances(),
        history.len()
    ));

    let window = Window::open(ctx.seconds);
    let mut cone_fraction = Vec::new();
    let mut rebuilds_per_replay = Vec::new();
    let mut change = 0usize;
    let mut replay = 0u64;
    let mut last_replay = Duration::ZERO;
    'replays: while window.fits(last_replay) {
        let replay_start = Instant::now();
        // Alternate whole replays in a traced run, so both halves see
        // the same class mix.
        let traced = ctx.traced(replay as usize);
        let mut rctx = ReplayContext::new(&base, mix(ctx.seed, replay), opts.equiv_rounds);
        let mut current = base.clone();
        let mut engine: IncrementalSta = baseline.clone();
        let mut last_report = None;
        let mut rebuilds = 0usize;
        for request in &history {
            tracer.set_on(traced);
            run.attempted += 1;
            let id = change as u64;
            let t0 = Instant::now();
            let root = tracer.begin("change", id, None);
            let applied = tracer.time(class_span(request.kind), id, root, || {
                apply_change(current, request, &mut rctx)
            });
            let outcome = match applied {
                Ok(o) => o,
                Err(e) => {
                    // the netlist went into the failed change: start the
                    // next replay
                    tracer.end(root);
                    tracer.set_on(false);
                    run.fail(format!("change {change} ({}): {e}", request.description));
                    change += 1;
                    replay += 1;
                    continue 'replays;
                }
            };
            current = outcome.netlist;
            let mut update_err = None;
            if !outcome.delta.is_empty() {
                match tracer.time("sta.update", id, root, || {
                    engine.update(&current, &opts.tech, &outcome.delta)
                }) {
                    Ok(report) => last_report = Some(report),
                    Err(e) => update_err = Some(e.to_string()),
                }
            }
            tracer.end(root);
            tracer.set_on(false);
            run.request_done(traced, t0.elapsed());
            if traced && !outcome.delta.is_empty() && update_err.is_none() {
                let s = engine.stats();
                cone_fraction.push(s.cone_fraction);
                rebuilds += usize::from(s.structures_rebuilt);
            }
            if let Some(e) = update_err {
                run.fail(format!("change {change}: incremental STA: {e}"));
            } else if !outcome.check_ok {
                run.fail(format!(
                    "change {change} ({}): check failed",
                    request.description
                ));
            }
            change += 1;
        }
        if traced {
            rebuilds_per_replay.push(rebuilds as f64);
        }
        last_replay = replay_start.elapsed();
        check_final(&mut run, replay, &current, &opts, &constraints, last_report);
        replay += 1;
    }

    let n = run.turnaround_ms.len() + run.traced_turnaround_ms.len();
    run.notes.push(format!("{replay} replays, {n} changes"));
    run.headlines
        .push(Headline::median("eco_p50_ms", "ms", &run.turnaround_ms));
    run.headlines
        .push(Headline::tail("eco_p95_ms", "ms", &run.turnaround_ms, 95.0));
    if ctx.trace {
        for (span, metric) in [
            ("eco.spec", "eco.spec_ms"),
            ("eco.netlist", "eco.netlist_ms"),
            ("eco.timing", "eco.timing_ms"),
            ("eco.pin", "eco.pin_ms"),
        ] {
            run.layer_spans(metric, tracer, span);
        }
        run.layer_spans("sta.update_ms", tracer, "sta.update");
        run.layer_median("sta.cone_fraction", &cone_fraction);
        run.layer_median("sta.rebuilds", &rebuilds_per_replay);
    }
    Ok(run)
}

/// The incremental engine's last report must equal a from-scratch
/// analysis of the final netlist (checked outside the timed changes).
fn check_final(
    run: &mut Run,
    replay: u64,
    current: &camsoc_netlist::graph::Netlist,
    opts: &ReplayOptions,
    constraints: &Constraints,
    last_report: Option<camsoc_sta::TimingReport>,
) {
    let Some(incremental) = last_report else {
        return;
    };
    match Sta::new(current, &opts.tech, constraints.clone())
        .with_corner(opts.corner)
        .analyze()
    {
        Ok(full) if full == incremental => {}
        Ok(_) => run.problem(format!(
            "replay {replay}: incremental STA differs from a full analysis"
        )),
        Err(e) => run.problem(format!("replay {replay}: full STA failed: {e}")),
    }
}
