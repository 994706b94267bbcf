//! `tapeout_16k`: one client repeats the full supervised nine-stage flow
//! on a flat tiled chip of about 16K gates (4 tiles × 4,000 gates in two
//! kinds, seeded), at `Parallelism::Threads(nproc)` under the default
//! quality gates.
//!
//! Why: this is the paper's product, netlist to signed-off GDSII, at
//! the smallest whole-run scale the roadmap names. Routing, placement,
//! equivalence and ATPG do the work; serve, hier, pin assignment and
//! incremental ECO timing stay idle.

use std::time::{Duration, Instant};

use camsoc_core::flow::{FlowOptions, FlowResult, FlowSupervisor};
use camsoc_core::hier::{build_tiled_flat, TiledParams};
use camsoc_core::resilience::QualityGates;
use camsoc_core::FlowCheckpoint;
use camsoc_layout::gdsii;
use camsoc_netlist::generate::{ip_block, IpBlockParams};

use crate::flows::{
    finish, kernel_pass, result_layers, run_stages, stage_layers_from_spans, tiled_options,
};
use crate::metrics::Headline;
use crate::trace::{self_times, Tracer};
use crate::{digest, repeat_setup, Ctx, Run, Window, SETUP_REPEATS};

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let options = tiled_options(ctx.parallelism());
    let params = TiledParams {
        tiles: 4,
        kinds: 2,
        tile_gates: 4_000,
        data_width: 16,
        seed: ctx.seed,
    };
    let chip = repeat_setup(&mut run, SETUP_REPEATS, || -> Result<_, String> {
        let chip = build_tiled_flat(&params).map_err(|e| e.to_string())?;
        warm_up(&options)?;
        Ok(chip)
    })?;
    run.host
        .push(("flow_parallelism", format!("{:?}", options.parallelism)));
    run.notes.push(format!(
        "chip: {} instances, {} tiles x {} gates in {} kinds, seed {}",
        chip.num_instances(),
        params.tiles,
        params.tile_gates,
        params.kinds,
        params.seed
    ));

    let supervisor = FlowSupervisor::new(options.clone()).with_gates(QualityGates::default());
    let window = Window::open(ctx.seconds);
    let mut reference: Option<u64> = None;
    let mut first: Option<FlowResult> = None;
    let mut traced: Vec<FlowResult> = Vec::new();
    let mut checkpoint_bytes = Vec::new();
    let mut last = Duration::ZERO;
    let mut i = 0usize;
    while window.fits(last) {
        let is_traced = ctx.traced(i);
        tracer.set_on(is_traced);
        let mut checkpoint = FlowCheckpoint::new(chip.clone());
        run.attempted += 1;
        let t0 = Instant::now();
        let id = i as u64;
        let root = tracer.begin("tapeout", id, None);
        let mut encoded = None;
        let outcome = run_stages(&supervisor, &mut checkpoint, tracer, id, root).and_then(|()| {
            // the checkpoint's size after stream-out, while tracing only
            encoded = tracer
                .is_on()
                .then(|| tracer.time("persist.to_bytes", id, root, || checkpoint.to_bytes().len()));
            finish(&mut checkpoint, tracer, id, root)
        });
        tracer.end(root);
        last = t0.elapsed();
        tracer.set_on(false);
        run.request_done(is_traced, last);
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                run.fail(format!("tapeout {i}: flow error: {e}"));
                i += 1;
                continue;
            }
        };
        let d = digest(&result.gds);
        let mut bad = Vec::new();
        if !result.tapeout_ready() {
            bad.push("not tapeout-ready".to_string());
        }
        if let Err(e) = gdsii::verify(&result.gds) {
            bad.push(format!("GDSII does not verify: {e}"));
        }
        if *reference.get_or_insert(d) != d {
            bad.push("GDSII digest differs from the first repeat".to_string());
        }
        if !bad.is_empty() {
            run.fail(format!("tapeout {i}: {}", bad.join(", ")));
        }
        if let Some(n) = encoded {
            checkpoint_bytes.push(n as f64 / 1e6);
        }
        if is_traced {
            traced.push(result);
        } else if first.is_none() {
            first = Some(result);
        }
        i += 1;
    }

    let qor = first
        .as_ref()
        .or(traced.first())
        .ok_or("no tapeout finished")?;
    let s: Vec<f64> = run.turnaround_ms.iter().map(|ms| ms / 1e3).collect();
    run.headlines.push(Headline::median("tapeout_s", "s", &s));
    run.headlines.push(Headline::new(
        "wirelength_m",
        "m",
        "lower",
        qor.layout.routing.total_wirelength_um / 1e6,
        1,
    ));
    run.headlines.push(Headline::new(
        "wns_ns",
        "ns",
        "higher",
        qor.signoff_timing.setup.wns_ns,
        1,
    ));
    run.headlines.push(Headline::new(
        "fault_coverage",
        "fraction",
        "higher",
        qor.atpg.fault_coverage(),
        1,
    ));
    if let Some(d) = reference {
        run.notes
            .push(format!("GDSII digest {d:016x} ({} bytes)", qor.gds.len()));
    }

    if ctx.trace {
        stage_layers_from_spans(&mut run, tracer);
        let refs: Vec<&FlowResult> = traced.iter().collect();
        result_layers(&mut run, &refs);
        run.layer_median("persist.checkpoint_mb", &checkpoint_bytes);
        account_stage_spans(&mut run, tracer);
        let final_netlist = &qor.netlist;
        kernel_pass(
            &mut run,
            tracer,
            i as u64,
            &chip,
            final_netlist,
            &options,
            None,
        )?;
    }
    Ok(run)
}

/// A 300-gate flow before timing: faults in code and allocator pages
/// so the first timed tapeout does not pay for them.
fn warm_up(options: &FlowOptions) -> Result<(), String> {
    let nl = ip_block(
        "warmup",
        &IpBlockParams {
            target_gates: 300,
            seed: 1,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    FlowSupervisor::new(options.clone())
        .run(nl)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// How much of each traced tapeout its child spans (the nine stages,
/// the checkpoint encode and the final drain) leave unexplained.
fn account_stage_spans(run: &mut Run, tracer: &Tracer) {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut worst: f64 = 0.0;
    let mut n = 0;
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name == "tapeout" {
            n += 1;
            worst = worst.max(own.as_secs_f64() * 1e3);
        }
    }
    if n > 0 {
        run.notes.push(format!(
            "stage spans account for each traced tapeout to within {worst:.3} ms (worst of {n})"
        ));
    }
}
