//! Flow driving shared by the workloads: the supervised flow stepped one
//! stage at a time (so stage spans wrap `FlowSupervisor::advance`), the
//! flow options the tiled workloads use, and the layout kernel pass.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use camsoc_core::flow::{FlowError, FlowOptions, FlowResult, FlowSupervisor};
use camsoc_core::{FlowCheckpoint, StageId};
use camsoc_dft::atpg::{Atpg, AtpgConfig};
use camsoc_dft::scan::insert_scan;
use camsoc_layout::place::{PlacementConfig, PlacementMode};
use camsoc_layout::route::RouteConfig;
use camsoc_layout::{
    cts, drc, extract, floorplan, gdsii, place, route, HardMacros, ImplementOptions,
};
use camsoc_netlist::equiv::{check_equivalence, EquivOptions};
use camsoc_netlist::graph::Netlist;
use camsoc_par::Parallelism;
use camsoc_sta::{multi_corner, Constraints, Corner, Sta};

use crate::trace::{SpanId, Tracer};
use crate::Run;

/// Span name of each stage, in `StageId::ALL` order.
const STAGE_SPANS: [&str; 9] = [
    "flow.validate",
    "flow.pre-sta",
    "flow.scan",
    "flow.atpg",
    "flow.layout",
    "flow.timing-fix",
    "flow.equiv",
    "flow.lvs",
    "flow.stream-out",
];

/// Per-layer metric of each stage, in `StageId::ALL` order.
const STAGE_METRICS: [&str; 9] = [
    "flow.validate_ms",
    "flow.pre-sta_ms",
    "flow.scan_ms",
    "flow.atpg_ms",
    "flow.layout_ms",
    "flow.timing-fix_ms",
    "flow.equiv_ms",
    "flow.lvs_ms",
    "flow.stream-out_ms",
];

fn stage_index(stage: StageId) -> usize {
    StageId::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("a known stage")
}

/// The `hier` row's flow options (20 ns clock, 400-fault sample,
/// wirelength placement at 40,000 moves, routing capacity ×3), run at
/// `par`.
pub fn tiled_options(par: Parallelism) -> FlowOptions {
    FlowOptions {
        clock_period_ns: 20.0,
        atpg: AtpgConfig {
            fault_sample: Some(400),
            max_random_blocks: 8,
            ..AtpgConfig::default()
        },
        layout: ImplementOptions {
            placement: PlacementConfig {
                mode: PlacementMode::Wirelength,
                iterations: 40_000,
                ..PlacementConfig::default()
            },
            routing: RouteConfig {
                capacity_scale: 3.0,
                ..RouteConfig::default()
            },
            ..ImplementOptions::default()
        },
        parallelism: par,
        ..FlowOptions::default()
    }
}

/// Drive a checkpoint through every stage it lacks, one `advance` per
/// stage, each inside a stage span under `parent`.
pub fn run_stages(
    supervisor: &FlowSupervisor,
    checkpoint: &mut FlowCheckpoint,
    tracer: &mut Tracer,
    request: u64,
    parent: Option<SpanId>,
) -> Result<(), FlowError> {
    while let Some(stage) = StageId::ALL
        .into_iter()
        .find(|&s| !checkpoint.is_complete(s))
    {
        let span = tracer.begin(STAGE_SPANS[stage_index(stage)], request, parent);
        let stepped = supervisor.advance(checkpoint);
        tracer.end(span);
        stepped?;
    }
    Ok(())
}

/// Drain a finished checkpoint into its result, inside a span.
pub fn finish(
    checkpoint: &mut FlowCheckpoint,
    tracer: &mut Tracer,
    request: u64,
    parent: Option<SpanId>,
) -> Result<FlowResult, FlowError> {
    tracer.time("flow.finish", request, parent, || checkpoint.finish())
}

/// `flow.*_ms` from the stage spans of the traced flows.
pub fn stage_layers_from_spans(run: &mut Run, tracer: &Tracer) {
    for (span, metric) in STAGE_SPANS.iter().zip(STAGE_METRICS) {
        run.layer_spans(metric, tracer, span);
    }
}

/// `flow.*_ms` from the flows' own `FlowTrace` attempt durations (for
/// flows the benchmark cannot wrap, such as those inside the farm).
pub fn stage_layers_from_traces<'a>(run: &mut Run, results: impl Iterator<Item = &'a FlowResult>) {
    let mut per_stage: [Vec<f64>; 9] = Default::default();
    for r in results {
        for (i, &stage) in StageId::ALL.iter().enumerate() {
            let d: Duration = r.trace.attempts_for(stage).iter().map(|a| a.duration).sum();
            per_stage[i].push(d.as_secs_f64() * 1e3);
        }
    }
    for (metric, samples) in STAGE_METRICS.iter().zip(&per_stage) {
        run.layer_median(metric, samples);
    }
}

/// Counters every flow result carries, as per-layer values (medians
/// over `results`).
pub fn result_layers(run: &mut Run, results: &[&FlowResult]) {
    let med =
        |f: &dyn Fn(&FlowResult) -> f64| -> Vec<f64> { results.iter().map(|r| f(r)).collect() };
    run.layer_median(
        "flow.attempts_per_stage",
        &med(&|r| r.trace.attempts.len() as f64 / 9.0),
    );
    run.layer_median("flow.compiles", &med(&|r| r.compile_stats.total() as f64));
    run.layer_median(
        "dft.fsim_gate_evals",
        &med(&|r| r.atpg.fsim_stats.gate_evals as f64),
    );
    run.layer_median("dft.patterns", &med(&|r| r.atpg.patterns.len() as f64));
    run.layer_median("dft.fault_coverage", &med(&|r| r.atpg.fault_coverage()));
    run.layer_median(
        "netlist.cones_proven",
        &med(&|r| r.equivalence.cones_proven as f64),
    );
    run.layer_median(
        "netlist.vectors_applied",
        &med(&|r| r.equivalence.vectors_applied as f64),
    );
    run.layer_median(
        "layout.route_overflow",
        &med(&|r| r.layout.routing.total_overflow as f64),
    );
    run.layer_median(
        "layout.place_moves_accepted",
        &med(&|r| r.layout.placement.accepted_moves as f64),
    );
    run.layer_median(
        "layout.wirelength_m",
        &med(&|r| r.layout.routing.total_wirelength_um / 1e6),
    );
    run.layer_median("sta.wns_ns", &med(&|r| r.signoff_timing.setup.wns_ns));
}

/// Kernel spans of [`kernel_pass`] and the per-layer metric each feeds.
const KERNELS: [(&str, &str); 13] = [
    ("dft.scan", "dft.scan_ms"),
    ("netlist.compile", "netlist.compile_ms"),
    ("dft.atpg", "dft.atpg_ms"),
    ("layout.floorplan", "layout.floorplan_ms"),
    ("layout.place", "layout.place_ms"),
    ("layout.cts", "layout.cts_ms"),
    ("layout.route", "layout.route_ms"),
    ("layout.extract", "layout.extract_ms"),
    ("layout.drc", "layout.drc_ms"),
    ("sta.analyze", "sta.analyze_ms"),
    ("sta.corners", "sta.corners_ms"),
    ("netlist.equiv", "netlist.equiv_ms"),
    ("layout.gdsii", "layout.gdsii_ms"),
];

/// The layout stage's kernels in `implement_with` order, then sign-off.
const LAYOUT_KERNELS: [&str; 7] = [
    "layout.floorplan",
    "layout.place",
    "layout.cts",
    "layout.route",
    "layout.extract",
    "layout.drc",
    "sta.analyze",
];

/// Re-run the kernels behind the scan, ATPG, layout, timing-fix, equiv
/// and stream-out stages on the stage's own inputs, outside any timed
/// request, each in its own span: `insert_scan`, `Netlist::compile`,
/// `Atpg::run`, the `implement_with` calls in order (floorplan, place,
/// CTS, route, extract, DRC, sign-off `Sta::analyze`), the two-corner
/// sign-off, `check_equivalence` against the flow's final netlist and
/// the GDSII writer. Records each kernel's per-layer metric and notes
/// each layout kernel's share of the layout stage.
pub fn kernel_pass(
    run: &mut Run,
    tracer: &mut Tracer,
    request: u64,
    input: &Netlist,
    final_netlist: &Netlist,
    options: &FlowOptions,
    hard: Option<&HardMacros>,
) -> Result<(), String> {
    let was_on = tracer.is_on();
    tracer.set_on(true);
    let t0 = Instant::now();
    let root = tracer.begin("kernels", request, None);
    let tech = &options.tech;
    let constraints = Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let p = root;
    let input = input.clone();
    let (scanned, _) = tracer
        .time("dft.scan", request, p, || insert_scan(input, &options.scan))
        .map_err(|e| format!("scan: {e}"))?;
    tracer
        .time("netlist.compile", request, p, || scanned.compile())
        .map_err(|e| format!("compile: {e}"))?;
    let atpg_cfg = AtpgConfig {
        parallelism: options.parallelism,
        fsim_mode: options.fsim_mode,
        ..options.atpg.clone()
    };
    let atpg = Atpg::new(&scanned, atpg_cfg).map_err(|e| format!("atpg: {e}"))?;
    tracer.time("dft.atpg", request, p, || atpg.run());
    drop(atpg);

    let mut layout = options.layout.clone();
    layout.placement.parallelism = options.parallelism;
    layout.routing.parallelism = options.parallelism;
    let empty = HashMap::new();
    let outlines = hard.map_or(&empty, |h| &h.outlines_um);
    let fp = tracer
        .time("layout.floorplan", request, p, || {
            floorplan::Floorplan::generate_with(&scanned, tech, outlines)
        })
        .map_err(|e| format!("floorplan: {e}"))?;
    let placement = tracer.time("layout.place", request, p, || {
        place::place(&scanned, tech, &fp, &constraints, &layout.placement)
    });
    let clock_tree = tracer.time("layout.cts", request, p, || {
        cts::synthesize(&scanned, tech, &fp, &placement, &layout.clock_port)
    });
    let routing = tracer.time("layout.route", request, p, || {
        route::route(&scanned, &fp, &placement, &layout.routing)
    });
    let wires = tracer.time("layout.extract", request, p, || {
        extract::wire_delays(&scanned, tech, &routing)
    });
    tracer.time("layout.drc", request, p, || {
        drc::check(&scanned, &fp, &placement, &routing)
    });
    let mut sta = Sta::new(&scanned, tech, constraints.clone())
        .with_wire_delays(wires)
        .with_clock_latency(clock_tree.latency_ns.clone());
    if let Some(h) = hard {
        sta = sta.with_macro_timing(h.timing.clone());
    }
    tracer
        .time("sta.analyze", request, p, || sta.analyze())
        .map_err(|e| format!("sta: {e}"))?;
    tracer
        .time("sta.corners", request, p, || {
            multi_corner::signoff(&sta, Corner::worst(), Corner::best(), options.parallelism)
        })
        .map_err(|e| format!("corners: {e}"))?;
    let equiv = EquivOptions {
        parallelism: options.parallelism,
        ..options.equiv.clone()
    };
    let report = tracer
        .time("netlist.equiv", request, p, || {
            check_equivalence(&scanned, final_netlist, &equiv)
        })
        .map_err(|e| format!("equiv: {e}"))?;
    if !report.passed() {
        run.problem(format!(
            "kernel pass: equivalence verdict {:?}",
            report.verdict
        ));
    }
    let gds = tracer.time("layout.gdsii", request, p, || {
        gdsii::write(&scanned, &fp, &placement)
    });
    if let Err(e) = gdsii::verify(&gds) {
        run.problem(format!("kernel pass: malformed GDSII: {e}"));
    }
    tracer.end(root);
    tracer.set_on(was_on);

    for (span, metric) in KERNELS {
        let d = tracer.durations_ms(span);
        if let Some(&last) = d.last() {
            run.layer(metric, last, 1);
        }
    }
    let share: Vec<(&str, f64)> = LAYOUT_KERNELS
        .iter()
        .map(|k| (*k, tracer.durations_ms(k).last().copied().unwrap_or(0.0)))
        .collect();
    let total: f64 = share.iter().map(|(_, v)| v).sum();
    let parts: Vec<String> = share
        .iter()
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / total.max(f64::MIN_POSITIVE)))
        .collect();
    run.notes.push(format!(
        "kernel pass ({:.0} ms, outside the timed requests): layout stage kernels {:.1} ms = {}",
        t0.elapsed().as_secs_f64() * 1e3,
        total,
        parts.join(", ")
    ));
    Ok(())
}
