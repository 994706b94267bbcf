//! End-to-end integration: the DSC controller through the complete
//! service flow, checked across crate boundaries.

use camsoc::flow::build_dsc;
use camsoc::flow::flow::{run_flow, FlowOptions};
use camsoc::flow::signoff::SignoffReport;
use camsoc::dft::atpg::AtpgConfig;
use camsoc::layout::place::{PlacementConfig, PlacementMode};
use camsoc::layout::ImplementOptions;
use camsoc::netlist::stats::NetlistStats;
use camsoc::netlist::tech::Technology;
use camsoc::sta::{multi_corner, Constraints, Corner, Sta};

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
fn dsc_controller_reaches_signoff() {
    let design = build_dsc(0.025).expect("integrate");
    assert_eq!(design.memory_count(), 30);
    let stats_before = NetlistStats::of(&design.netlist);

    let result = run_flow(design.netlist, &quick_options()).expect("flow");

    // scan added state and the DFT ports
    assert!(result.netlist.find_port("scan_en").is_some());
    let stats_after = NetlistStats::of(&result.netlist);
    assert!(stats_after.flops >= stats_before.flops);

    // tapeout gates
    assert!(result.tapeout_ready(), "setup {:?} hold {:?} drc {:?} lvs {} equiv {:?}",
        result.signoff_timing.setup,
        result.signoff_timing.hold,
        result.layout.drc.summary(),
        result.lvs.clean(),
        result.equivalence.verdict);

    // compile audit: the flow derives a CompiledNetlist exactly four
    // times — ATPG's fault universe, the sign-off STA baseline, and
    // the two equivalence models. Any growth here means a kernel
    // started silently re-deriving the compiled view per call.
    use camsoc::flow::StageId;
    assert_eq!(
        result.compile_stats.total(),
        4,
        "per-stage compiles: {:?}",
        result.compile_stats.per_stage
    );
    assert_eq!(result.compile_stats.for_stage(StageId::Atpg), 1);
    assert_eq!(result.compile_stats.for_stage(StageId::TimingFix), 1);
    assert_eq!(result.compile_stats.for_stage(StageId::Equiv), 2);

    // the GDSII stream parses and contains all cells
    let records = camsoc::layout::gdsii::verify(&result.gds).expect("gds well-formed");
    assert!(records.values().sum::<usize>() > stats_after.instances);

    // the report renders all gates green — including the new
    // multi-corner timing item driven by the two-corner sign-off
    assert!(result.corner_signoff.clean(), "corner signoff {:?}", result.corner_signoff);
    let report = SignoffReport::assemble(&result, &Technology::default());
    assert!(report.ready());
    assert!(report.render().contains("TAPEOUT READY"));
    assert!(report.render().contains("multi-corner timing"));
}

#[test]
fn two_corner_signoff_on_dsc_engages_parallel_kernels() {
    // a parallel flow run must actually fan out — `threads_used` on the
    // routing result and the corner sign-off would expose a plumbing
    // regression that silently dropped back to serial
    let design = build_dsc(0.015).expect("dsc");
    let mut options = quick_options();
    options.parallelism = camsoc::par::Parallelism::Threads(2);
    let result = run_flow(design.netlist, &options).expect("flow");
    assert_eq!(result.layout.routing.threads_used, 2, "router fell back to serial");
    assert_eq!(result.corner_signoff.threads_used, 2, "corner STA fell back to serial");
    assert_eq!(result.corner_signoff.slow.corner_name, "worst");
    assert_eq!(result.corner_signoff.fast.corner_name, "best");
    assert!(result.corner_signoff.clean(), "corner signoff {:?}", result.corner_signoff);
    assert!(
        result.layout.routing.clean(),
        "routing overflow: {} tracks on {} edges",
        result.layout.routing.total_overflow,
        result.layout.routing.overflowed_edges
    );
}

#[test]
fn flow_is_deterministic() {
    let a = build_dsc(0.015).expect("dsc");
    let b = build_dsc(0.015).expect("dsc");
    let ra = run_flow(a.netlist, &quick_options()).expect("flow");
    let rb = run_flow(b.netlist, &quick_options()).expect("flow");
    assert_eq!(ra.scan.scan_flops, rb.scan.scan_flops);
    assert_eq!(ra.atpg.detected, rb.atpg.detected);
    assert_eq!(ra.gds, rb.gds);
}

#[test]
fn faster_clock_is_harder_to_close() {
    let design = build_dsc(0.015).expect("dsc");
    let relaxed = run_flow(design.netlist.clone(), &quick_options()).expect("flow");
    let mut options = quick_options();
    options.clock_period_ns = 2.0; // 500 MHz in 0.25 µm: hopeless
    let stressed = run_flow(design.netlist, &options).expect("flow");
    assert!(stressed.signoff_timing.setup.wns_ns < relaxed.signoff_timing.setup.wns_ns);

    // Both fix loops run at 2 ns, yet the timing-fix stage compiles
    // once: the incremental engine's journal-patched snapshot is handed
    // to the two-corner sign-off. A stale snapshot would show up as a
    // difference from a sign-off of the final netlist over a fresh
    // compile (layout wires, 0.01 ns for ECO nets, CTS latencies).
    use camsoc::flow::StageId;
    assert!(stressed.timing_ecos > 0, "the fix loops must engage");
    assert_eq!(stressed.compile_stats.for_stage(StageId::TimingFix), 1);
    let mut wires = stressed.layout.wire_delays_ns.clone();
    wires.resize(stressed.netlist.num_nets(), 0.01);
    let constraints = Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let base = Sta::new(&stressed.netlist, &options.tech, constraints)
        .with_wire_delays(wires)
        .with_clock_latency(stressed.layout.clock_tree.latency_ns.clone());
    let fresh = multi_corner::signoff(&base, Corner::worst(), Corner::best(), options.parallelism)
        .expect("fresh sign-off");
    assert_eq!(stressed.corner_signoff, fresh);
}
