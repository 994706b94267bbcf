//! End-to-end integration: the DSC controller through the complete
//! service flow, checked across crate boundaries.

use camsoc::flow::build_dsc;
use camsoc::flow::flow::{run_flow, FlowCheckpoint, FlowOptions, FlowResult, FlowSupervisor};
use camsoc::flow::StageId;
use camsoc::flow::signoff::SignoffReport;
use camsoc::dft::atpg::AtpgConfig;
use camsoc::layout::place::{PlacementConfig, PlacementMode};
use camsoc::layout::ImplementOptions;
use camsoc::netlist::generate::{ip_block, IpBlockParams};
use camsoc::netlist::stats::NetlistStats;
use camsoc::netlist::tech::Technology;
use camsoc::par::Parallelism;
use camsoc::sta::{multi_corner, Constraints, Corner, Sta};

mod common;
use common::flow_digest;

/// The compile audit: one compile in pre-layout STA, one in Scan, none
/// in any other stage.
fn assert_compiles_twice(r: &FlowResult) {
    let stats = &r.compile_stats;
    assert_eq!(stats.total(), 2, "per-stage compiles: {:?}", stats.per_stage);
    for stage in StageId::ALL {
        let expected = usize::from(matches!(stage, StageId::PreSta | StageId::Scan));
        assert_eq!(stats.for_stage(stage), expected, "{stage}: {:?}", stats.per_stage);
    }
}

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

/// A 2 ns clock (500 MHz in 0.25 µm: hopeless), so both fix loops run.
fn stressed_options() -> FlowOptions {
    FlowOptions { clock_period_ns: 2.0, ..quick_options() }
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

    // compile audit: the flow derives a CompiledNetlist exactly twice —
    // pre-layout STA's snapshot of the input, and the Scan stage's
    // snapshot of the scanned netlist, which ATPG, layout, the
    // timing-fix engine and both equivalence models read. Any growth
    // here means a kernel started silently re-deriving the compiled
    // view per call.
    assert_compiles_twice(&result);

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
    let options = stressed_options();
    let stressed = run_flow(design.netlist, &options).expect("flow");
    assert!(stressed.signoff_timing.setup.wns_ns < relaxed.signoff_timing.setup.wns_ns);

    // Both fix loops run at 2 ns, yet the timing-fix stage compiles
    // nothing: the incremental engine patches a copy of the scanned
    // snapshot and hands it to the two-corner sign-off. A stale
    // snapshot would show up as a difference from a sign-off of the
    // final netlist over a fresh compile (layout wires, 0.01 ns for ECO
    // nets, CTS latencies).
    assert!(stressed.timing_ecos > 0, "the fix loops must engage");
    assert_compiles_twice(&stressed);
    let mut wires = stressed.layout.wire_delays_ns.clone();
    wires.resize(stressed.netlist.num_nets(), 0.01);
    let constraints = Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let base = Sta::new(&stressed.netlist, &options.tech, constraints)
        .with_wire_delays(wires)
        .with_clock_latency(stressed.layout.clock_tree.latency_ns.clone());
    let fresh = multi_corner::signoff(&base, Corner::worst(), Corner::best(), options.parallelism)
        .expect("fresh sign-off");
    assert_eq!(stressed.corner_signoff, fresh);
    assert_eq!(flow_digest(&stressed), PINNED_FIX_LOOP);
}

// [`flow_digest`]s recorded with the graph-walking STA pass (before
// every stage shared one compiled snapshot of the scanned netlist).

/// 300-gate `ip_block`, seed 5, default options (timing-driven
/// placement), serial: 34 timing ECOs, 149 of 663 STA evaluations.
const PINNED_IP_BLOCK_SERIAL: u64 = 0xcd93_9dbc_5a27_d8e5;
/// The same flow at 2 threads (`threads_used` is encoded, so the
/// digest differs from the serial one; nothing else does).
const PINNED_IP_BLOCK_THREADS2: u64 = 0x5b55_070c_d944_f474;
/// The DSC at 0.015 with a 2 ns clock, both fix loops running: 55
/// timing ECOs, 459 of 29,908 STA evaluations.
const PINNED_FIX_LOOP: u64 = 0xdde9_97b1_1239_2728;

#[test]
fn ip_block_flow_matches_pinned_digests() {
    for (parallelism, pinned) in [
        (Parallelism::Serial, PINNED_IP_BLOCK_SERIAL),
        (Parallelism::Threads(2), PINNED_IP_BLOCK_THREADS2),
    ] {
        let nl = ip_block("blk", &IpBlockParams { target_gates: 300, seed: 5, ..Default::default() })
            .expect("generate");
        let options = FlowOptions { parallelism, ..FlowOptions::default() };
        let r = run_flow(nl, &options).expect("flow");
        assert_eq!(r.timing_ecos, 34, "{parallelism:?}");
        assert_eq!(flow_digest(&r), pinned, "{parallelism:?}");
    }
}

#[test]
fn resume_after_timing_fix_matches_uninterrupted_run() {
    // The 2 ns flow checkpointed once TimingFix is done: the decode
    // re-derives the final netlist's snapshot by compiling it, so
    // equivalence reads that fresh compile instead of the engine's
    // journal-patched copy, and must not notice.
    let design = build_dsc(0.015).expect("dsc");
    let options = stressed_options();
    let uninterrupted = run_flow(design.netlist.clone(), &options).expect("flow");
    let supervisor = FlowSupervisor::new(options);
    let mut ckpt = FlowCheckpoint::new(design.netlist);
    while !ckpt.is_complete(StageId::TimingFix) {
        supervisor.advance(&mut ckpt).expect("advance");
    }
    let mut decoded = FlowCheckpoint::from_bytes(&ckpt.to_bytes()).expect("decode");
    assert_eq!(decoded, ckpt, "a re-derived snapshot must equal the patched one");
    let resumed = supervisor.resume(&mut decoded).expect("resume");
    assert!(resumed.timing_ecos > 0, "the fix loops must engage");
    assert_eq!(resumed.equivalence, uninterrupted.equivalence);
    assert_eq!(resumed.corner_signoff, uninterrupted.corner_signoff);
    assert_eq!(resumed.gds, uninterrupted.gds);
    assert_eq!(flow_digest(&resumed), PINNED_FIX_LOOP);
    // the stages after the decode compiled nothing themselves
    assert_eq!(resumed.compile_stats.total(), 0, "{:?}", resumed.compile_stats.per_stage);
}
