//! Integration: the compiled (SoA/CSR) netlist snapshot must be an
//! exact, bit-faithful mirror of the graph it was compiled from — and
//! every traversal kernel that runs on it (fault simulation, equivalence
//! cones) must match the naive graph-walking oracles of
//! `camsoc_bench::oracle`, or reports recorded while a graph-walking
//! engine still ran beside it, at every thread count, before and after
//! the snapshot is patched through the ECO journal. (STA's oracle reads
//! private engine state, so it lives beside it in `camsoc-sta`.)

use camsoc::dft::faults::FaultList;
use camsoc::dft::fsim::{CombCircuit, FsimCounters};
use camsoc::dft::scan::{insert_scan, ScanConfig};
use camsoc::flow::build_dsc;
use camsoc::flow::eco::{apply_change, paper_change_history, ReplayContext};
use camsoc::netlist::cell::CellFunction;
use camsoc::netlist::compiled::{CompiledNetlist, CLOCK_PIN};
use camsoc::netlist::eco::EcoSession;
use camsoc::netlist::equiv::{
    check_equivalence, CombModel, EquivOptions, EquivReport, EquivVerdict, SinkKey,
};
use camsoc::netlist::generate::{ip_block, IpBlockParams, SplitMix64};
use camsoc::netlist::graph::{NetDriver, NetId, Netlist};
use camsoc::netlist::tech::Technology;
use camsoc::par::Parallelism;
use camsoc::sta::{multi_corner, Constraints, Corner, Sta};
use camsoc_bench::oracle;

const THREADS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 2] = [9, 23];

/// Every derived array of the snapshot against the graph derivation it
/// replaces: CSR fanin rows vs `Instance::inputs`, CSR fanout rows vs
/// `Netlist::fanout_map`, counts, levels, topological order, driver
/// table and the interned names.
fn assert_mirrors_graph(nl: &Netlist, cn: &CompiledNetlist, context: &str) {
    assert_eq!(cn.num_instances(), nl.num_instances(), "{context}: instance count");
    assert_eq!(cn.num_nets(), nl.num_nets(), "{context}: net count");

    for (id, inst) in nl.instances() {
        assert_eq!(cn.cell(id), inst.cell, "{context}: cell of {id:?}");
        assert_eq!(cn.output(id), inst.output, "{context}: output of {id:?}");
        assert_eq!(cn.clock(id), inst.clock, "{context}: clock of {id:?}");
        assert_eq!(cn.instance_name(id), inst.name, "{context}: name of {id:?}");
        let fanin: Vec<u32> = inst.inputs.iter().map(|n| n.0).collect();
        assert_eq!(cn.fanin(id), &fanin[..], "{context}: fanin row of {id:?}");
    }

    let levels = nl.logic_levels().expect("acyclic");
    let fanout_map = nl.fanout_map();
    let fanout_counts = nl.fanout_counts();
    for i in 0..nl.num_nets() {
        let net = camsoc::netlist::NetId(i as u32);
        assert_eq!(cn.net_name(net), nl.net(net).name, "{context}: name of net {i}");
        assert_eq!(cn.fanout_count(net), fanout_counts[i], "{context}: fanout count {i}");
        let expected_driver = match nl.net(net).driver {
            Some(NetDriver::Instance(d)) => Some(d),
            _ => None,
        };
        assert_eq!(cn.driver_instance(net), expected_driver, "{context}: driver of {i}");
        // rows as sorted multisets: a journal patch may permute a row
        // relative to a fresh compile, and every consumer is immune to
        // the order by construction (min-folds / set semantics)
        let mut graph_row: Vec<(u32, u32)> = fanout_map[i]
            .iter()
            .map(|&(inst, pin)| {
                (inst.0, if pin == usize::MAX { CLOCK_PIN } else { pin as u32 })
            })
            .collect();
        let mut csr_row: Vec<(u32, u32)> = cn.fanout(net).to_vec();
        graph_row.sort_unstable();
        csr_row.sort_unstable();
        assert_eq!(csr_row, graph_row, "{context}: fanout row of net {i}");
    }
    for (i, &lvl) in levels.iter().enumerate() {
        let id = camsoc::netlist::InstanceId(i as u32);
        assert_eq!(cn.level(id), lvl, "{context}: level of instance {i}");
    }

    // the precomputed order covers exactly the combinational instances,
    // sorted by (level, id) — which is a valid topological order
    let comb: usize =
        nl.instances().filter(|(_, i)| !i.function().is_sequential()).count();
    assert_eq!(cn.topo_order().len(), comb, "{context}: order length");
    let mut prev: Option<(usize, u32)> = None;
    for &id in cn.topo_order() {
        assert!(!cn.is_sequential(id), "{context}: sequential instance in order");
        let key = (cn.level(id), id.0);
        assert!(prev.is_none_or(|p| p < key), "{context}: order not (level, id) sorted");
        prev = Some(key);
    }
}

#[test]
fn csr_adjacency_matches_graph_adjacency() {
    for seed in SEEDS {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 900, seed, ..Default::default() },
        )
        .expect("generate");
        let cn = nl.compile().expect("compile");
        assert_mirrors_graph(&nl, &cn, &format!("seed {seed}"));
    }
}

#[test]
fn fsim_on_compiled_core_matches_uncached_reference_across_threads() {
    for seed in SEEDS {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 700, seed, ..Default::default() },
        )
        .expect("generate");
        let nl = insert_scan(nl, &ScanConfig::default()).expect("scan").0;
        let cc = CombCircuit::new(&nl).expect("comb");
        let faults = FaultList::generate(&nl).sample(300);
        let mut rng = SplitMix64::new(seed);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);

        // the oracle re-simulates the whole graph per fault; the
        // engine's cone walks read only the compiled arrays
        let sources: Vec<(NetId, u64)> = cc.sources.iter().copied().zip(assign).collect();
        let oracle_good = oracle::comb_values(&nl, &sources, None);
        assert_eq!(good, oracle_good, "seed {seed}: good values");
        let reference: Vec<u64> = faults
            .faults
            .iter()
            .map(|&f| oracle::fault_lanes(&nl, &sources, &oracle_good, f))
            .collect();
        for t in THREADS {
            let cached = cc.detect_all(
                &faults.faults,
                &good,
                Parallelism::Threads(t),
                &FsimCounters::default(),
            );
            assert_eq!(cached, reference, "seed {seed} t{t}");
        }
    }
}

#[test]
fn multi_corner_fan_out_on_compiled_core_matches_direct_analyses() {
    let tech = Technology::default();
    let corners = [Corner::typical(), Corner::worst(), Corner::best()];
    for seed in SEEDS {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 600, seed, ..Default::default() },
        )
        .expect("generate");
        let constraints = Constraints::single_clock("clk", 7.5);
        let base = Sta::new(&nl, &tech, constraints.clone());
        for t in THREADS {
            let fanned =
                multi_corner::analyze_corners(&base, &corners, Parallelism::Threads(t))
                    .expect("sta");
            for (corner, report) in corners.iter().zip(&fanned) {
                let direct = Sta::new(&nl, &tech, constraints.clone())
                    .with_corner(*corner)
                    .analyze()
                    .expect("sta");
                assert_eq!(*report, direct, "seed {seed} t{t} corner {}", corner.name);
            }
        }
    }
}

/// `(seed, label, report)` for each pair that
/// `equiv_reports_are_pinned_across_threads` checks, recorded while a
/// graph-walking engine still ran beside the compiled one and matched it
/// at every thread count.
fn pinned_equiv_reports() -> [(u64, &'static str, EquivReport); 4] {
    let equivalent = |n| EquivReport {
        verdict: EquivVerdict::Equivalent,
        sinks_compared: n,
        cones_proven: n,
        vectors_applied: 2048,
    };
    let differs = |n, flop: &str| EquivReport {
        verdict: EquivVerdict::NotEquivalent { sink: SinkKey::StateD(flop.into(), 0) },
        sinks_compared: n,
        cones_proven: 0,
        vectors_applied: 64,
    };
    [
        (9, "identical", equivalent(177)),
        (9, "mutated", differs(177, "u_dff_723")),
        (23, "identical", equivalent(182)),
        (23, "mutated", differs(182, "u_dff_1042")),
    ]
}

#[test]
fn equiv_reports_are_pinned_across_threads() {
    let pins = pinned_equiv_reports();
    for seed in SEEDS {
        let golden = ip_block(
            "blk",
            &IpBlockParams { target_gates: 500, seed, ..Default::default() },
        )
        .expect("generate");

        // a functionally mutated copy: flip the first non-spare NAND2
        let mut eco = EcoSession::new(golden.clone());
        let (victim, _) = eco
            .netlist()
            .instances()
            .find(|(_, i)| i.function() == CellFunction::Nand2 && !i.spare)
            .expect("nand2 to mutate");
        eco.change_function(victim, CellFunction::Nor2).expect("mutate");
        let (mutated, _) = eco.finish();

        for (label, b) in [("identical", golden.clone()), ("mutated", mutated)] {
            let (_, _, want) = pins
                .iter()
                .find(|(s, l, _)| *s == seed && *l == label)
                .expect("a pinned report");
            for t in THREADS {
                let got = check_equivalence(
                    &golden,
                    &b,
                    &EquivOptions {
                        parallelism: Parallelism::Threads(t),
                        ..EquivOptions::default()
                    },
                )
                .expect("equiv");
                assert_eq!(&got, want, "{label} seed {seed} t{t}");
            }
        }
    }
}

#[test]
fn per_cone_supports_agree_between_engines() {
    // the compiled model's support walks and values against the oracle
    for seed in SEEDS {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 500, seed, ..Default::default() },
        )
        .expect("generate");
        let model = CombModel::new(&nl).expect("model");
        let sources: Vec<NetId> = model.sources.values().copied().collect();
        for &sink in model.sinks.values() {
            assert_eq!(
                model.cone_support(sink),
                oracle::cone_support(&nl, &sources, sink),
                "seed {seed} sink net {sink:?}"
            );
        }
        let mut rng = SplitMix64::new(seed);
        let assign: Vec<u64> = (0..sources.len()).map(|_| rng.next_u64()).collect();
        let assigned: Vec<(NetId, u64)> =
            sources.iter().copied().zip(assign.iter().copied()).collect();
        assert_eq!(
            model.eval(&assign),
            oracle::comb_values(&nl, &assigned, None),
            "seed {seed}"
        );
    }
}

#[test]
fn journal_patched_snapshot_matches_fresh_compile_across_eco_history() {
    let design = build_dsc(0.015).expect("dsc");
    let mut snapshot = design.netlist.compile().expect("compile");
    let mut ctx = ReplayContext::new(&design.netlist, 0x1CA, 4);
    let mut current = design.netlist.clone();
    let mut patched_changes = 0usize;
    for request in paper_change_history() {
        let outcome = apply_change(current, &request, &mut ctx).expect("change applies");
        current = outcome.netlist;
        if outcome.delta.is_empty() {
            continue;
        }
        let stats = snapshot
            .patch(&current, &outcome.delta)
            .expect("journal patch stays on the fast path");
        patched_changes += 1;
        let fresh = current.compile().expect("compile");
        assert_eq!(
            snapshot, fresh,
            "change {patched_changes}: patched snapshot diverged from fresh compile \
             ({stats:?})"
        );
        assert_mirrors_graph(&current, &snapshot, &format!("change {patched_changes}"));
    }
    assert!(patched_changes > 10, "history exercised only {patched_changes} patches");
}
