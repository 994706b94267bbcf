//! Integration: the cone-cached fault-simulation engine must be
//! invisible in the results. For every fault, seed and thread count it
//! must return exactly the detection lanes of the naive oracle in
//! `camsoc_bench::oracle` (a full re-simulation of the graph per fault),
//! and ATPG runs must reproduce, at every thread count, the results
//! recorded while an uncached reference engine still ran beside it.

use camsoc::dft::atpg::{Atpg, AtpgConfig, AtpgResult};
use camsoc::dft::faults::FaultList;
use camsoc::dft::fsim::{CombCircuit, FsimCounters, FsimScratch};
use camsoc::dft::scan::{insert_scan, ScanConfig};
use camsoc::flow::build_dsc;
use camsoc::netlist::eco::EcoSession;
use camsoc::netlist::generate::{fsm, ripple_adder, SplitMix64};
use camsoc::netlist::Drive;
use camsoc::netlist::graph::{NetId, Netlist};
use camsoc::par::Parallelism;
use camsoc_bench::oracle;

const PAR: [Parallelism; 3] =
    [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)];

fn scanned_dsc() -> Netlist {
    let design = build_dsc(0.02).expect("dsc");
    insert_scan(design.netlist, &ScanConfig::default()).expect("scan").0
}

/// The oracle's detection lanes for every fault in `faults`, with the
/// random block `assign` (in `cc.sources` order) applied.
fn oracle_lanes(nl: &Netlist, cc: &CombCircuit<'_>, assign: &[u64], faults: &FaultList) -> Vec<u64> {
    let sources: Vec<(NetId, u64)> = cc.sources.iter().copied().zip(assign.iter().copied()).collect();
    let good = oracle::comb_values(nl, &sources, None);
    faults.faults.iter().map(|&f| oracle::fault_lanes(nl, &sources, &good, f)).collect()
}

/// `nl` with an X2 buffer on every third combinational output. An ECO
/// buffer gets the highest instance id yet drives older gates, so
/// instance-id order stops being a topological order.
fn buffered(nl: Netlist) -> Netlist {
    let outputs: Vec<_> = nl
        .instances()
        .filter(|(_, i)| !i.function().is_sequential())
        .step_by(3)
        .map(|(_, i)| i.output)
        .collect();
    let mut eco = EcoSession::new(nl);
    for net in outputs {
        eco.insert_buffer(net, Drive::X2).expect("buffer");
    }
    eco.finish().0
}

#[test]
fn cached_lanes_match_reference_on_every_fault() {
    // one scratch reused across every fault and block of a circuit
    let adder = ripple_adder(8).expect("adder");
    for nl in [adder.clone(), fsm(6, 3, 3, 5), buffered(adder)] {
        let cc = CombCircuit::new(&nl).expect("comb");
        let fl = FaultList::generate(&nl);
        let mut scratch = FsimScratch::for_circuit(&cc);
        let mut rng = SplitMix64::new(7);
        for _ in 0..3 {
            let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
            let good = cc.good_sim(&assign);
            let reference = oracle_lanes(&nl, &cc, &assign, &fl);
            for (&f, &want) in fl.faults.iter().zip(&reference) {
                let got = cc.detect_lanes(f, &good, &mut scratch);
                assert_eq!(got, want, "{}", f.describe(&nl));
            }
        }
    }
}

#[test]
fn detect_all_lanes_match_oracle_on_the_dsc_block() {
    let nl = scanned_dsc();
    let cc = CombCircuit::new(&nl).expect("comb");
    let faults = FaultList::generate(&nl).sample(400);
    for seed in [1u64, 0xD5C] {
        let mut rng = SplitMix64::new(seed);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);
        let reference = oracle_lanes(&nl, &cc, &assign, &faults);
        for par in PAR {
            let lanes = cc.detect_all(&faults.faults, &good, par, &FsimCounters::default());
            assert_eq!(lanes, reference, "seed {seed} {par:?}");
        }
    }
}

/// FNV-1a over the pattern bits, one separator byte after each pattern.
fn patterns_digest(result: &AtpgResult) -> u64 {
    result.patterns.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        let h = p.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
        (h ^ 0xff).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One pinned ATPG run: the result buckets, the pattern count and
/// digest, and the fault simulator's work.
#[derive(Debug, PartialEq)]
struct AtpgPin {
    buckets: [usize; 7],
    patterns: (usize, u64),
    faults_simulated: usize,
    gate_evals: usize,
}

fn pin_of(r: &AtpgResult) -> AtpgPin {
    AtpgPin {
        buckets: [
            r.total_faults,
            r.detected,
            r.untestable,
            r.aborted,
            r.not_attempted,
            r.random_detected,
            r.podem_detected,
        ],
        patterns: (r.patterns.len(), patterns_digest(r)),
        faults_simulated: r.fsim_stats.faults_simulated,
        gate_evals: r.fsim_stats.gate_evals,
    }
}

#[test]
fn atpg_results_are_pinned_across_threads() {
    // recorded while the uncached reference engine still ran beside the
    // cached one and produced the same results
    let pin = |buckets, patterns, faults_simulated, gate_evals| AtpgPin {
        buckets,
        patterns,
        faults_simulated,
        gate_evals,
    };
    let dsc = [250, 229, 17, 4, 0, 229, 0];
    let adder = [250, 250, 0, 0, 0, 250, 0];
    let designs: [(&str, Netlist, [AtpgPin; 2]); 2] = [
        (
            "dsc",
            scanned_dsc(),
            [
                pin(dsc, (20, 0x35fc_f285_5315_837b), 359, 594),
                pin(dsc, (22, 0x00f8_e0f7_3f0c_ca90), 359, 605),
            ],
        ),
        (
            "ripple_adder",
            insert_scan(ripple_adder(16).expect("adder"), &ScanConfig::default())
                .expect("scan")
                .0,
            [
                pin(adder, (10, 0xa293_5a0f_3082_2650), 250, 386),
                pin(adder, (12, 0x3408_81c5_66e5_af81), 250, 386),
            ],
        ),
    ];
    for (name, nl, pins) in &designs {
        for (seed, want) in [3u64, 11].into_iter().zip(pins) {
            for par in PAR {
                let cfg = AtpgConfig {
                    seed,
                    fault_sample: Some(250),
                    max_random_blocks: 6,
                    parallelism: par,
                    ..AtpgConfig::default()
                };
                let r = Atpg::new(nl, cfg).expect("atpg").run();
                let ctx = format!("{name} seed {seed} {par:?}");
                assert_eq!(&pin_of(&r), want, "{ctx}");
                assert!(r.fsim_stats.early_exits > 0, "{ctx}: no early exits recorded");
            }
        }
    }
}
