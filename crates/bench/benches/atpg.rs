//! Built-in timer bench for E5: fault simulation and ATPG cost vs
//! design size. Run with `cargo bench --bench atpg`.

use camsoc_bench::timer;
use camsoc_dft::atpg::{Atpg, AtpgConfig};
use camsoc_dft::faults::FaultList;
use camsoc_dft::fsim::{CombCircuit, FsimScratch};
use camsoc_dft::scan::{insert_scan, ScanConfig};
use camsoc_netlist::generate::{ip_block, IpBlockParams, SplitMix64};

fn scanned_block(gates: usize) -> camsoc_netlist::graph::Netlist {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: gates, seed: 9, ..Default::default() },
    )
    .expect("generate");
    insert_scan(nl, &ScanConfig::default()).expect("scan").0
}

fn main() {
    println!("== fault_sim_block (200 sampled faults, 64 patterns) ==");
    for gates in [500usize, 2_000] {
        let nl = scanned_block(gates);
        let cc = CombCircuit::new(&nl).expect("comb");
        let faults = FaultList::generate(&nl).sample(200);
        let mut rng = SplitMix64::new(1);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);
        let mut scratch = FsimScratch::for_circuit(&cc);
        timer::run(&format!("fault_sim_block/{gates}"), 1, 5, || {
            faults
                .faults
                .iter()
                .filter(|&&f| cc.detect_lanes(f, &good, &mut scratch) != 0)
                .count()
        });
    }

    println!("== atpg end-to-end ==");
    let nl = scanned_block(800);
    timer::run("atpg_800_gates_sampled", 1, 5, || {
        Atpg::new(
            &nl,
            AtpgConfig {
                fault_sample: Some(150),
                max_random_blocks: 8,
                ..AtpgConfig::default()
            },
        )
        .expect("atpg")
        .run()
    });
}
