//! Property tests on cross-crate invariants, run over seeded cases.
//!
//! Each property draws its parameters from a `SplitMix64` stream seeded
//! by the property's name and the case number, so every case is
//! reproducible on its own. A failing case panics with its number and
//! the parameters it drew; there is no shrinking.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use camsoc::dft::scan::{insert_scan, ScanConfig};
use camsoc::jpeg::jfif::{decode, encode, EncodeParams, Sampling};
use camsoc::jpeg::psnr::{psnr, test_image};
use camsoc::layout::floorplan::Floorplan;
use camsoc::layout::gdsii;
use camsoc::layout::place::{place, PlacementConfig, PlacementMode};
use camsoc::mbist::faults::MemoryFault;
use camsoc::mbist::march::{run_march, MarchAlgorithm};
use camsoc::mbist::memory::Sram;
use camsoc::netlist::eco::EcoSession;
use camsoc::netlist::equiv::{check_equivalence, EquivOptions};
use camsoc::netlist::generate::{ip_block, IpBlockParams, SplitMix64};
use camsoc::netlist::tech::Technology;
use camsoc::netlist::verilog;
use camsoc::pinassign::assign::{inversions, min_layers};
use camsoc::sta::{Constraints, Sta};

/// One case's parameter source: draws are recorded so a failure can
/// print them.
struct Case {
    rng: SplitMix64,
    drawn: Vec<String>,
}

impl Case {
    /// A value in `lo..hi`, recorded under `name`.
    fn draw(&mut self, name: &str, lo: u64, hi: u64) -> u64 {
        let v = lo + self.rng.next_u64() % (hi - lo);
        self.drawn.push(format!("{name} = {v}"));
        v
    }
}

/// Run `check` on `cases` cases of the property `name`.
fn property(name: &str, cases: u64, mut check: impl FnMut(&mut Case)) {
    let stream = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for n in 0..cases {
        let mut case = Case { rng: SplitMix64::new(stream ^ n), drawn: Vec::new() };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&mut case))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            panic!("{name}: case {n} ({}) failed: {why}", case.drawn.join(", "));
        }
    }
}

fn block(gates: u64, seed: u64) -> camsoc::netlist::graph::Netlist {
    ip_block("blk", &IpBlockParams { target_gates: gates as usize, seed, ..Default::default() })
        .expect("generate")
}

/// Function-preserving ECOs (buffering + resizing) stay formally
/// equivalent on arbitrary generated blocks.
#[test]
fn timing_ecos_preserve_equivalence() {
    property("timing_ecos_preserve_equivalence", 16, |c| {
        let seed = c.draw("seed", 0, 500);
        let gates = c.draw("gates", 120, 500) as usize;
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: gates, seed, spare_cells: 2, ..Default::default() },
        )
        .expect("generate");
        let mut eco = EcoSession::new(nl.clone());
        // buffer the first few instance-driven nets and upsize drivers
        let targets: Vec<_> = eco
            .netlist()
            .instances()
            .filter(|(_, i)| !i.spare && !i.function().is_tie())
            .take(4)
            .map(|(id, i)| (id, i.output))
            .collect();
        for (id, out) in targets {
            let _ = eco.insert_buffer(out, camsoc::netlist::Drive::X2);
            let _ = eco.upsize(id);
        }
        assert!(eco.function_preserving());
        let (after, _) = eco.finish();
        let options = EquivOptions { random_rounds: 6, ..EquivOptions::default() };
        let report = check_equivalence(&nl, &after, &options).expect("equiv");
        assert!(report.passed(), "verdict {:?}", report.verdict);
    });
}

/// Structural Verilog round-trips any generated block with exact
/// equivalence.
#[test]
fn verilog_round_trip_equivalence() {
    property("verilog_round_trip_equivalence", 16, |c| {
        let nl = block(150, c.draw("seed", 0, 500));
        let back = verilog::parse(&verilog::write(&nl)).expect("parse");
        let options = EquivOptions { random_rounds: 4, ..EquivOptions::default() };
        let report = check_equivalence(&nl, &back, &options).expect("equiv");
        assert!(report.passed(), "verdict {:?}", report.verdict);
    });
}

/// Scan insertion preserves the flop population and never breaks
/// structural validity, for any chain count.
#[test]
fn scan_preserves_flops() {
    property("scan_preserves_flops", 16, |c| {
        let nl = block(200, c.draw("seed", 0, 500));
        let chains = c.draw("chains", 1, 6) as usize;
        let flops_before = nl.flops().count();
        let (scanned, report) =
            insert_scan(nl, &ScanConfig { num_chains: chains, ..ScanConfig::default() })
                .expect("scan");
        assert_eq!(scanned.flops().count(), flops_before);
        assert_eq!(report.scan_flops, flops_before);
        assert_eq!(report.chains.iter().map(Vec::len).sum::<usize>(), flops_before);
        scanned.validate().expect("valid");
        scanned.combinational_topo_order().expect("acyclic");
    });
}

/// March C- detects every unlinked static fault class except
/// stuck-open, on arbitrary geometries.
#[test]
fn march_c_minus_detects_static_faults() {
    property("march_c_minus_detects_static_faults", 16, |c| {
        let words = 1usize << c.draw("words_log", 4, 9);
        let bits = c.draw("bits", 2, 17) as usize;
        let mut rng = SplitMix64::new(c.draw("seed", 0, 1000));
        for class in ["SAF", "TF", "CFin", "CFid", "AF"] {
            let mut mem = Sram::new(words, bits);
            mem.inject(MemoryFault::random_of_class(class, words, bits, &mut rng));
            assert!(
                run_march(&MarchAlgorithm::march_c_minus(), &mut mem).failed(),
                "{class} escaped on {words}x{bits}"
            );
        }
    });
}

/// JPEG round trip never fails and keeps PSNR above a floor that rises
/// with quality.
#[test]
fn jpeg_round_trip_quality_floor() {
    property("jpeg_round_trip_quality_floor", 200, |c| {
        let seed = c.draw("seed", 0, 200);
        let quality = c.draw("quality", 30, 96) as u8;
        let w = c.draw("w", 17, 49) as usize;
        let h = c.draw("h", 9, 41) as usize;
        let img = test_image(w, h, seed);
        let bytes =
            encode(&img, &EncodeParams { quality, sampling: Sampling::S420 }).expect("encode");
        let back = decode(&bytes).expect("decode");
        assert_eq!((back.width, back.height), (w, h));
        let p = psnr(&img, &back);
        let floor = 18.0 + f64::from(quality) / 10.0;
        assert!(p > floor, "psnr {p} below floor {floor}");
    });
}

/// The decoder is total: a flipped byte anywhere in a valid stream
/// returns an error or an image, never a panic.
#[test]
fn jpeg_decoder_never_panics_on_corruption() {
    let streams: Vec<Vec<u8>> = (0..50)
        .map(|seed| encode(&test_image(24, 16, seed), &EncodeParams::default()).expect("encode"))
        .collect();
    property("jpeg_decoder_never_panics_on_corruption", 2_000, |c| {
        let mut bytes = streams[c.draw("seed", 0, 50) as usize].clone();
        let idx = c.draw("flip_at", 0, 2_000) as usize % bytes.len();
        bytes[idx] ^= c.draw("flip_val", 0, 255) as u8 | 1;
        let _ = decode(&bytes); // Ok or Err are both fine; panics are not
    });
}

/// Layer estimation invariants: a sorted permutation needs one layer;
/// inversions and layers are consistent bounds.
#[test]
fn layer_estimation_invariants() {
    property("layer_estimation_invariants", 2_000, |c| {
        let len = c.draw("len", 1, 64);
        let perm: Vec<usize> = (0..len).map(|_| c.draw("v", 0, 64) as usize).collect();
        // dedupe into a permutation of its sorted ranks
        let mut uniq = perm.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let rank: Vec<usize> = perm.iter().filter_map(|v| uniq.binary_search(v).ok()).collect();
        let inv = inversions(&rank);
        let layers = min_layers(&rank);
        assert!(layers >= 1);
        assert!(layers <= rank.len());
        if inv == 0 {
            assert!(layers <= 1 || rank.windows(2).all(|w| w[0] <= w[1]));
        }
        // a decreasing run of length L forces >= L layers
        let (mut run, mut best) = (1usize, 1usize);
        for w in rank.windows(2) {
            run = if w[1] < w[0] { run + 1 } else { 1 };
            best = best.max(run);
        }
        assert!(layers >= best, "layers {layers} < decreasing run {best}");
    });
}

/// Setup slack is monotone in the clock period: a slower clock never
/// makes any design harder to close.
#[test]
fn slack_monotone_in_period() {
    property("slack_monotone_in_period", 10, |c| {
        let seed = c.draw("seed", 0, 300);
        let nl = block(c.draw("gates", 100, 400), seed);
        let tech = Technology::default();
        let mut last = f64::NEG_INFINITY;
        for period in [4.0, 7.5, 12.0, 20.0] {
            let r = Sta::new(&nl, &tech, Constraints::single_clock("clk", period))
                .analyze()
                .expect("sta");
            assert!(
                r.setup.wns_ns >= last - 1e-9,
                "slack regressed: {} at period {period}",
                r.setup.wns_ns
            );
            last = r.setup.wns_ns;
        }
    });
}

/// Uniformly scaling all wire delays up never improves setup slack.
#[test]
fn slack_monotone_in_wire_delay() {
    property("slack_monotone_in_wire_delay", 10, |c| {
        let nl = block(200, c.draw("seed", 0, 300));
        let tech = Technology::default();
        let constraints = Constraints::single_clock("clk", 7.5);
        let wns = |delay_ns: f64| {
            Sta::new(&nl, &tech, constraints.clone())
                .with_wire_delays(vec![delay_ns; nl.num_nets()])
                .analyze()
                .expect("sta")
                .setup
                .wns_ns
        };
        let (light, heavy) = (wns(0.005), wns(0.08));
        assert!(heavy <= light + 1e-9, "heavy wires {heavy} beat light wires {light}");
    });
}

/// Placement always produces a legal result (cells in core, unique
/// slots) regardless of seed and iteration count.
#[test]
fn placement_is_always_legal() {
    property("placement_is_always_legal", 10, |c| {
        let seed = c.draw("seed", 0, 300);
        let iterations = c.draw("iterations", 0, 4_000) as usize;
        let nl = block(150, seed);
        let tech = Technology::default();
        let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
        let config = PlacementConfig {
            mode: PlacementMode::Wirelength,
            iterations,
            seed,
            ..PlacementConfig::default()
        };
        let p = place(&nl, &tech, &fp, &Constraints::single_clock("clk", 7.5), &config);
        let mut seen = HashSet::new();
        for i in 0..nl.num_instances() {
            assert!(p.x[i] >= 0.0 && p.x[i] <= fp.core.w, "instance {i} x {}", p.x[i]);
            assert!(p.y[i] >= 0.0 && p.y[i] <= fp.core.h, "instance {i} y {}", p.y[i]);
            assert!(seen.insert((p.row[i], (p.x[i] * 1000.0) as i64)), "instance {i} overlaps");
        }
    });
}

/// The GDSII writer always emits a stream the verifier accepts, with one
/// boundary per cell plus the outline.
#[test]
fn gdsii_always_well_formed() {
    property("gdsii_always_well_formed", 10, |c| {
        let nl = block(120, c.draw("seed", 0, 300));
        let tech = Technology::default();
        let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
        let config = PlacementConfig { iterations: 200, ..PlacementConfig::default() };
        let p = place(&nl, &tech, &fp, &Constraints::single_clock("clk", 7.5), &config);
        let counts = gdsii::verify(&gdsii::write(&nl, &fp, &p)).expect("well-formed");
        assert_eq!(counts[&0x0800], nl.num_instances() + 1);
    });
}
