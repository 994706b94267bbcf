//! Round-trip audit of the checkpoint serialization format.
//!
//! The durability story of the serve farm rests on one property: for
//! every checkpoint the flow can produce, `to_bytes` → `from_bytes`
//! is the identity, and any damaged stream is *refused*, never
//! misread. These tests drive real flows to every stage frontier and
//! check that property there, plus the edge cases the format has to
//! get right: an empty trace, stages with zero attempts, the
//! `resumed` flag, non-ASCII design names, arbitrary GDSII byte
//! payloads, truncation at every byte boundary, and header damage.
//! Seeded interior byte flips in checkpoints and request files must
//! decode to a value or a typed error, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use camsoc::dft::atpg::AtpgConfig;
use camsoc::flow::flow::{FlowCheckpoint, FlowOptions, FlowSupervisor};
use camsoc::flow::StageId;
use camsoc::layout::place::{PlacementConfig, PlacementMode};
use camsoc::layout::ImplementOptions;
use camsoc::netlist::codec::{Codec, CodecError, Decoder};
use camsoc::netlist::generate::{self, IpBlockParams, SplitMix64};
use camsoc::netlist::graph::Netlist;
use camsoc::serve::{CheckpointStore, DesignSpec, JobId, JobRequest, Priority};

fn quick_options() -> FlowOptions {
    FlowOptions {
        atpg: AtpgConfig { fault_sample: Some(400), max_random_blocks: 16, ..AtpgConfig::default() },
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

fn block(name: &str, gates: usize, seed: u64) -> Netlist {
    generate::ip_block("blk", &IpBlockParams { target_gates: gates, seed, ..Default::default() })
        .map(|mut nl| {
            // exercise non-ASCII names through the codec's UTF-8 path
            nl.name = name.to_string();
            nl
        })
        .unwrap()
}

/// encode → decode → re-encode must reproduce the exact byte stream
/// (a stronger property than value equality: it also holds for NaN
/// payloads and anything PartialEq can't see).
fn round_trip(ckpt: &FlowCheckpoint) -> FlowCheckpoint {
    let bytes = ckpt.to_bytes();
    let back = FlowCheckpoint::from_bytes(&bytes).expect("decode");
    assert_eq!(back.to_bytes(), bytes, "re-encode diverged from the original stream");
    back
}

#[test]
fn fresh_checkpoint_with_empty_trace_round_trips() {
    let ckpt = FlowCheckpoint::new(block("fresh", 120, 5));
    assert!(ckpt.trace().attempts.is_empty());
    assert!(!ckpt.trace().resumed);
    let back = round_trip(&ckpt);
    assert_eq!(back, ckpt);
    assert!(back.completed_stages().is_empty());
}

#[test]
fn checkpoint_at_every_stage_frontier_round_trips() {
    // Unicode name: two-byte, three-byte and four-byte UTF-8 sequences.
    let mut ckpt = FlowCheckpoint::new(block("блок-模块-🙂", 260, 9));
    let supervisor = FlowSupervisor::new(quick_options());
    let mut frontiers = 0;
    while let Some(stage) = supervisor.advance(&mut ckpt).expect("advance") {
        frontiers += 1;
        let back = round_trip(&ckpt);
        assert_eq!(back, ckpt, "value mismatch after {stage:?}");
        assert_eq!(back.completed_stages(), ckpt.completed_stages());
        // stages past the frontier have zero attempts in the trace
        let attempted: Vec<StageId> =
            back.trace().attempts.iter().map(|a| a.stage).collect();
        for future in StageId::ALL.into_iter().filter(|&s| !back.is_complete(s)) {
            assert!(!attempted.contains(&future), "{future:?} attempted before its turn");
        }
    }
    assert_eq!(frontiers, StageId::ALL.len(), "flow did not reach all stage frontiers");
}

#[test]
fn resumed_flag_survives_the_codec() {
    let mut ckpt = FlowCheckpoint::new(block("resumed", 120, 7));
    let supervisor = FlowSupervisor::new(quick_options());
    supervisor.advance(&mut ckpt).expect("advance").expect("one stage");
    ckpt.mark_resumed();
    let back = round_trip(&ckpt);
    assert!(back.trace().resumed);
    assert_eq!(back, ckpt);
}

#[test]
fn gds_payload_survives_bit_exactly_and_flow_finishes_identically() {
    // Drive one flow to completion through checkpoints serialized at
    // every frontier; the final result (GDSII included) must equal an
    // uninterrupted run's bit for bit.
    let options = quick_options();
    let supervisor = FlowSupervisor::new(options.clone());
    let mut ckpt = FlowCheckpoint::new(block("gds", 260, 11));
    while supervisor.advance(&mut ckpt).expect("advance").is_some() {
        ckpt = FlowCheckpoint::from_bytes(&ckpt.to_bytes()).expect("decode");
    }
    let via_codec = ckpt.finish().expect("finish");
    let reference =
        FlowSupervisor::new(options).run(block("gds", 260, 11)).expect("reference");
    assert!(!via_codec.gds.is_empty());
    assert_eq!(via_codec.gds, reference.gds, "GDSII changed through the codec");
    assert_eq!(via_codec.netlist, reference.netlist);
}

#[test]
fn every_truncation_is_refused() {
    // A mid-flow checkpoint (netlist + trace + partial products) over
    // a small design keeps this O(n^2) scan affordable.
    let mut ckpt = FlowCheckpoint::new(block("trunc", 60, 3));
    let supervisor = FlowSupervisor::new(quick_options());
    supervisor.advance(&mut ckpt).expect("advance");
    supervisor.advance(&mut ckpt).expect("advance");
    let bytes = ckpt.to_bytes();
    for len in 0..bytes.len() {
        assert!(
            FlowCheckpoint::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes decoded successfully",
            bytes.len()
        );
    }
}

#[test]
fn header_damage_is_refused() {
    let ckpt = FlowCheckpoint::new(block("hdr", 60, 4));
    let good = ckpt.to_bytes();

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    assert!(FlowCheckpoint::from_bytes(&bad_magic).is_err(), "bad magic accepted");

    let mut bad_version = good.clone();
    bad_version[4] = bad_version[4].wrapping_add(1);
    assert!(FlowCheckpoint::from_bytes(&bad_version).is_err(), "unknown version accepted");

    let mut trailing = good.clone();
    trailing.push(0);
    assert!(FlowCheckpoint::from_bytes(&trailing).is_err(), "trailing bytes accepted");

    assert!(FlowCheckpoint::from_bytes(&good).is_ok());
}

#[test]
fn seeded_designs_round_trip_at_random_frontiers() {
    // Property-style sweep: different designs, different amounts of
    // completed flow, one decode-identity check each.
    for (seed, stages_to_run) in [(1u64, 1usize), (2, 3), (5, 5), (8, 7), (13, 9)] {
        let mut ckpt = FlowCheckpoint::new(block(&format!("prop{seed}"), 140, seed));
        let supervisor = FlowSupervisor::new(quick_options());
        for _ in 0..stages_to_run {
            supervisor.advance(&mut ckpt).expect("advance");
        }
        let back = round_trip(&ckpt);
        assert_eq!(back, ckpt, "seed {seed} after {stages_to_run} stages");
    }
}

/// Both file kinds start with a 4-byte magic and a 4-byte version.
const HEADER: usize = 8;

/// `bytes` with 1–3 bytes past the header XORed with nonzero values,
/// and a description of the flips.
fn flip_interior(bytes: &[u8], rng: &mut SplitMix64) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let mut flips = Vec::new();
    for _ in 0..1 + rng.next_u64() % 3 {
        let at = HEADER + (rng.next_u64() % (out.len() - HEADER) as u64) as usize;
        let mask = 1 + (rng.next_u64() % 255) as u8;
        out[at] ^= mask;
        flips.push(format!("[{at}] ^= {mask:#04x}"));
    }
    (out, flips.join(", "))
}

/// Run `decode`, turning a panic into a test failure that names the
/// input `what`; true if it decoded to a value.
fn decodes_without_panic<T, E>(what: &str, decode: impl FnOnce() -> Result<T, E>) -> bool {
    match catch_unwind(AssertUnwindSafe(decode)) {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("decoding {what} panicked"),
    }
}

#[test]
fn interior_byte_flips_in_checkpoints_decode_or_fail_typed() {
    // the fresh checkpoint and every stage frontier of a small flow
    let mut ckpt = FlowCheckpoint::new(block("flip", 80, 21));
    let supervisor = FlowSupervisor::new(quick_options());
    let mut frontiers = vec![ckpt.to_bytes()];
    while supervisor.advance(&mut ckpt).expect("advance").is_some() {
        frontiers.push(ckpt.to_bytes());
    }
    assert_eq!(frontiers.len(), StageId::ALL.len() + 1);
    let mut rng = SplitMix64::new(0xC4B7);
    let mut decoded = 0usize;
    for (frontier, bytes) in frontiers.iter().enumerate() {
        for _ in 0..250 {
            let (bad, flips) = flip_interior(bytes, &mut rng);
            let what = format!("checkpoint frontier {frontier} with {flips}");
            decoded += usize::from(decodes_without_panic(&what, || FlowCheckpoint::from_bytes(&bad)));
        }
    }
    // most flips land in a length, tag or audited field and are refused
    assert!(decoded < frontiers.len() * 250, "every flipped checkpoint decoded");
}

#[test]
fn interior_byte_flips_in_request_files_decode_or_fail_typed() {
    let dir = std::env::temp_dir().join(format!("camsoc-creq-flips-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store");
    let request = JobRequest::new(
        DesignSpec::IpBlock { name: "flip".into(), target_gates: 300, seed: 9 },
        quick_options(),
    )
    .with_deadline(Duration::from_millis(1500))
    .with_priority(Priority::Critical);
    let job = JobId(1);
    store.save_request(job, &request).expect("save");
    let good = std::fs::read(store.request_path(job)).expect("read");
    std::fs::remove_dir_all(&dir).expect("clean up");
    // the payload decode `CheckpointStore::load_request` runs once the
    // header checks pass, in memory: a file write per input would make
    // the test I/O-bound
    let decode = |bytes: &[u8]| -> Result<JobRequest, CodecError> {
        let mut d = Decoder::new(&bytes[HEADER..]);
        let request = JobRequest::decode(&mut d)?;
        d.expect_end()?;
        Ok(request)
    };
    assert_eq!(decode(&good).expect("decode"), request);
    let mut rng = SplitMix64::new(0xC8E9);
    for _ in 0..2_000 {
        let (bad, flips) = flip_interior(&good, &mut rng);
        decodes_without_panic(&format!("request with {flips}"), || decode(&bad));
    }
}
