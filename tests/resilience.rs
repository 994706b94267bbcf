//! Supervisor resilience: the deterministic fault-injection matrix,
//! checkpoint/resume, and bit-identity of supervised runs with the
//! straight-line flow they replaced.
//!
//! Runs on small generated IP blocks (a few hundred gates) so the
//! whole matrix — every stage × every fault kind — stays fast enough
//! for the tier-1 suite.

use camsoc::flow::flow::{
    run_flow, FlowCheckpoint, FlowError, FlowOptions, FlowResult, FlowSupervisor,
};
use camsoc::flow::resilience::{FaultInjector, FaultKind, QualityGates, RetryPolicy, StageId};
use camsoc::layout::LayoutError;
use camsoc::netlist::generate::{self, IpBlockParams};
use camsoc::netlist::graph::Netlist;
use camsoc::par::Parallelism;

mod common;
use common::flow_digest;

fn small_block(seed: u64) -> Netlist {
    generate::ip_block(
        "blk",
        &IpBlockParams { target_gates: 300, seed, ..Default::default() },
    )
    .unwrap()
}

/// Every externally observable figure of a flow run, with timing
/// captured bit-exactly (`f64::to_bits`).
fn fingerprint(r: &FlowResult) -> (usize, usize, usize, u64, u64, u64, u64, String, usize, Vec<u8>) {
    (
        r.scan.scan_flops,
        r.atpg.total_faults,
        r.atpg.detected,
        r.signoff_timing.setup.wns_ns.to_bits(),
        r.signoff_timing.setup.tns_ns.to_bits(),
        r.signoff_timing.hold.wns_ns.to_bits(),
        r.layout.routing.total_overflow,
        format!("{:?}", r.equivalence.verdict),
        r.timing_ecos,
        r.gds.clone(),
    )
}

/// 300-gate `ip_block` flows, `(seed, parallelism, flow_digest)`, each
/// with 34 timing ECOs: recorded while a straight-line, unsupervised
/// flow driver still ran beside the supervisor, which produced the same
/// digests.
const PINNED_UNSUPERVISED: [(u64, Parallelism, u64); 4] = [
    (3, Parallelism::Serial, 0x7de6_88d8_2685_5a52),
    (3, Parallelism::Threads(2), 0xc673_bfa9_7da9_8242),
    (11, Parallelism::Serial, 0x1957_1a23_03f3_aaf0),
    (11, Parallelism::Threads(2), 0xf755_a92b_8af7_a184),
];

#[test]
fn supervised_flow_is_bit_identical_to_unsupervised() {
    for (seed, par, pinned) in PINNED_UNSUPERVISED {
        let options = FlowOptions { parallelism: par, ..FlowOptions::default() };
        let supervised = run_flow(small_block(seed), &options).unwrap();
        assert_eq!(supervised.timing_ecos, 34, "seed {seed}, {par:?}");
        assert_eq!(
            flow_digest(&supervised),
            pinned,
            "supervision changed the result (seed {seed}, {par:?})"
        );
        assert_eq!(supervised.trace.retries(), 0);
        assert!(supervised.trace.attempts.iter().all(|a| a.outcome.is_success()));
    }
}

#[test]
fn fault_injection_matrix_recovers_bit_identically() {
    let options = FlowOptions::default();
    let baseline = run_flow(small_block(7), &options).unwrap();
    let base_print = fingerprint(&baseline);
    for stage in StageId::ALL {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let injector = FaultInjector::new(0xfa01).with_fault(stage, 0, kind);
            assert!(injector.is_armed());
            let result = FlowSupervisor::new(options.clone())
                .with_injector(injector)
                .run(small_block(7))
                .unwrap_or_else(|e| {
                    panic!("{kind:?} on {stage} did not recover: {e}")
                });
            // a transient fault retries the same recipe, so recovery is
            // bit-identical to the unfaulted run
            assert_eq!(
                fingerprint(&result),
                base_print,
                "{kind:?} on {stage} changed the recovered result"
            );
            let attempts = result.trace.attempts_for(stage);
            assert_eq!(attempts.len(), 2, "{kind:?} on {stage}");
            assert!(!attempts[0].outcome.is_success());
            assert!(attempts[1].outcome.is_success());
            // no escalation for transient faults: same effort both times
            assert_eq!(attempts[0].effort, attempts[1].effort);
            assert_eq!(result.trace.recovered(), vec![stage]);
            assert_eq!(result.trace.retries(), 1);
        }
    }
}

#[test]
fn persistent_degradation_exhausts_into_typed_error() {
    let policy = RetryPolicy { max_attempts: 2, max_effort: 3 };
    for stage in StageId::ALL {
        let injector =
            FaultInjector::new(0xdead).with_persistent_fault(stage, FaultKind::Degrade, 8);
        let err = FlowSupervisor::new(FlowOptions::default())
            .with_policy(policy)
            .with_gates(QualityGates::strict())
            .with_injector(injector)
            .run(small_block(5))
            .expect_err("persistent degradation must not succeed");
        // `run` wraps every failure with its salvaged checkpoint; the
        // stages before the broken one are all in it
        let (salvaged, err) = err.into_parts();
        let salvaged = salvaged.expect("run failure carries its checkpoint");
        assert_eq!(
            salvaged.completed_stages(),
            StageId::ALL[..stage.index()].to_vec(),
            "{stage}: checkpoint must hold exactly the stages before the failure"
        );
        let FlowError::Exhausted { stage: failed, attempts, last, trace } = err else {
            panic!("expected Exhausted on {stage}, got another error");
        };
        assert_eq!(failed, stage);
        assert_eq!(attempts, policy.max_attempts);
        assert_eq!(trace.attempts_for(stage).len(), policy.max_attempts);
        assert!(trace.attempts_for(stage).iter().all(|a| !a.outcome.is_success()));
        match stage {
            // no gated output to corrupt: the injector degrades these
            // into hard injected errors instead
            StageId::Validate | StageId::PreSta => {
                assert!(matches!(*last, FlowError::Injected { .. }), "{stage}: {last}");
            }
            // the routing gate surfaces as layout data, not free text
            StageId::Layout => {
                let FlowError::Layout(LayoutError::Routing { total_overflow, unrouted }) =
                    *last
                else {
                    panic!("{stage}: expected LayoutError::Routing, got {last}");
                };
                assert!(total_overflow >= 1_000);
                assert!(unrouted >= 17);
            }
            _ => {
                assert!(
                    matches!(*last, FlowError::Gate { stage: s, .. } if s == stage),
                    "{stage}: {last}"
                );
            }
        }
    }
}

#[test]
fn gate_failures_escalate_effort_deterministically() {
    // degrade equivalence twice: attempts run at effort 0, 1, 2 and the
    // third (clean) attempt succeeds with an escalated recipe
    let injector =
        FaultInjector::new(1).with_persistent_fault(StageId::Equiv, FaultKind::Degrade, 2);
    let result = FlowSupervisor::new(FlowOptions::default())
        .with_injector(injector)
        .run(small_block(9))
        .unwrap();
    let attempts = result.trace.attempts_for(StageId::Equiv);
    assert_eq!(attempts.len(), 3);
    assert_eq!(
        attempts.iter().map(|a| a.effort).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "gate failures escalate effort one level per retry"
    );
    assert!(attempts[0].escalations.is_empty());
    assert!(!attempts[2].escalations.is_empty());
    assert!(attempts[2].outcome.is_success());
    assert!(result.tapeout_ready());
}

#[test]
fn checkpoint_resume_continues_from_last_good_stage() {
    let options = FlowOptions::default();
    let baseline = run_flow(small_block(13), &options).unwrap();

    // a persistently failing equivalence check strands the run...
    let broken = FlowSupervisor::new(options.clone()).with_injector(
        FaultInjector::new(2).with_persistent_fault(StageId::Equiv, FaultKind::Degrade, 8),
    );
    let mut checkpoint = FlowCheckpoint::new(small_block(13));
    let err = broken.resume(&mut checkpoint).expect_err("equiv is broken");
    assert!(matches!(err, FlowError::Exhausted { stage: StageId::Equiv, .. }));

    // ...but everything up to the failure survives in the checkpoint
    assert_eq!(
        checkpoint.completed_stages(),
        vec![
            StageId::Validate,
            StageId::PreSta,
            StageId::Scan,
            StageId::Atpg,
            StageId::Layout,
            StageId::TimingFix,
        ]
    );
    assert!(!checkpoint.is_complete(StageId::Equiv));
    let failed_equiv_attempts = checkpoint.trace().attempts_for(StageId::Equiv).len();
    assert!(failed_equiv_attempts >= 2);

    // resuming with a healthy supervisor redoes only the failed tail
    let result =
        FlowSupervisor::new(options).resume(&mut checkpoint).expect("resume completes");
    assert!(result.trace.resumed);
    assert_eq!(fingerprint(&result), fingerprint(&baseline));
    for stage in [StageId::Validate, StageId::Scan, StageId::Atpg, StageId::Layout] {
        assert_eq!(
            result.trace.attempts_for(stage).len(),
            1,
            "{stage} must not re-run on resume"
        );
    }
    assert_eq!(
        result.trace.attempts_for(StageId::Equiv).len(),
        failed_equiv_attempts + 1,
        "the resumed trace keeps the earlier failures"
    );
    assert!(result.trace.render().contains("resumed"));
}

/// Regression: `FlowSupervisor::run` used to build its checkpoint
/// internally and drop it on failure, so a failed `run` lost every
/// completed stage product and the caller had to redo the whole flow.
/// It now comes back inside [`FlowError::Resumable`]; resuming it
/// finishes the flow bit-identically without re-executing the stages
/// that had already succeeded.
#[test]
fn failed_run_resumes_without_redoing_completed_stages() {
    let options = FlowOptions::default();
    let baseline = run_flow(small_block(21), &options).unwrap();

    let err = FlowSupervisor::new(options.clone())
        .with_injector(
            FaultInjector::new(4)
                .with_persistent_fault(StageId::Lvs, FaultKind::Degrade, 8),
        )
        .run(small_block(21))
        .expect_err("lvs is persistently broken");
    let (checkpoint, cause) = err.into_parts();
    let mut checkpoint = checkpoint.expect("run failure must salvage its checkpoint");
    assert!(matches!(cause, FlowError::Exhausted { stage: StageId::Lvs, .. }));
    assert!(checkpoint.is_complete(StageId::TimingFix));
    assert!(!checkpoint.is_complete(StageId::Lvs));

    let result = FlowSupervisor::new(options)
        .resume(&mut checkpoint)
        .expect("salvaged checkpoint resumes to completion");
    assert!(result.trace.resumed);
    assert_eq!(fingerprint(&result), fingerprint(&baseline));
    // the seven stages before LVS ran exactly once, in the failed run
    for stage in &StageId::ALL[..StageId::Lvs.index()] {
        assert_eq!(
            result.trace.attempts_for(*stage).len(),
            1,
            "{stage} was re-executed after resume"
        );
    }
}

/// Regression: `finish` on an unfinished checkpoint used to move out
/// the products it met before the first missing one and drop them, so
/// a resume re-ran stages that had already finished. It now names the
/// first missing stage and takes nothing.
#[test]
fn finish_on_an_unfinished_checkpoint_keeps_every_completed_stage() {
    let supervisor = FlowSupervisor::new(FlowOptions::default());
    let mut checkpoint = FlowCheckpoint::new(small_block(23));
    let through_fix = StageId::ALL[..=StageId::TimingFix.index()].to_vec();
    for _ in &through_fix {
        supervisor.advance(&mut checkpoint).expect("stage runs");
    }
    assert_eq!(checkpoint.completed_stages(), through_fix);

    let err = checkpoint.finish().expect_err("the flow has not finished");
    assert!(matches!(err, FlowError::MissingInput { stage: StageId::Equiv, .. }), "{err}");
    assert_eq!(checkpoint.completed_stages(), through_fix, "finish consumed stage products");

    // only the three remaining stages run on resume
    let before = checkpoint.trace().attempts.len();
    let result = supervisor.resume(&mut checkpoint).expect("resume completes");
    assert_eq!(result.trace.attempts.len() - before, 3);
}

#[test]
fn spent_checkpoint_cannot_run_again() {
    let supervisor = FlowSupervisor::new(FlowOptions::default());
    let mut checkpoint = FlowCheckpoint::new(small_block(3));
    supervisor.resume(&mut checkpoint).expect("fresh checkpoint runs");
    // the successful run drained the products; a second resume cannot
    // rebuild the result and says so with a typed error
    let err = supervisor.resume(&mut checkpoint).expect_err("checkpoint is spent");
    assert!(matches!(err, FlowError::MissingInput { .. } | FlowError::Exhausted { .. }));
}
