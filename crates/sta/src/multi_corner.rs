//! Multi-corner STA fan-out over `camsoc-par`.
//!
//! The paper closes timing at multiple process corners — setup at the
//! slow (worst) corner, hold at the fast (best) corner — and every
//! sign-off iteration of the flow re-runs both. The corner analyses are
//! independent by construction: a [`Corner`] only scales delays, so the
//! compiled SoA snapshot of the netlist (which carries the levelized
//! evaluation order) and the flop→clock resolution (the two fallible,
//! corner-independent derivations) are derived **once** here and
//! shared, and each corner's annotate/report pass runs as one
//! `camsoc-par` work item walking the snapshot's flat arrays. The
//! snapshot is the one the base analyzer borrows
//! ([`Sta::with_compiled`]), or a single compile when it holds none.
//!
//! Determinism: each per-corner pass is a pure function of the shared
//! inputs and its own corner, and [`camsoc_par::map`] merges results in
//! input (corner) order — so the report vector is bit-identical under
//! `Parallelism::Serial` and `Parallelism::Threads(n)` for every `n`.
//!
//! # Example
//!
//! ```
//! use camsoc_netlist::generate;
//! use camsoc_netlist::tech::Technology;
//! use camsoc_par::Parallelism;
//! use camsoc_sta::{multi_corner, Constraints, Corner, Sta};
//!
//! # fn main() -> Result<(), camsoc_sta::StaError> {
//! let nl = generate::fsm(6, 3, 2, 7);
//! let tech = Technology::default();
//! let base = Sta::new(&nl, &tech, Constraints::single_clock("clk", 7.5));
//! let signoff = multi_corner::signoff(
//!     &base,
//!     Corner::worst(),
//!     Corner::best(),
//!     Parallelism::Threads(2),
//! )?;
//! assert!(signoff.clean()); // small FSM: clean at both corners
//! # Ok(())
//! # }
//! ```

use camsoc_par::Parallelism;

use crate::analysis::{Sta, StaError, TimingReport};
use crate::derate::Corner;

/// Analyze the design at every corner in `corners`, fanning the
/// per-corner annotate/report passes over `par` worker threads.
///
/// Reports come back in `corners` order, bit-identical for every thread
/// count. The snapshot (borrowed from `base`, or compiled once) and the
/// flop-clock map are shared read-only by all corners.
///
/// # Errors
///
/// The same errors as [`Sta::analyze`] — [`StaError::NoClock`],
/// [`StaError::UnclockedFlop`], [`StaError::CombinationalCycle`] — all
/// raised up front from the shared derivations, never mid-fan-out.
pub fn analyze_corners(
    base: &Sta<'_>,
    corners: &[Corner],
    par: Parallelism,
) -> Result<Vec<TimingReport>, StaError> {
    let compiled = base.snapshot()?;
    let flop_clock = base.flop_clock_map()?;
    Ok(camsoc_par::map(par, corners, |corner| {
        let sta = base.at_corner(*corner);
        let ann = sta.annotate_with_compiled(&compiled, flop_clock.clone());
        sta.report_from(&ann)
    }))
}

/// The two-corner sign-off verdict: setup checked where delays are
/// slowest, hold checked where they are fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSignoff {
    /// Full report at the slow corner (setup is judged here).
    pub slow: TimingReport,
    /// Full report at the fast corner (hold is judged here).
    pub fast: TimingReport,
    /// Worker threads the fan-out resolved to (1 = serial). Recorded so
    /// a caller that asked for parallel sign-off can detect a plumbing
    /// regression that silently dropped back to serial.
    pub threads_used: usize,
}

impl CornerSignoff {
    /// True when setup is clean at the slow corner **and** hold is
    /// clean at the fast corner — the classic best/worst sign-off gate.
    pub fn clean(&self) -> bool {
        self.slow.setup.clean() && self.fast.hold.clean()
    }
}

/// Run the two sign-off corners concurrently and fold them into a
/// [`CornerSignoff`]. Lend the analyzer a snapshot with
/// [`Sta::with_compiled`] to sign off a netlist the caller has already
/// compiled (or kept current through an ECO loop) without compiling it
/// again.
///
/// # Errors
///
/// See [`analyze_corners`].
pub fn signoff(
    base: &Sta<'_>,
    slow: Corner,
    fast: Corner,
    par: Parallelism,
) -> Result<CornerSignoff, StaError> {
    let mut reports = analyze_corners(base, &[slow, fast], par)?;
    let fast_report = reports.pop().expect("two corners in, two reports out");
    let slow_report = reports.pop().expect("two corners in, two reports out");
    Ok(CornerSignoff {
        slow: slow_report,
        fast: fast_report,
        threads_used: par.threads(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use camsoc_netlist::generate::{self, ip_block, IpBlockParams};
    use camsoc_netlist::tech::Technology;

    fn corners() -> [Corner; 4] {
        [Corner::typical(), Corner::worst(), Corner::best(), Corner::ocv(0.04)]
    }

    #[test]
    fn fan_out_matches_individual_corner_analyses() {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 500, seed: 11, ..Default::default() },
        )
        .unwrap();
        let tech = Technology::default();
        let constraints = Constraints::single_clock("clk", 7.5);
        let base = Sta::new(&nl, &tech, constraints.clone());
        let fanned =
            analyze_corners(&base, &corners(), Parallelism::Threads(4)).unwrap();
        for (corner, fanned_report) in corners().iter().zip(&fanned) {
            let direct = Sta::new(&nl, &tech, constraints.clone())
                .with_corner(*corner)
                .analyze()
                .unwrap();
            assert_eq!(*fanned_report, direct, "corner {}", corner.name);
        }
    }

    #[test]
    fn reports_are_thread_count_invariant() {
        let nl = generate::fsm(10, 5, 4, 3);
        let tech = Technology::default();
        let base = Sta::new(&nl, &tech, Constraints::single_clock("clk", 5.0));
        let serial = analyze_corners(&base, &corners(), Parallelism::Serial).unwrap();
        for t in [1usize, 2, 4] {
            let par =
                analyze_corners(&base, &corners(), Parallelism::Threads(t)).unwrap();
            assert_eq!(par, serial, "t{t}");
        }
    }

    #[test]
    fn signoff_judges_setup_slow_and_hold_fast() {
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 300, seed: 2, ..Default::default() },
        )
        .unwrap();
        let tech = Technology::default();
        let base = Sta::new(&nl, &tech, Constraints::single_clock("clk", 7.5));
        let s = signoff(&base, Corner::worst(), Corner::best(), Parallelism::Threads(2))
            .unwrap();
        assert_eq!(s.slow.corner_name, "worst");
        assert_eq!(s.fast.corner_name, "best");
        assert_eq!(s.threads_used, 2);
        assert_eq!(s.clean(), s.slow.setup.clean() && s.fast.hold.clean());
        // the slow corner can only be tighter on setup than the fast one
        assert!(s.slow.setup.wns_ns <= s.fast.setup.wns_ns + 1e-12);
    }

    #[test]
    fn errors_surface_before_the_fan_out() {
        let nl = generate::fsm(4, 2, 2, 1);
        let tech = Technology::default();
        // sequential design, no clock: the shared derivation fails
        let base = Sta::new(&nl, &tech, Constraints::default());
        assert_eq!(
            analyze_corners(&base, &corners(), Parallelism::Threads(2)),
            Err(StaError::NoClock)
        );
    }
}
