//! The project's change history, replayed.
//!
//! "During the course, there are 3 spec changes involving re-synthesis
//! and FF modification, 10 netlist changes involving ECO of
//! combinational logic part, 3 ECO changes to fix setup/hold time
//! violation, and 13 versions of pin assignments."
//!
//! [`paper_change_history`] reproduces that exact mix;
//! [`replay_history`] applies each change to a live netlist with the
//! right tool (netlist ECO ops, pin re-optimisation), runs the check
//! each change class demands (equivalence must *fail* for functional
//! changes and *hold* for timing fixes), and accounts incremental
//! versus full-reflow effort — the economics behind "the implementation
//! team has to be flexible and adaptive to changes".
//!
//! Timing follows every change **incrementally**: the replay keeps an
//! [`IncrementalSta`] engine alive across the whole history, feeds it
//! each change's [`EditDelta`], and records how many graph evaluations
//! the cone-limited update actually performed versus what a full re-run
//! would have cost ([`StaEffort`] per change, totals on
//! [`ReplayOutcome`]). The measured cone fraction also drives the
//! engineer-hours model: a change that only dirties 2% of the chip costs
//! close to the floor, a change that re-times half of it doesn't.

use camsoc_netlist::cell::{CellFunction, Drive};
use camsoc_netlist::eco::{EcoSession, EditDelta};
use camsoc_netlist::equiv::{check_equivalence, EquivOptions, EquivVerdict};
use camsoc_netlist::generate::SplitMix64;
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::tech::Technology;
use camsoc_netlist::NetlistError;
use camsoc_pinassign::assign::{optimize, OptimizeConfig, Problem};
use camsoc_pinassign::package::Tfbga;
use camsoc_sta::{Constraints, Corner, IncrementalSta, Sta, TimingReport};

/// Change classes from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// Spec change: re-synthesis and flip-flop modification.
    Spec,
    /// Combinational netlist ECO (functional fix).
    NetlistEco,
    /// Setup/hold timing fix.
    TimingEco,
    /// A new pin-assignment version.
    PinAssign,
}

impl ChangeKind {
    /// Incremental implementation effort (engineer-hours) when the
    /// change re-times the whole chip — the worst case. The measured
    /// dirty-cone fraction scales this down per change (see
    /// [`AppliedChange::hours`]).
    pub fn incremental_hours(self) -> f64 {
        match self {
            ChangeKind::Spec => 60.0,
            ChangeKind::NetlistEco => 16.0,
            ChangeKind::TimingEco => 8.0,
            ChangeKind::PinAssign => 6.0,
        }
    }

    /// Effort of a full re-run instead (engineer-hours).
    pub fn full_rerun_hours(self) -> f64 {
        160.0
    }
}

/// One change request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRequest {
    /// Change class.
    pub kind: ChangeKind,
    /// Description for the log.
    pub description: String,
}

/// The paper's change history: 3 + 10 + 3 + 13 = 29 changes.
pub fn paper_change_history() -> Vec<ChangeRequest> {
    let mut history = Vec::new();
    for i in 0..3 {
        history.push(ChangeRequest {
            kind: ChangeKind::Spec,
            description: format!("spec change #{}: re-synthesis + FF modification", i + 1),
        });
    }
    for i in 0..10 {
        history.push(ChangeRequest {
            kind: ChangeKind::NetlistEco,
            description: format!("netlist ECO #{}: combinational logic fix", i + 1),
        });
    }
    for i in 0..3 {
        history.push(ChangeRequest {
            kind: ChangeKind::TimingEco,
            description: format!("timing ECO #{}: setup/hold fix", i + 1),
        });
    }
    for i in 0..13 {
        history.push(ChangeRequest {
            kind: ChangeKind::PinAssign,
            description: format!("pin assignment version {}", i + 1),
        });
    }
    history
}

/// Measured STA cost of re-verifying one change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaEffort {
    /// Graph evaluations the incremental update performed.
    pub incremental_evals: usize,
    /// Evaluations a from-scratch analysis would have performed.
    pub full_evals: usize,
    /// `incremental_evals / full_evals` — the dirty-cone fraction.
    pub cone_fraction: f64,
    /// The update fell back to a full re-annotation (cone too large).
    pub used_full: bool,
    /// Derived-structure bookkeeping the update performed: levelization
    /// slots reordered + fanout entries patched + endpoint requirements
    /// recomputed. O(edit) on the journal path, O(netlist) on a rebuild.
    pub bookkeeping_ops: usize,
    /// The persistent engine structures were re-derived from scratch
    /// instead of patched in place.
    pub structures_rebuilt: bool,
    /// Setup WNS after the change (ns).
    pub wns_ns: f64,
}

/// Outcome of one applied change.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedChange {
    /// The request.
    pub request: ChangeRequest,
    /// Whether the formal check behaved as the change class predicts
    /// (equivalent for timing fixes, not-equivalent for functional
    /// changes, layers reported for pin versions).
    pub check_ok: bool,
    /// Substrate layers after a pin change (pin versions only).
    pub substrate_layers: Option<usize>,
    /// Incremental STA cost of re-verifying this change (`None` for
    /// changes that don't touch the netlist, or when no clock exists).
    pub sta: Option<StaEffort>,
    /// Engineer-hours charged: the class's incremental effort scaled by
    /// the measured dirty-cone fraction
    /// (`incremental_hours × (0.25 + 0.75 × cone)`), or the flat class
    /// effort when no timing update ran.
    pub hours: f64,
}

/// Replay outcome.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Per-change log.
    pub log: Vec<AppliedChange>,
    /// Incremental effort total (hours), cone-scaled per change.
    pub incremental_hours: f64,
    /// What full re-runs would have cost (hours).
    pub full_rerun_hours: f64,
    /// Total graph evaluations the incremental STA performed across all
    /// netlist-touching changes.
    pub incremental_gate_evals: usize,
    /// Total evaluations from-scratch analyses would have performed.
    pub full_gate_evals: usize,
    /// Timing of the final netlist (absent when the design has no
    /// usable clock).
    pub final_timing: Option<TimingReport>,
    /// The final netlist.
    pub netlist: Netlist,
}

impl ReplayOutcome {
    /// All checks behaved as predicted.
    pub fn all_checks_ok(&self) -> bool {
        self.log.iter().all(|c| c.check_ok)
    }

    /// Count of changes by kind.
    pub fn count(&self, kind: ChangeKind) -> usize {
        self.log.iter().filter(|c| c.request.kind == kind).count()
    }

    /// Graph-evaluation speedup of incremental over from-scratch STA
    /// across the replay (1.0 when no timing updates ran).
    pub fn sta_speedup(&self) -> f64 {
        if self.incremental_gate_evals == 0 {
            1.0
        } else {
            self.full_gate_evals as f64 / self.incremental_gate_evals as f64
        }
    }
}

/// Knobs for [`replay_history_with`].
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Technology for delay models.
    pub tech: Technology,
    /// Clock port name.
    pub clock_port: String,
    /// Clock period (ns).
    pub clock_period_ns: f64,
    /// Timing corner.
    pub corner: Corner,
    /// Dirty-cone fraction above which the incremental STA falls back
    /// to a full re-annotation.
    pub max_cone_fraction: f64,
    /// Random simulation rounds for the equivalence checks.
    pub equiv_rounds: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            tech: Technology::default(),
            clock_port: "clk".to_string(),
            clock_period_ns: 7.5,
            corner: Corner::typical(),
            max_cone_fraction: 0.75,
            equiv_rounds: 8,
        }
    }
}

/// State threaded through a replay: the RNG, the pin-version counter,
/// the package, and the equivalence configuration. Exposed so tests and
/// tools can apply the paper history change-by-change (via
/// [`apply_change`]) while interleaving their own analyses.
pub struct ReplayContext {
    rng: SplitMix64,
    pin_version: usize,
    clk: Option<NetId>,
    equiv_opts: EquivOptions,
    package: Tfbga,
    seed: u64,
}

impl ReplayContext {
    /// Build the context [`replay_history`] uses internally.
    pub fn new(netlist: &Netlist, seed: u64, equiv_rounds: usize) -> Self {
        ReplayContext {
            rng: SplitMix64::new(seed),
            pin_version: 0,
            clk: netlist.find_net("clk"),
            equiv_opts: EquivOptions { random_rounds: equiv_rounds, ..EquivOptions::default() },
            package: Tfbga::tfbga256(),
            seed,
        }
    }
}

/// Result of applying one change with [`apply_change`].
pub struct ChangeOutcome {
    /// The netlist after the change.
    pub netlist: Netlist,
    /// Nets/instances the change touched (empty for pin versions).
    pub delta: EditDelta,
    /// Whether the change's formal check behaved as predicted.
    pub check_ok: bool,
    /// Substrate layers (pin versions only).
    pub substrate_layers: Option<usize>,
}

/// Pick a 2-input combinational gate whose output actually drives
/// something — changing a dangling gate is logically invisible and no
/// honest ECO would target one.
fn pick_comb_gate(nl: &Netlist, rng: &mut SplitMix64) -> Option<InstanceId> {
    let fanout = nl.fanout_counts();
    let candidates: Vec<InstanceId> = nl
        .instances()
        .filter(|(_, i)| {
            !i.function().is_sequential()
                && !i.spare
                && i.inputs.len() == 2
                && !i.function().is_tie()
                && fanout[i.output.index()] > 0
        })
        .map(|(id, _)| id)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.below(candidates.len())])
    }
}

/// Apply one change request to a netlist, running the check its class
/// demands, and report the edit delta for incremental re-verification.
///
/// # Errors
///
/// Propagates ECO/equivalence errors.
pub fn apply_change(
    current: Netlist,
    request: &ChangeRequest,
    ctx: &mut ReplayContext,
) -> Result<ChangeOutcome, NetlistError> {
    match request.kind {
        ChangeKind::Spec => {
            // FF modification: insert a pipeline flop on an internal
            // instance-driven net
            let before = current.clone();
            let mut eco = EcoSession::new(current);
            let target = pick_comb_gate(eco.netlist(), &mut ctx.rng);
            let mut ok = false;
            if let (Some(gate), Some(clk)) = (target, ctx.clk) {
                let net = eco.netlist().instance(gate).output;
                if eco.add_pipeline_flop(net, clk).is_ok() {
                    ok = true;
                }
            }
            let delta = eco.take_delta();
            let (nl, _) = eco.finish();
            // spec changes alter the interface (new flop = new state
            // point) — the check is that equivalence correctly does
            // NOT hold
            let verdict = check_equivalence(&before, &nl, &ctx.equiv_opts)?.verdict;
            Ok(ChangeOutcome {
                netlist: nl,
                delta,
                check_ok: ok && !matches!(verdict, EquivVerdict::Equivalent),
                substrate_layers: None,
            })
        }
        ChangeKind::NetlistEco => {
            // a masked (logically redundant) pick is possible; retry
            // a few gates until the change is observable, as a real
            // ECO engineer targets an observable point by definition
            let mut result: Option<(Netlist, EditDelta)> = None;
            for _attempt in 0..6 {
                let mut eco = EcoSession::new(current.clone());
                let Some(gate) = pick_comb_gate(eco.netlist(), &mut ctx.rng) else {
                    break;
                };
                let f = eco.netlist().instance(gate).function();
                let new_f = match f {
                    CellFunction::Nand2 => CellFunction::Nor2,
                    CellFunction::Nor2 => CellFunction::Nand2,
                    CellFunction::And2 => CellFunction::Or2,
                    CellFunction::Or2 => CellFunction::And2,
                    CellFunction::Xor2 => CellFunction::Xnor2,
                    _ => CellFunction::Nand2,
                };
                if f == new_f || eco.change_function(gate, new_f).is_err() {
                    continue;
                }
                let delta = eco.take_delta();
                let (candidate, _) = eco.finish();
                let verdict = check_equivalence(&current, &candidate, &ctx.equiv_opts)?.verdict;
                if matches!(verdict, EquivVerdict::NotEquivalent { .. }) {
                    result = Some((candidate, delta));
                    break;
                }
            }
            let ok = result.is_some();
            let (netlist, delta) = result.unwrap_or((current, EditDelta::default()));
            Ok(ChangeOutcome { netlist, delta, check_ok: ok, substrate_layers: None })
        }
        ChangeKind::TimingEco => {
            let before = current.clone();
            let mut eco = EcoSession::new(current);
            let mut ok = false;
            if let Some(gate) = pick_comb_gate(eco.netlist(), &mut ctx.rng) {
                let out = eco.netlist().instance(gate).output;
                let upsized = eco.upsize(gate).is_ok();
                let buffered = eco.insert_buffer(out, Drive::X4).is_ok();
                ok = upsized || buffered;
            }
            let delta = eco.take_delta();
            let (nl, _) = eco.finish();
            let report = check_equivalence(&before, &nl, &ctx.equiv_opts)?;
            // timing fixes must PROVE equivalent
            Ok(ChangeOutcome {
                netlist: nl,
                delta,
                check_ok: ok && report.passed(),
                substrate_layers: None,
            })
        }
        ChangeKind::PinAssign => {
            ctx.pin_version += 1;
            // each version: the customer re-locks a different signal
            // subset; re-optimise and report layers
            let problem =
                Problem::synthesize(&ctx.package, 96, 0.12, ctx.seed ^ (ctx.pin_version as u64));
            let assignment = optimize(
                &problem,
                &OptimizeConfig { iterations: 8_000, ..OptimizeConfig::default() },
            );
            Ok(ChangeOutcome {
                netlist: current,
                delta: EditDelta::default(),
                check_ok: true,
                substrate_layers: Some(assignment.quality.layers),
            })
        }
    }
}

/// Replay a change history against a netlist with default options.
///
/// # Errors
///
/// Propagates ECO/equivalence errors.
pub fn replay_history(
    netlist: Netlist,
    history: &[ChangeRequest],
    seed: u64,
) -> Result<ReplayOutcome, NetlistError> {
    replay_history_with(netlist, history, seed, &ReplayOptions::default())
}

/// Replay a change history, re-verifying timing after every
/// netlist-touching change with the incremental STA engine.
///
/// # Errors
///
/// Propagates ECO/equivalence/timing errors.
pub fn replay_history_with(
    netlist: Netlist,
    history: &[ChangeRequest],
    seed: u64,
    options: &ReplayOptions,
) -> Result<ReplayOutcome, NetlistError> {
    let mut ctx = ReplayContext::new(&netlist, seed, options.equiv_rounds);
    let mut current = netlist;
    let mut log = Vec::new();
    let mut incremental = 0.0;
    let mut full = 0.0;
    let mut inc_evals = 0usize;
    let mut full_evals = 0usize;

    // Baseline timing annotation — kept alive for the whole replay.
    // Designs without a usable clock replay without timing tracking.
    let constraints = Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let mut engine: Option<IncrementalSta> = Sta::new(&current, &options.tech, constraints)
        .with_corner(options.corner)
        .into_incremental()
        .ok()
        .map(|(inc, _)| inc.with_max_cone_fraction(options.max_cone_fraction));
    let mut final_timing: Option<TimingReport> = None;

    for request in history {
        full += request.kind.full_rerun_hours();
        let outcome = apply_change(current, request, &mut ctx)?;
        current = outcome.netlist;

        let mut sta = None;
        if !outcome.delta.is_empty() {
            if let Some(inc) = engine.as_mut() {
                let report = inc
                    .update(&current, &options.tech, &outcome.delta)
                    .map_err(|e| NetlistError::InvalidParameter(format!("sta: {e}")))?;
                let s = *inc.stats();
                inc_evals += s.evaluated;
                full_evals += s.full_evaluated;
                sta = Some(StaEffort {
                    incremental_evals: s.evaluated,
                    full_evals: s.full_evaluated,
                    cone_fraction: s.cone_fraction,
                    used_full: s.used_full,
                    bookkeeping_ops: s.order_reordered
                        + s.fanout_patched
                        + s.endpoints_recomputed,
                    structures_rebuilt: s.structures_rebuilt,
                    wns_ns: report.setup.wns_ns,
                });
                final_timing = Some(report);
            }
        }
        // Effort model: the class's incremental hours assume a
        // whole-chip re-time; the measured cone scales the re-verify
        // portion down, with a 25% floor for the edit itself.
        let hours = match &sta {
            Some(s) => {
                request.kind.incremental_hours() * (0.25 + 0.75 * s.cone_fraction.min(1.0))
            }
            None => request.kind.incremental_hours(),
        };
        incremental += hours;

        log.push(AppliedChange {
            request: request.clone(),
            check_ok: outcome.check_ok,
            substrate_layers: outcome.substrate_layers,
            sta,
            hours,
        });
    }

    Ok(ReplayOutcome {
        log,
        incremental_hours: incremental,
        full_rerun_hours: full,
        incremental_gate_evals: inc_evals,
        full_gate_evals: full_evals,
        final_timing,
        netlist: current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsc::build_dsc;

    #[test]
    fn history_has_paper_counts() {
        let h = paper_change_history();
        assert_eq!(h.len(), 29);
        let count =
            |k: ChangeKind| h.iter().filter(|c| c.kind == k).count();
        assert_eq!(count(ChangeKind::Spec), 3);
        assert_eq!(count(ChangeKind::NetlistEco), 10);
        assert_eq!(count(ChangeKind::TimingEco), 3);
        assert_eq!(count(ChangeKind::PinAssign), 13);
    }

    #[test]
    fn replay_applies_all_changes_with_correct_checks() {
        let design = build_dsc(0.02).unwrap();
        let outcome =
            replay_history(design.netlist, &paper_change_history(), 0xE50).unwrap();
        assert_eq!(outcome.log.len(), 29);
        assert!(outcome.all_checks_ok(), "failed checks: {:?}",
            outcome.log.iter().filter(|c| !c.check_ok).map(|c| &c.request.description).collect::<Vec<_>>());
        // pin versions all reported layers, and the final ones are low
        let layer_series: Vec<usize> =
            outcome.log.iter().filter_map(|c| c.substrate_layers).collect();
        assert_eq!(layer_series.len(), 13);
        assert!(layer_series.iter().all(|&l| l >= 1));
        outcome.netlist.validate().unwrap();
    }

    #[test]
    fn incremental_is_far_cheaper_than_full_reruns() {
        let design = build_dsc(0.015).unwrap();
        let outcome =
            replay_history(design.netlist, &paper_change_history(), 0xE51).unwrap();
        assert!(
            outcome.incremental_hours < outcome.full_rerun_hours / 5.0,
            "incremental {} vs full {}",
            outcome.incremental_hours,
            outcome.full_rerun_hours
        );
    }

    #[test]
    fn replay_tracks_incremental_sta_effort() {
        let design = build_dsc(0.015).unwrap();
        let outcome =
            replay_history(design.netlist, &paper_change_history(), 0xE52).unwrap();
        // every netlist-touching change carries STA effort numbers; pin
        // versions never do
        for c in &outcome.log {
            match c.request.kind {
                ChangeKind::PinAssign => assert!(c.sta.is_none()),
                _ => {
                    let s = c.sta.expect("netlist change has STA effort");
                    assert!(s.incremental_evals <= s.full_evals);
                    assert!(s.full_evals > 0);
                    assert!(c.hours <= c.request.kind.incremental_hours());
                }
            }
        }
        // the replay as a whole must be strictly cheaper than full
        // re-analyses, and the totals must be consistent with the log
        assert!(outcome.incremental_gate_evals < outcome.full_gate_evals);
        assert!(outcome.sta_speedup() > 1.0);
        let sum: usize =
            outcome.log.iter().filter_map(|c| c.sta.map(|s| s.incremental_evals)).sum();
        assert_eq!(sum, outcome.incremental_gate_evals);
        assert!(outcome.final_timing.is_some());
    }

    #[test]
    fn cone_scaling_shrinks_hours() {
        let design = build_dsc(0.015).unwrap();
        let outcome =
            replay_history(design.netlist, &paper_change_history(), 0xE53).unwrap();
        // at least one localized change should cost well under the flat
        // class effort
        assert!(outcome
            .log
            .iter()
            .any(|c| c.sta.is_some() && c.hours < 0.75 * c.request.kind.incremental_hours()));
    }

    #[test]
    fn effort_constants_are_ordered() {
        assert!(ChangeKind::Spec.incremental_hours() > ChangeKind::NetlistEco.incremental_hours());
        assert!(
            ChangeKind::NetlistEco.incremental_hours() > ChangeKind::TimingEco.incremental_hours()
        );
        for k in [
            ChangeKind::Spec,
            ChangeKind::NetlistEco,
            ChangeKind::TimingEco,
            ChangeKind::PinAssign,
        ] {
            assert!(k.incremental_hours() < k.full_rerun_hours());
        }
    }
}
