//! Automatic test-pattern generation.
//!
//! Two classic phases:
//!
//! 1. **Random phase** — blocks of 64 random patterns are fault-simulated
//!    with fault dropping; lanes that detect at least one new fault are
//!    kept as test patterns. Random patterns typically reach the low-90 %
//!    coverage region quickly — exactly the neighbourhood the paper
//!    reports ("after scan insertion, the fault coverage was 93 %").
//! 2. **Deterministic phase** — a PODEM-style branch-and-bound search
//!    targets each remaining fault: backtrace an objective to an
//!    assignable source, imply by 3-valued simulation of the good and
//!    faulty machines, backtrack on conflict. Faults whose search space
//!    exhausts are *untestable* (redundant); faults that hit the
//!    backtrack budget are *aborted*.

use camsoc_netlist::cell::{CellFunction, MAX_CELL_INPUTS};
use camsoc_netlist::compiled::CompiledNetlist;
use camsoc_netlist::generate::SplitMix64;
use camsoc_netlist::graph::{NetDriver, NetId, Netlist};
use camsoc_netlist::NetlistError;
use camsoc_par::Parallelism;

use crate::faults::{FaultList, StuckAtFault};
use crate::fsim::{CombCircuit, FsimCounters, FsimMode, FsimStats};

/// 3-valued logic for the PODEM engine: 0, 1, unknown.
const V0: u8 = 0;
const V1: u8 = 1;
const VX: u8 = 2;

fn not3(a: u8) -> u8 {
    match a {
        V0 => V1,
        V1 => V0,
        _ => VX,
    }
}
fn and3(a: u8, b: u8) -> u8 {
    if a == V0 || b == V0 {
        V0
    } else if a == V1 && b == V1 {
        V1
    } else {
        VX
    }
}
fn or3(a: u8, b: u8) -> u8 {
    if a == V1 || b == V1 {
        V1
    } else if a == V0 && b == V0 {
        V0
    } else {
        VX
    }
}
fn xor3(a: u8, b: u8) -> u8 {
    if a == VX || b == VX {
        VX
    } else {
        a ^ b
    }
}

fn eval3(f: CellFunction, ins: &[u8]) -> u8 {
    match f {
        CellFunction::Buf => ins[0],
        CellFunction::Inv => not3(ins[0]),
        CellFunction::And2 => and3(ins[0], ins[1]),
        CellFunction::And3 => and3(and3(ins[0], ins[1]), ins[2]),
        CellFunction::Nand2 => not3(and3(ins[0], ins[1])),
        CellFunction::Nand3 => not3(and3(and3(ins[0], ins[1]), ins[2])),
        CellFunction::Nand4 => not3(and3(and3(ins[0], ins[1]), and3(ins[2], ins[3]))),
        CellFunction::Or2 => or3(ins[0], ins[1]),
        CellFunction::Or3 => or3(or3(ins[0], ins[1]), ins[2]),
        CellFunction::Nor2 => not3(or3(ins[0], ins[1])),
        CellFunction::Nor3 => not3(or3(or3(ins[0], ins[1]), ins[2])),
        CellFunction::Xor2 => xor3(ins[0], ins[1]),
        CellFunction::Xnor2 => not3(xor3(ins[0], ins[1])),
        CellFunction::Mux2 => match ins[2] {
            V0 => ins[0],
            V1 => ins[1],
            _ => {
                if ins[0] == ins[1] && ins[0] != VX {
                    ins[0]
                } else {
                    VX
                }
            }
        },
        CellFunction::Aoi21 => not3(or3(and3(ins[0], ins[1]), ins[2])),
        CellFunction::Oai21 => not3(and3(or3(ins[0], ins[1]), ins[2])),
        CellFunction::Maj3 => or3(
            or3(and3(ins[0], ins[1]), and3(ins[1], ins[2])),
            and3(ins[0], ins[2]),
        ),
        CellFunction::Tie0 => V0,
        CellFunction::Tie1 => V1,
        CellFunction::Dff
        | CellFunction::Dffr
        | CellFunction::Sdff
        | CellFunction::Sdffr
        | CellFunction::Latch => ins[0],
    }
}

/// ATPG configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Maximum 64-pattern random blocks.
    pub max_random_blocks: usize,
    /// Stop the random phase after this many consecutive blocks without
    /// a new detection.
    pub stall_blocks: usize,
    /// PODEM backtrack budget per fault (0 disables the phase).
    pub podem_backtrack_limit: usize,
    /// Cap on faults attempted by PODEM (`None` = all remaining).
    pub podem_fault_cap: Option<usize>,
    /// Optional fault-universe sample size (`None` = full universe).
    pub fault_sample: Option<usize>,
    /// Thread budget for fault simulation (the fault universe is
    /// partitioned across threads; results merge deterministically, so
    /// coverage and patterns are bit-identical to `Serial`).
    pub parallelism: Parallelism,
    /// Fault-simulation engine: cone-cached (default) or the uncached
    /// reference. Results are bit-identical; only speed differs.
    pub fsim_mode: FsimMode,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0xA7B6,
            max_random_blocks: 64,
            stall_blocks: 6,
            podem_backtrack_limit: 60,
            podem_fault_cap: None,
            fault_sample: None,
            parallelism: Parallelism::Serial,
            fsim_mode: FsimMode::Cached,
        }
    }
}

impl AtpgConfig {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the config unchanged (bit-identical results); each level
    /// doubles the PODEM backtrack budget, adds 32 random blocks,
    /// tolerates two more stalled blocks before giving up on the random
    /// phase (more fault-dropping opportunity), and scales any PODEM
    /// fault cap. The escalated config is a pure function of
    /// `(self, level)`.
    pub fn escalated(&self, level: u32) -> AtpgConfig {
        if level == 0 {
            return self.clone();
        }
        AtpgConfig {
            podem_backtrack_limit: self
                .podem_backtrack_limit
                .saturating_mul(1usize << level.min(16)),
            max_random_blocks: self.max_random_blocks + 32 * level as usize,
            stall_blocks: self.stall_blocks + 2 * level as usize,
            podem_fault_cap: self
                .podem_fault_cap
                .map(|c| c.saturating_mul(1 + level as usize)),
            ..self.clone()
        }
    }
}

/// One stored test pattern: a value per circuit source.
pub type Pattern = Vec<bool>;

/// Outcome of an ATPG run.
///
/// Every fault lands in exactly one bucket:
/// `total_faults == detected + untestable + aborted + not_attempted`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgResult {
    /// Faults in the (possibly sampled) target list.
    pub total_faults: usize,
    /// Faults detected by some pattern.
    pub detected: usize,
    /// Faults proven untestable (redundant logic).
    pub untestable: usize,
    /// Faults whose PODEM search actually ran and hit the backtrack
    /// budget (and were not later caught by fault dropping).
    pub aborted: usize,
    /// Faults PODEM never attempted: left over when `podem_fault_cap`
    /// was reached, or all random-phase survivors when
    /// `podem_backtrack_limit == 0` disables the deterministic phase.
    pub not_attempted: usize,
    /// Kept test patterns.
    pub patterns: Vec<Pattern>,
    /// Detections contributed by the random phase.
    pub random_detected: usize,
    /// Detections contributed by the deterministic phase.
    pub podem_detected: usize,
    /// Fault-simulation work counters (gate evals, early exits,
    /// container allocations) summed over both phases.
    pub fsim_stats: FsimStats,
}

impl AtpgResult {
    /// Fault coverage: detected / total.
    pub fn fault_coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_faults as f64
    }

    /// Test coverage: detected / (total − untestable).
    pub fn test_coverage(&self) -> f64 {
        let testable = self.total_faults.saturating_sub(self.untestable);
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }
}

/// The ATPG engine.
pub struct Atpg<'a> {
    cc: CombCircuit<'a>,
    faults: FaultList,
    cfg: AtpgConfig,
}

impl<'a> Atpg<'a> {
    /// Prepare ATPG for a (scan-inserted) netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn new(nl: &'a Netlist, cfg: AtpgConfig) -> Result<Self, NetlistError> {
        Ok(Self::on(CombCircuit::new(nl)?, cfg))
    }

    /// Prepare ATPG over `compiled`, a current snapshot of `nl` the
    /// caller already holds (see [`CombCircuit::with_compiled`]).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's instance or net count differs from the
    /// netlist's.
    pub fn with_compiled(nl: &'a Netlist, compiled: &'a CompiledNetlist, cfg: AtpgConfig) -> Self {
        Self::on(CombCircuit::with_compiled(nl, compiled), cfg)
    }

    fn on(cc: CombCircuit<'a>, cfg: AtpgConfig) -> Self {
        let full = FaultList::generate(cc.nl);
        let faults = match cfg.fault_sample {
            Some(n) => full.sample(n),
            None => full,
        };
        Atpg { cc, faults, cfg }
    }

    /// Access the prepared combinational circuit.
    pub fn circuit(&self) -> &CombCircuit<'a> {
        &self.cc
    }

    /// Run both phases and return the result.
    pub fn run(&self) -> AtpgResult {
        let mut rng = SplitMix64::new(self.cfg.seed);
        let nsrc = self.cc.sources.len();
        let counters = FsimCounters::default();
        let mut undetected: Vec<StuckAtFault> = self.faults.faults.clone();
        let mut patterns: Vec<Pattern> = Vec::new();
        let mut random_detected = 0usize;

        // ---- random phase ----
        let mut stall = 0usize;
        for _ in 0..self.cfg.max_random_blocks {
            if undetected.is_empty() || stall >= self.cfg.stall_blocks {
                break;
            }
            let assign: Vec<u64> = (0..nsrc).map(|_| rng.next_u64()).collect();
            let good = self.cc.good_sim(&assign);
            let mut lane_useful = 0u64;
            let before = undetected.len();
            // fault universe partitioned across threads; the per-fault
            // lanes are independent, and the drop + first-lane merge
            // below walks them in fault order, so the surviving list and
            // kept patterns are identical for every thread count
            let lanes_all = self.cc.detect_all_mode(
                &undetected,
                &good,
                self.cfg.parallelism,
                self.cfg.fsim_mode,
                &counters,
            );
            let mut survivors = Vec::with_capacity(undetected.len());
            for (&f, &lanes) in undetected.iter().zip(&lanes_all) {
                if lanes != 0 {
                    lane_useful |= lanes & lanes.wrapping_neg(); // first lane
                } else {
                    survivors.push(f);
                }
            }
            undetected = survivors;
            let newly = before - undetected.len();
            random_detected += newly;
            if newly == 0 {
                stall += 1;
            } else {
                stall = 0;
            }
            // keep the useful lanes as patterns
            let mut l = lane_useful;
            while l != 0 {
                let lane = l.trailing_zeros() as usize;
                l &= l - 1;
                patterns.push(assign.iter().map(|w| (w >> lane) & 1 == 1).collect());
            }
        }

        // ---- deterministic phase ----
        let mut untestable = 0usize;
        let mut podem_detected = 0usize;
        let mut aborted = 0usize;
        let not_attempted;
        if self.cfg.podem_backtrack_limit > 0 && !undetected.is_empty() {
            let cap = self.cfg.podem_fault_cap.unwrap_or(undetected.len());
            let mut remaining = std::mem::take(&mut undetected);
            // lockstep with `remaining`: has this fault's PODEM search
            // already aborted? (such a fault can still be rescued later
            // by fault dropping, so the flag travels with the fault)
            let mut was_aborted = vec![false; remaining.len()];
            let mut i = 0usize;
            let mut attempted = 0usize;
            while i < remaining.len() {
                let fault = remaining[i];
                if attempted >= cap {
                    break;
                }
                attempted += 1;
                match self.podem(fault) {
                    PodemOutcome::Test(pattern) => {
                        podem_detected += 1;
                        remaining.swap_remove(i);
                        was_aborted.swap_remove(i);
                        // fault-drop the rest with this pattern
                        let assign: Vec<u64> = pattern
                            .iter()
                            .map(|&b| if b { !0u64 } else { 0u64 })
                            .collect();
                        let good = self.cc.good_sim(&assign);
                        let before = remaining.len();
                        let lanes_all = self.cc.detect_all_mode(
                            &remaining,
                            &good,
                            self.cfg.parallelism,
                            self.cfg.fsim_mode,
                            &counters,
                        );
                        let mut survivors = Vec::with_capacity(remaining.len());
                        let mut survivor_flags = Vec::with_capacity(remaining.len());
                        for ((&f, &flag), &lanes) in
                            remaining.iter().zip(&was_aborted).zip(&lanes_all)
                        {
                            if lanes == 0 {
                                survivors.push(f);
                                survivor_flags.push(flag);
                            }
                        }
                        remaining = survivors;
                        was_aborted = survivor_flags;
                        podem_detected += before - remaining.len();
                        patterns.push(pattern);
                        // do not advance i: swap_remove replaced position i
                    }
                    PodemOutcome::Untestable => {
                        untestable += 1;
                        remaining.swap_remove(i);
                        was_aborted.swap_remove(i);
                    }
                    PodemOutcome::Aborted => {
                        was_aborted[i] = true;
                        i += 1;
                    }
                }
            }
            aborted = was_aborted.iter().filter(|&&b| b).count();
            not_attempted = remaining.len() - aborted;
        } else {
            not_attempted = undetected.len();
        }

        let total = self.faults.len();
        let detected = random_detected + podem_detected;
        debug_assert_eq!(total, detected + untestable + aborted + not_attempted);
        AtpgResult {
            total_faults: total,
            detected,
            untestable,
            aborted,
            not_attempted,
            patterns,
            random_detected,
            podem_detected,
            fsim_stats: counters.snapshot(),
        }
    }

    // ---- PODEM ----

    /// Compute the cone of instances relevant to a fault: the fanout
    /// cone of the fault site plus the transitive fanin of everything in
    /// it, in global topological order. PODEM then simulates only this
    /// region — the standard cone-of-influence optimisation that makes
    /// deterministic ATPG tractable on full-chip netlists.
    fn fault_cone(&self, fault: StuckAtFault) -> Vec<camsoc_netlist::graph::InstanceId> {
        use std::collections::HashSet;
        let nl = self.cc.nl;
        let seed_net = match fault {
            StuckAtFault::Net { net, .. } => net,
            StuckAtFault::Pin { inst, .. } => nl.instance(inst).output,
        };
        // forward: fanout cone instances
        let mut forward: HashSet<u32> = HashSet::new();
        let mut stack = vec![seed_net];
        let mut seen_nets: HashSet<NetId> = HashSet::new();
        while let Some(net) = stack.pop() {
            if !seen_nets.insert(net) {
                continue;
            }
            for &g in &self.cc.comb_fanout[net.index()] {
                if forward.insert(g.0) {
                    stack.push(nl.instance(g).output);
                }
            }
        }
        if let StuckAtFault::Pin { inst, .. } = fault {
            forward.insert(inst.0);
        }
        // backward: transitive fanin of the forward region's inputs and
        // of the fault site itself
        let mut relevant: HashSet<u32> = forward.clone();
        let mut stack: Vec<NetId> = vec![seed_net];
        for &raw in &forward {
            let inst = nl.instance(camsoc_netlist::graph::InstanceId(raw));
            stack.extend(inst.inputs.iter().copied());
        }
        let mut seen_back: HashSet<NetId> = HashSet::new();
        while let Some(net) = stack.pop() {
            if !seen_back.insert(net) {
                continue;
            }
            if self.cc.source_index.contains_key(&net) {
                continue;
            }
            if let Some(camsoc_netlist::graph::NetDriver::Instance(d)) = nl.net(net).driver
            {
                if nl.instance(d).function().is_sequential() {
                    continue;
                }
                if relevant.insert(d.0) {
                    stack.extend(nl.instance(d).inputs.iter().copied());
                }
            }
        }
        // global topo order filtered to the relevant set
        self.cc
            .order
            .iter()
            .copied()
            .filter(|id| relevant.contains(&id.0))
            .collect()
    }

    fn podem(&self, fault: StuckAtFault) -> PodemOutcome {
        let nsrc = self.cc.sources.len();
        let cone = self.fault_cone(fault);
        // decision stack: (source index, current value, tried both?)
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut assignment: Vec<u8> = vec![VX; nsrc];
        let mut backtracks = 0usize;

        loop {
            let (good, faulty) = self.sim3(&assignment, fault, &cone);
            match self.analyze_state(fault, &good, &faulty, &cone) {
                State::Detected => {
                    let pattern =
                        assignment.iter().map(|&v| v == V1).collect::<Pattern>();
                    return PodemOutcome::Test(pattern);
                }
                State::Conflict => {
                    // backtrack
                    loop {
                        match stack.pop() {
                            Some((src, val, tried_both)) => {
                                assignment[src] = VX;
                                if !tried_both {
                                    backtracks += 1;
                                    if backtracks > self.cfg.podem_backtrack_limit {
                                        return PodemOutcome::Aborted;
                                    }
                                    assignment[src] = if val { V0 } else { V1 };
                                    stack.push((src, !val, true));
                                    break;
                                }
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
                State::Objective(net, want) => {
                    match self.backtrace(net, want, &good, &assignment) {
                        Some((src, val)) => {
                            assignment[src] = if val { V1 } else { V0 };
                            stack.push((src, val, false));
                        }
                        None => {
                            // no X path to a source — treat as conflict
                            loop {
                                match stack.pop() {
                                    Some((src, val, tried_both)) => {
                                        assignment[src] = VX;
                                        if !tried_both {
                                            backtracks += 1;
                                            if backtracks > self.cfg.podem_backtrack_limit {
                                                return PodemOutcome::Aborted;
                                            }
                                            assignment[src] = if val { V0 } else { V1 };
                                            stack.push((src, !val, true));
                                            break;
                                        }
                                    }
                                    None => return PodemOutcome::Untestable,
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// 3-valued simulation of good and faulty machines under a partial
    /// source assignment, restricted to the fault's cone of influence.
    fn sim3(
        &self,
        assignment: &[u8],
        fault: StuckAtFault,
        cone: &[camsoc_netlist::graph::InstanceId],
    ) -> (Vec<u8>, Vec<u8>) {
        let n = self.cc.nl.num_nets();
        let mut good = vec![VX; n];
        let mut faulty = vec![VX; n];
        for (i, &net) in self.cc.sources.iter().enumerate() {
            good[net.index()] = assignment[i];
            faulty[net.index()] = assignment[i];
        }
        if let StuckAtFault::Net { net, stuck_one } = fault {
            faulty[net.index()] = if stuck_one { V1 } else { V0 };
        }
        for &id in cone {
            let inst = self.cc.nl.instance(id);
            let mut gi = [VX; MAX_CELL_INPUTS];
            let mut fi = [VX; MAX_CELL_INPUTS];
            for (k, &nid) in inst.inputs.iter().enumerate() {
                gi[k] = good[nid.index()];
                fi[k] = faulty[nid.index()];
            }
            if let StuckAtFault::Pin { inst: fi_inst, pin, stuck_one } = fault {
                if fi_inst == id {
                    fi[pin] = if stuck_one { V1 } else { V0 };
                }
            }
            let out = inst.output.index();
            let nin = inst.inputs.len().clamp(1, MAX_CELL_INPUTS);
            good[out] = eval3(inst.function(), &gi[..nin]);
            let fv = eval3(inst.function(), &fi[..nin]);
            faulty[out] = match fault {
                StuckAtFault::Net { net, stuck_one } if net.index() == out => {
                    if stuck_one {
                        V1
                    } else {
                        V0
                    }
                }
                _ => fv,
            };
        }
        (good, faulty)
    }

    fn analyze_state(
        &self,
        fault: StuckAtFault,
        good: &[u8],
        faulty: &[u8],
        cone: &[camsoc_netlist::graph::InstanceId],
    ) -> State {
        // detection: a sink where good and faulty are both binary and differ
        for &sink in &self.cc.sinks {
            let g = good[sink.index()];
            let f = faulty[sink.index()];
            if g != VX && f != VX && g != f {
                return State::Detected;
            }
        }
        // excitation
        let (site_good, want_good): (u8, u8) = match fault {
            StuckAtFault::Net { net, stuck_one } => {
                (good[net.index()], if stuck_one { V0 } else { V1 })
            }
            StuckAtFault::Pin { inst, pin, stuck_one } => {
                let net = self.cc.nl.instance(inst).inputs[pin];
                (good[net.index()], if stuck_one { V0 } else { V1 })
            }
        };
        if site_good == VX {
            let net = match fault {
                StuckAtFault::Net { net, .. } => net,
                StuckAtFault::Pin { inst, pin, .. } => self.cc.nl.instance(inst).inputs[pin],
            };
            return State::Objective(net, want_good == V1);
        }
        if site_good != want_good {
            return State::Conflict;
        }
        // fault excited; find the D-frontier: gates with a differing
        // binary input and an undetermined output difference
        for &id in cone {
            let inst = self.cc.nl.instance(id);
            let out = inst.output.index();
            let out_diff_known =
                good[out] != VX && faulty[out] != VX && good[out] != faulty[out];
            if out_diff_known {
                continue; // difference already past this gate
            }
            let has_diff_input = inst.inputs.iter().any(|&n| {
                let g = good[n.index()];
                let f = faulty[n.index()];
                g != VX && f != VX && g != f
            }) || matches!(fault, StuckAtFault::Pin { inst: fi, .. } if fi == id);
            if !has_diff_input {
                continue;
            }
            if good[out] == VX || faulty[out] == VX {
                // objective: set an X side-input to the non-controlling value
                for &n in &inst.inputs {
                    if good[n.index()] == VX {
                        let want = non_controlling(inst.function());
                        return State::Objective(n, want);
                    }
                }
            }
        }
        State::Conflict // no way to push the difference forward
    }

    /// Backtrace an objective `(net, want)` to an assignable source.
    fn backtrace(
        &self,
        mut net: NetId,
        mut want: bool,
        good: &[u8],
        assignment: &[u8],
    ) -> Option<(usize, bool)> {
        for _ in 0..200_000 {
            if let Some(&src) = self.cc.source_index.get(&net) {
                if assignment[src] == VX {
                    return Some((src, want));
                }
                return None; // already assigned — cannot satisfy here
            }
            let driver = match self.cc.nl.net(net).driver {
                Some(NetDriver::Instance(id)) => id,
                _ => return None,
            };
            let inst = self.cc.nl.instance(driver);
            let f = inst.function();
            if f.is_tie() {
                return None;
            }
            // choose an X input to chase
            let x_input = inst
                .inputs
                .iter()
                .copied()
                .find(|&n| good[n.index()] == VX)?;
            let (inverting, _anding) = gate_class(f);
            let next_want = match f {
                CellFunction::Xor2 | CellFunction::Xnor2 | CellFunction::Mux2 => want,
                CellFunction::Maj3 => want,
                // AND-like: output 1 needs all inputs 1; OR-like: output 0
                // needs all inputs 0 — either way the same literal chases up
                _ => want ^ inverting,
            };
            net = x_input;
            want = next_want;
        }
        None
    }
}

enum State {
    Detected,
    Conflict,
    Objective(NetId, bool),
}

/// Outcome of a single PODEM search.
enum PodemOutcome {
    Test(Pattern),
    Untestable,
    Aborted,
}

/// `(inverting, and_like)` classification for backtrace parity.
fn gate_class(f: CellFunction) -> (bool, bool) {
    match f {
        CellFunction::Inv | CellFunction::Nand2 | CellFunction::Nand3 | CellFunction::Nand4 => {
            (true, true)
        }
        CellFunction::Nor2 | CellFunction::Nor3 => (true, false),
        CellFunction::And2 | CellFunction::And3 => (false, true),
        CellFunction::Or2 | CellFunction::Or3 => (false, false),
        CellFunction::Aoi21 => (true, true),
        CellFunction::Oai21 => (true, false),
        _ => (false, true),
    }
}

/// The non-controlling input value of a gate (used to sensitise paths).
fn non_controlling(f: CellFunction) -> bool {
    match f {
        CellFunction::And2
        | CellFunction::And3
        | CellFunction::Nand2
        | CellFunction::Nand3
        | CellFunction::Nand4
        | CellFunction::Aoi21 => true,
        CellFunction::Or2
        | CellFunction::Or3
        | CellFunction::Nor2
        | CellFunction::Nor3
        | CellFunction::Oai21 => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::generate;

    #[test]
    fn eval3_tables() {
        assert_eq!(and3(V0, VX), V0);
        assert_eq!(and3(V1, VX), VX);
        assert_eq!(or3(V1, VX), V1);
        assert_eq!(or3(V0, VX), VX);
        assert_eq!(xor3(V1, VX), VX);
        assert_eq!(not3(VX), VX);
        assert_eq!(eval3(CellFunction::Mux2, &[V1, V1, VX]), V1);
        assert_eq!(eval3(CellFunction::Tie1, &[VX]), V1);
    }

    #[test]
    fn full_coverage_on_small_adder() {
        let nl = generate::ripple_adder(4).unwrap();
        let result = Atpg::new(&nl, AtpgConfig::default()).unwrap().run();
        // a small adder has no redundancy: everything detected
        assert_eq!(result.detected, result.total_faults, "aborted={}", result.aborted);
        assert_eq!(result.fault_coverage(), 1.0);
        assert!(!result.patterns.is_empty());
    }

    #[test]
    fn redundant_fault_is_untestable_not_aborted() {
        // y = a AND 1 : tie net SA1 is redundant
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a");
        let one = b.tie(true);
        let y = b.gate_auto(CellFunction::And2, &[a, one]);
        b.output("y", y);
        let nl = b.finish();
        let cfg = AtpgConfig { max_random_blocks: 2, ..AtpgConfig::default() };
        let result = Atpg::new(&nl, cfg).unwrap().run();
        assert!(result.untestable >= 1, "untestable={}", result.untestable);
        assert!(result.test_coverage() >= result.fault_coverage());
    }

    #[test]
    fn podem_finds_what_random_misses() {
        // A wide AND tree: the output SA0 needs all-ones — a 2^-16 random
        // shot per pattern. Random-only misses it at tiny budgets; PODEM
        // nails it.
        let mut b = NetlistBuilder::new("wide");
        let ins = b.input_bus("a", 16);
        let mut layer = ins;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        b.gate_auto(CellFunction::And2, &[p[0], p[1]])
                    } else {
                        p[0]
                    }
                })
                .collect();
        }
        b.output("y", layer[0]);
        let nl = b.finish();

        let no_podem = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_backtrack_limit: 0,
            ..AtpgConfig::default()
        };
        let r1 = Atpg::new(&nl, no_podem).unwrap().run();
        assert!(r1.detected < r1.total_faults);

        let with_podem = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            ..AtpgConfig::default()
        };
        let r2 = Atpg::new(&nl, with_podem).unwrap().run();
        assert!(r2.detected > r1.detected);
        assert_eq!(r2.detected, r2.total_faults, "aborted={}", r2.aborted);
        assert!(r2.podem_detected > 0);
    }

    #[test]
    fn scan_inserted_fsm_reaches_high_coverage() {
        let nl = generate::fsm(8, 4, 4, 77);
        let (scanned, _) =
            crate::scan::insert_scan(nl, &crate::scan::ScanConfig::default()).unwrap();
        let result = Atpg::new(&scanned, AtpgConfig::default()).unwrap().run();
        assert!(
            result.fault_coverage() > 0.85,
            "coverage {:.3} (detected {}/{})",
            result.fault_coverage(),
            result.detected,
            result.total_faults
        );
    }

    #[test]
    fn coverage_of_empty_list_is_one() {
        let r = AtpgResult {
            total_faults: 0,
            detected: 0,
            untestable: 0,
            aborted: 0,
            not_attempted: 0,
            patterns: vec![],
            random_detected: 0,
            podem_detected: 0,
            fsim_stats: FsimStats::default(),
        };
        assert_eq!(r.fault_coverage(), 1.0);
        assert_eq!(r.test_coverage(), 1.0);
    }

    #[test]
    fn disabled_podem_reports_not_attempted_not_aborted() {
        // one tiny random block leaves survivors; with the deterministic
        // phase disabled none of them was ever attempted, so none may be
        // reported as "aborted"
        let nl = generate::fsm(8, 4, 4, 5);
        let cfg = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_backtrack_limit: 0,
            ..AtpgConfig::default()
        };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        assert!(r.detected < r.total_faults, "need survivors for this test");
        assert_eq!(r.aborted, 0);
        assert_eq!(
            r.not_attempted,
            r.total_faults - r.detected - r.untestable
        );
        assert_eq!(
            r.total_faults,
            r.detected + r.untestable + r.aborted + r.not_attempted
        );
    }

    #[test]
    fn fault_cap_leftovers_are_not_attempted() {
        let nl = generate::fsm(8, 4, 4, 5);
        let cfg = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_fault_cap: Some(1),
            ..AtpgConfig::default()
        };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        // at most one fault was attempted, so at most one can be aborted
        assert!(r.aborted <= 1, "aborted = {}", r.aborted);
        assert_eq!(
            r.total_faults,
            r.detected + r.untestable + r.aborted + r.not_attempted
        );
    }

    #[test]
    fn atpg_counts_fsim_work() {
        let nl = generate::ripple_adder(8).unwrap();
        let cached = Atpg::new(&nl, AtpgConfig::default()).unwrap().run();
        let uncached = Atpg::new(
            &nl,
            AtpgConfig { fsim_mode: FsimMode::Uncached, ..AtpgConfig::default() },
        )
        .unwrap()
        .run();
        assert_eq!(cached.detected, uncached.detected);
        assert_eq!(cached.patterns, uncached.patterns);
        assert!(cached.fsim_stats.faults_simulated > 0);
        assert_eq!(
            cached.fsim_stats.faults_simulated,
            uncached.fsim_stats.faults_simulated
        );
        assert!(
            cached.fsim_stats.gate_evals < uncached.fsim_stats.gate_evals,
            "cached {} evals vs uncached {}",
            cached.fsim_stats.gate_evals,
            uncached.fsim_stats.gate_evals
        );
        assert!(cached.fsim_stats.allocations < uncached.fsim_stats.allocations);
    }

    #[test]
    fn sampling_reduces_fault_count() {
        let nl = generate::ripple_adder(8).unwrap();
        let cfg = AtpgConfig { fault_sample: Some(20), ..AtpgConfig::default() };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        assert_eq!(r.total_faults, 20);
    }
}
