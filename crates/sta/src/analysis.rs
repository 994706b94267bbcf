//! Arrival/required propagation, setup & hold checks, slack reporting.
//!
//! Static timing analysis in the classic form: launch points are
//! primary inputs (at their external input delay), flip-flop Q pins (at
//! clock latency + clock-to-Q) and macro output pins; capture points
//! are flip-flop data pins (setup against the capture clock period),
//! macro input pins and primary outputs. Max arrivals feed setup
//! checks, min arrivals feed hold checks; both are derated by the
//! active [`Corner`].
//!
//! Every pass walks a [`CompiledNetlist`] snapshot of the netlist: its
//! `(level, id)` topological order, CSR fanin rows and fanout rows. A
//! caller that already holds a current snapshot lends it with
//! [`Sta::with_compiled`]; otherwise each entry point compiles once.
//!
//! The analysis is split into two phases so the incremental engine in
//! [`crate::incremental`] can reuse them:
//!
//! 1. [`Sta::annotate`] — the expensive pass. Propagates max/min
//!    arrivals forward in level order and setup required times
//!    backward, producing an [`Annotation`] with per-net timing state
//!    and an evaluation counter.
//! 2. [`Sta::report_from`] — the cheap summarization. Walks every
//!    endpoint, accumulates WNS/TNS, and backtraces the critical path.
//!    It performs no delay evaluation, so re-running it after a partial
//!    re-annotation is bit-identical to a from-scratch analysis.
//!
//! [`Sta::analyze`] is simply `annotate` followed by `report_from`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use camsoc_netlist::cell::CellFunction;
use camsoc_netlist::compiled::{CompiledNetlist, CLOCK_PIN};
use camsoc_netlist::graph::{InstanceId, MacroId, NetDriver, NetId, Netlist, PortId};
use camsoc_netlist::tech::Technology;
use camsoc_netlist::NetlistError;

use crate::constraints::{ClockDef, Constraints};
use crate::derate::Corner;
use crate::macro_model::MacroTiming;
use crate::paths::{PathStep, TimingPath};

/// Estimated routed length per fanout load (mm) when no extracted wire
/// delays are supplied.
pub const EST_WIRE_MM_PER_FANOUT: f64 = 0.03;

pub(crate) const NEG: f64 = f64::NEG_INFINITY;
pub(crate) const POS: f64 = f64::INFINITY;

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// No clock was declared but the design has flip-flops.
    NoClock,
    /// A flip-flop's clock pin does not trace back to a declared clock.
    UnclockedFlop(String),
    /// The netlist has a combinational cycle.
    CombinationalCycle(String),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::NoClock => write!(f, "no clock defined for a sequential design"),
            StaError::UnclockedFlop(n) => {
                write!(f, "flip-flop `{n}` clock pin does not reach a declared clock")
            }
            StaError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net `{n}`")
            }
        }
    }
}

impl std::error::Error for StaError {}

/// [`Netlist::compile`]'s only failure is a combinational cycle.
impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::CombinationalCycle { net } => StaError::CombinationalCycle(net),
            other => StaError::CombinationalCycle(other.to_string()),
        }
    }
}

/// Summary of one check type (setup or hold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckSummary {
    /// Worst negative slack (most negative slack seen; positive if clean).
    pub wns_ns: f64,
    /// Total negative slack (sum of all negative slacks; 0 if clean).
    pub tns_ns: f64,
    /// Number of violating endpoints.
    pub violations: usize,
    /// Endpoints checked.
    pub endpoints: usize,
}

impl CheckSummary {
    /// True when no endpoint violates.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Full analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Setup-check summary.
    pub setup: CheckSummary,
    /// Hold-check summary.
    pub hold: CheckSummary,
    /// Worst hold-violating endpoints: (flop data net name, slack ns),
    /// worst first, capped at 512 entries. Empty when hold is clean.
    pub hold_violations: Vec<(String, f64)>,
    /// The worst setup path, if any endpoint exists.
    pub critical_path: Option<TimingPath>,
    /// Maximum achievable frequency in MHz given the worst setup path
    /// (period − WNS inverted).
    pub fmax_mhz: f64,
    /// Corner the analysis ran at.
    pub corner_name: &'static str,
    /// Logic depth (levels) of the critical path.
    pub critical_levels: usize,
}

impl TimingReport {
    /// True when both setup and hold are clean.
    pub fn clean(&self) -> bool {
        self.setup.clean() && self.hold.clean()
    }
}

/// Per-net timing state produced by [`Sta::annotate`] — the
/// arrival/required annotation an incremental update keeps alive between
/// edits.
///
/// All per-net vectors are indexed by [`NetId`]. Sentinel values mark
/// untimed nets: `-inf` max arrival / `+inf` min arrival for constant
/// cones, `+inf` required time for nets with no downstream constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Latest (setup) arrival per net; `-inf` when untimed.
    pub(crate) at_max: Vec<f64>,
    /// Earliest (hold) arrival per net; `+inf` when untimed.
    pub(crate) at_min: Vec<f64>,
    /// Setup required time per net from the backward pass; `+inf` when
    /// the net reaches no constrained endpoint.
    pub(crate) req_max: Vec<f64>,
    /// Critical-path predecessor per net: the driving instance and the
    /// input net that dominated the max arrival.
    pub(crate) pred: Vec<Option<(InstanceId, NetId)>>,
    /// Launch-point label per net (set only at timing startpoints).
    pub(crate) start_label: Vec<Option<String>>,
    /// Evaluation order of the combinational instances: the snapshot's
    /// `(level, id)` order.
    pub(crate) order: Vec<InstanceId>,
    /// Capture-clock period per flip-flop.
    pub(crate) flop_clock: HashMap<InstanceId, f64>,
    /// Fallback clock period for endpoints without a traced clock.
    pub(crate) default_period: f64,
    /// Graph evaluations performed to produce this annotation (forward
    /// gate evaluations plus backward required-time evaluations).
    pub(crate) evaluated: usize,
}

impl Annotation {
    /// Latest (setup) arrival at `net`, if the net is timed.
    pub fn arrival_max(&self, net: NetId) -> Option<f64> {
        let v = self.at_max[net.index()];
        (v != NEG).then_some(v)
    }

    /// Earliest (hold) arrival at `net`, if the net is timed.
    pub fn arrival_min(&self, net: NetId) -> Option<f64> {
        let v = self.at_min[net.index()];
        (v != POS).then_some(v)
    }

    /// Setup required time at `net`, if any constrained endpoint is
    /// reachable downstream.
    pub fn required_max(&self, net: NetId) -> Option<f64> {
        let v = self.req_max[net.index()];
        (v != POS).then_some(v)
    }

    /// Per-net setup slack: required − arrival. `None` when the net is
    /// untimed or unconstrained.
    pub fn setup_slack(&self, net: NetId) -> Option<f64> {
        Some(self.required_max(net)? - self.arrival_max(net)?)
    }

    /// The topological order the combinational instances were
    /// evaluated in: the compiled snapshot's `(level, id)` order.
    pub fn topo_order(&self) -> &[InstanceId] {
        &self.order
    }

    /// Graph evaluations (forward gate + backward required-time) that
    /// produced this annotation.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }
}

/// The analyzer. Build with [`Sta::new`], optionally refine with
/// [`Sta::with_corner`], [`Sta::with_wire_delays`],
/// [`Sta::with_clock_latency`], [`Sta::with_compiled`], then call
/// [`Sta::analyze`] — or [`Sta::into_incremental`] to keep the
/// annotation alive for incremental ECO updates.
pub struct Sta<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) tech: &'a Technology,
    /// The caller's snapshot of `nl`; `None` → compile per entry point.
    pub(crate) compiled: Option<&'a CompiledNetlist>,
    pub(crate) constraints: Constraints,
    pub(crate) corner: Corner,
    /// Per-net wire delay (ns) from extraction; `None` → fanout estimate.
    pub(crate) wire_delays_ns: Option<Vec<f64>>,
    /// Per-flop clock network latency (ns) from CTS, by instance id.
    pub(crate) clock_latency_ns: HashMap<InstanceId, f64>,
    /// Hardened-macro boundary models by macro instance name; macros
    /// without an entry use the generic memory arcs.
    pub(crate) macro_timing: HashMap<String, MacroTiming>,
}

impl<'a> Sta<'a> {
    /// Create an analyzer at the typical corner with estimated wires.
    pub fn new(nl: &'a Netlist, tech: &'a Technology, constraints: Constraints) -> Self {
        Sta {
            nl,
            tech,
            compiled: None,
            constraints,
            corner: Corner::typical(),
            wire_delays_ns: None,
            clock_latency_ns: HashMap::new(),
            macro_timing: HashMap::new(),
        }
    }

    /// Analyze at a specific corner.
    pub fn with_corner(mut self, corner: Corner) -> Self {
        self.corner = corner;
        self
    }

    /// A sibling analyzer at `corner` sharing this one's netlist, tech,
    /// snapshot, constraints, wire delays and clock latencies — the
    /// per-corner worker [`crate::multi_corner`] fans out over.
    pub(crate) fn at_corner(&self, corner: Corner) -> Sta<'a> {
        Sta {
            nl: self.nl,
            tech: self.tech,
            compiled: self.compiled,
            constraints: self.constraints.clone(),
            corner,
            wire_delays_ns: self.wire_delays_ns.clone(),
            clock_latency_ns: self.clock_latency_ns.clone(),
            macro_timing: self.macro_timing.clone(),
        }
    }

    /// Use extracted per-net wire delays (ns, indexed by `NetId`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the net count.
    pub fn with_wire_delays(mut self, delays_ns: Vec<f64>) -> Self {
        assert_eq!(delays_ns.len(), self.nl.num_nets(), "wire delay vector length");
        self.wire_delays_ns = Some(delays_ns);
        self
    }

    /// Use per-flop clock latencies from clock-tree synthesis.
    pub fn with_clock_latency(mut self, latency_ns: HashMap<InstanceId, f64>) -> Self {
        self.clock_latency_ns = latency_ns;
        self
    }

    /// Time over `compiled`, a snapshot of this analyzer's netlist that
    /// the caller already holds, instead of compiling one per
    /// [`Sta::analyze`], [`Sta::annotate`], [`Sta::into_incremental`] or
    /// [`crate::multi_corner`] call. The snapshot must be current: a
    /// fresh [`Netlist::compile`] of the netlist, or one kept coherent
    /// through [`CompiledNetlist::patch`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's instance or net count differs from the
    /// netlist's.
    pub fn with_compiled(mut self, compiled: &'a CompiledNetlist) -> Self {
        assert!(
            compiled.num_instances() == self.nl.num_instances()
                && compiled.num_nets() == self.nl.num_nets(),
            "compiled snapshot does not match the netlist"
        );
        self.compiled = Some(compiled);
        self
    }

    /// Time macro boundaries through hardened-abstract models, keyed by
    /// macro instance name. Macros without an entry keep the generic
    /// memory arcs, so legacy SRAM-macro designs are bit-unchanged.
    pub fn with_macro_timing(mut self, timing: HashMap<String, MacroTiming>) -> Self {
        self.macro_timing = timing;
        self
    }

    pub(crate) fn wire_delay(&self, net: NetId, fanout: usize) -> f64 {
        match &self.wire_delays_ns {
            Some(v) => v[net.index()],
            None => {
                self.tech.wire_delay_ns_per_mm * EST_WIRE_MM_PER_FANOUT * fanout as f64
            }
        }
    }

    /// Map from clock-port net to clock definition.
    pub(crate) fn port_clock_map(&self) -> HashMap<NetId, &ClockDef> {
        self.constraints
            .clocks
            .iter()
            .filter_map(|c| self.nl.find_port(&c.port).map(|p| (self.nl.port(p).net, c)))
            .collect()
    }

    /// Trace a clock net back through buffers/inverters to a declared
    /// clock; returns the clock definition if found.
    pub(crate) fn trace_clock_with<'c>(
        &self,
        port_clock: &HashMap<NetId, &'c ClockDef>,
        mut net: NetId,
    ) -> Option<&'c ClockDef> {
        for _ in 0..10_000 {
            if let Some(c) = port_clock.get(&net) {
                return Some(c);
            }
            match self.nl.net(net).driver {
                Some(NetDriver::Instance(id)) => {
                    let inst = self.nl.instance(id);
                    match inst.function() {
                        CellFunction::Buf | CellFunction::Inv => net = inst.inputs[0],
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        None
    }

    /// The IO reference latency: after CTS, the mean insertion latency
    /// shifts both the launch (external) and capture (internal) clocks,
    /// so it is added to input arrivals — otherwise every IO-to-flop
    /// path shows a bogus hold violation equal to the insertion delay.
    ///
    /// Summed in instance-id order so the floating-point result is
    /// reproducible regardless of the `HashMap`'s internal layout (an
    /// incremental update must re-derive the exact same value).
    pub(crate) fn io_reference_ns(&self) -> f64 {
        if self.clock_latency_ns.is_empty() {
            return 0.0;
        }
        let mut ids: Vec<InstanceId> = self.clock_latency_ns.keys().copied().collect();
        ids.sort_unstable();
        ids.iter().map(|id| self.clock_latency_ns[id]).sum::<f64>()
            / self.clock_latency_ns.len() as f64
    }

    /// Nets bound to declared clock ports (not data launch points).
    pub(crate) fn clock_port_nets(&self) -> Vec<NetId> {
        self.constraints
            .clocks
            .iter()
            .filter_map(|c| self.nl.find_port(&c.port).map(|p| self.nl.port(p).net))
            .collect()
    }

    /// Resolve the capture-clock period of every flip-flop.
    ///
    /// # Errors
    ///
    /// [`StaError::NoClock`] / [`StaError::UnclockedFlop`].
    pub(crate) fn flop_clock_map(&self) -> Result<HashMap<InstanceId, f64>, StaError> {
        let has_flops = self.nl.flops().next().is_some();
        if has_flops && self.constraints.clocks.is_empty() {
            return Err(StaError::NoClock);
        }
        let port_clock = self.port_clock_map();
        let mut flop_clock = HashMap::new();
        for (id, inst) in self.nl.flops() {
            let clk_net = inst
                .clock
                .ok_or_else(|| StaError::UnclockedFlop(inst.name.clone()))?;
            let clock = self
                .trace_clock_with(&port_clock, clk_net)
                .ok_or_else(|| StaError::UnclockedFlop(inst.name.clone()))?;
            flop_clock.insert(id, clock.period_ns);
        }
        Ok(flop_clock)
    }

    /// Re-seed the launch-point state of `net` from its driver. Nets
    /// that are not timing startpoints (gate outputs, clock ports,
    /// latch outputs, undriven nets) are reset to the untimed state.
    ///
    /// [`Sta::annotate`] seeds every launch point through this routine,
    /// so an incremental re-seed is bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn seed_net(
        &self,
        net: NetId,
        clock_ports: &[NetId],
        io_reference_ns: f64,
        at_max: &mut [f64],
        at_min: &mut [f64],
        pred: &mut [Option<(InstanceId, NetId)>],
        start_label: &mut [Option<String>],
    ) {
        let i = net.index();
        at_max[i] = NEG;
        at_min[i] = POS;
        pred[i] = None;
        start_label[i] = None;
        match self.nl.net(net).driver {
            Some(NetDriver::Port(p)) => {
                if clock_ports.contains(&net) {
                    return; // the clock itself is not a data launch
                }
                let port = self.nl.port(p);
                let d = self.constraints.input_delay(&port.name) + io_reference_ns;
                at_max[i] = d;
                at_min[i] = d;
                start_label[i] = Some(format!("input port {}", port.name));
            }
            Some(NetDriver::Instance(id)) => {
                let inst = self.nl.instance(id);
                if !inst.function().is_flop() {
                    return; // combinational/latch outputs are not seeds
                }
                let lat = *self.clock_latency_ns.get(&id).unwrap_or(&0.0);
                at_max[i] = lat + self.tech.clk_to_q_ns * self.corner.late;
                at_min[i] = lat + self.tech.clk_to_q_ns * self.corner.early;
                start_label[i] = Some(format!("flop {}/CK", inst.name));
            }
            Some(NetDriver::Macro(m, pin)) => {
                let name = &self.nl.macro_inst(m).name;
                if let Some((late, early)) = self
                    .macro_timing
                    .get(name)
                    .and_then(|t| t.output_arrival_ns(pin, self.corner))
                {
                    // hardened macro: the abstract's per-pin window
                    at_max[i] = io_reference_ns + late;
                    at_min[i] = io_reference_ns + early;
                } else {
                    // memories launch later than flops: 2× clk-to-Q access
                    at_max[i] =
                        io_reference_ns + 2.0 * self.tech.clk_to_q_ns * self.corner.late;
                    at_min[i] =
                        io_reference_ns + 2.0 * self.tech.clk_to_q_ns * self.corner.early;
                }
                start_label[i] = Some(format!("macro {name}/CK"));
            }
            None => {}
        }
    }

    /// The flop-independent part of the endpoint requirement: macro
    /// inputs and output ports. These never move under ECO edits (the
    /// edit primitives cannot rewire macro pins or ports), so the
    /// incremental engine computes this once and folds per-net flop
    /// constraints on top.
    pub(crate) fn static_endpoint_required(&self, default_period: f64) -> Vec<f64> {
        let mut req = vec![POS; self.nl.num_nets()];
        for (_, m) in self.nl.macros() {
            let timing = self.macro_timing.get(&m.name);
            for (pin, &net) in m.inputs.iter().enumerate() {
                let required = match self.macro_input_required(timing, pin, default_period) {
                    Some(r) => r,
                    None => continue, // unconstrained abstract pin
                };
                let i = net.index();
                req[i] = req[i].min(required);
            }
        }
        for (_, p) in self.nl.output_ports() {
            let required = default_period - self.constraints.output_delay(&p.name);
            let i = p.net.index();
            req[i] = req[i].min(required);
        }
        req
    }

    /// Setup deadline of macro input `pin`: the hardened abstract's
    /// derated per-pin deadline when a model covers the pin (`None` =
    /// unconstrained, no check), else the generic memory requirement.
    /// Shared by [`Sta::static_endpoint_required`] and
    /// [`Sta::report_from`] so the backward pass and the endpoint
    /// checks can never disagree.
    pub(crate) fn macro_input_required(
        &self,
        timing: Option<&MacroTiming>,
        pin: usize,
        default_period: f64,
    ) -> Option<f64> {
        match timing {
            Some(t) if pin < t.num_inputs() => {
                t.input_required_ns(pin, default_period, self.corner)
            }
            _ => Some(default_period - 2.0 * self.tech.setup_ns),
        }
    }

    /// Setup required time imposed directly at each net by the
    /// endpoints that read it (flop data pins, macro inputs, output
    /// ports); `+inf` where a net feeds no endpoint.
    pub(crate) fn endpoint_required(
        &self,
        flop_clock: &HashMap<InstanceId, f64>,
        default_period: f64,
    ) -> Vec<f64> {
        // min-folding is selection over finite values, so folding the
        // static part first is bit-identical to the historical
        // flops-first order.
        let mut req = self.static_endpoint_required(default_period);
        for (id, inst) in self.nl.flops() {
            let period = flop_clock.get(&id).copied().unwrap_or(default_period);
            let lat = *self.clock_latency_ns.get(&id).unwrap_or(&0.0);
            let required = period + lat - self.tech.setup_ns;
            for &net in &inst.inputs {
                let i = net.index();
                req[i] = req[i].min(required);
            }
        }
        req
    }

    /// Recompute the endpoint requirement of a single net from its
    /// current flop readers (via the snapshot's CSR fanout row) on top
    /// of its static macro/port constraint. Bit-identical to the `net`
    /// entry of [`Sta::endpoint_required`]: the fold is a `min`, so the
    /// row's entry order cannot matter.
    pub(crate) fn endpoint_required_for(
        &self,
        cn: &CompiledNetlist,
        net: NetId,
        static_req: f64,
        flop_clock: &HashMap<InstanceId, f64>,
        default_period: f64,
    ) -> f64 {
        let mut req = static_req;
        for &(reader, pin) in cn.fanout(net) {
            let reader = InstanceId(reader);
            if pin == CLOCK_PIN || !cn.function(reader).is_flop() {
                continue; // clock pins and gate inputs are not data endpoints
            }
            let period = flop_clock.get(&reader).copied().unwrap_or(default_period);
            let lat = *self.clock_latency_ns.get(&reader).unwrap_or(&0.0);
            req = req.min(period + lat - self.tech.setup_ns);
        }
        req
    }

    /// Run the full annotation pass over the snapshot: seed launch
    /// points, propagate arrivals forward and setup required times
    /// backward.
    ///
    /// # Errors
    ///
    /// [`StaError::NoClock`] for sequential designs without clocks,
    /// [`StaError::UnclockedFlop`] for unreachable clock pins,
    /// [`StaError::CombinationalCycle`] for loops (found by compiling,
    /// so never with a snapshot from [`Sta::with_compiled`]).
    pub fn annotate(&self) -> Result<Annotation, StaError> {
        let cn = self.snapshot()?;
        let flop_clock = self.flop_clock_map()?;
        Ok(self.annotate_with_compiled(&cn, flop_clock))
    }

    /// The snapshot to time: the caller's ([`Sta::with_compiled`]), or
    /// a fresh compile of the netlist.
    pub(crate) fn snapshot(&self) -> Result<Cow<'a, CompiledNetlist>, StaError> {
        match self.compiled {
            Some(cn) => Ok(Cow::Borrowed(cn)),
            None => Ok(Cow::Owned(self.nl.compile()?)),
        }
    }

    /// Stage delay of `id` driving its output net under the late
    /// (setup-launch) derate: cell delay plus wire delay.
    fn late_delay_compiled(&self, cn: &CompiledNetlist, id: InstanceId, fanout_out: usize) -> f64 {
        self.tech.cell_delay_ns(cn.cell(id), fanout_out) * self.corner.late
            + self.wire_delay(cn.output(id), fanout_out) * self.corner.late
    }

    /// Stage delay of `id` under the early (hold-launch) derate.
    fn early_delay_compiled(&self, cn: &CompiledNetlist, id: InstanceId, fanout_out: usize) -> f64 {
        self.tech.cell_delay_ns(cn.cell(id), fanout_out) * self.corner.early
            + self.wire_delay(cn.output(id), fanout_out) * self.corner.early
    }

    /// Evaluate one combinational gate: recompute the max/min arrival
    /// and critical predecessor of its output net from its inputs. The
    /// fanin fold walks the CSR row in pin order, so the strict-`>`
    /// first-wins max tie-break follows the pin order. Returns `false`
    /// (no evaluation) for tie cells.
    pub(crate) fn eval_forward_compiled(
        &self,
        cn: &CompiledNetlist,
        id: InstanceId,
        at_max: &mut [f64],
        at_min: &mut [f64],
        pred: &mut [Option<(InstanceId, NetId)>],
    ) -> bool {
        if cn.function(id).is_tie() {
            return false; // constants do not launch timing
        }
        let out = cn.output(id);
        let o = out.index();
        at_max[o] = NEG;
        at_min[o] = POS;
        pred[o] = None;
        let fo = cn.fanout_count(out);
        let cell_late = self.late_delay_compiled(cn, id, fo);
        let cell_early = self.early_delay_compiled(cn, id, fo);
        let mut best_max = NEG;
        let mut best_net = None;
        let mut best_min = POS;
        for &raw in cn.fanin(id) {
            let i = raw as usize;
            if at_max[i] > best_max {
                best_max = at_max[i];
                best_net = Some(NetId(raw));
            }
            best_min = best_min.min(at_min[i]);
        }
        if best_max > NEG {
            let v = best_max + cell_late;
            if v > at_max[o] {
                at_max[o] = v;
                pred[o] = Some((id, best_net.expect("max input")));
            }
        }
        if best_min < POS {
            at_min[o] = at_min[o].min(best_min + cell_early);
        }
        true
    }

    /// Recompute the setup required time of `net`: the minimum of its
    /// direct endpoint constraint and, for each combinational reader on
    /// its CSR fanout row, the reader's output required time minus the
    /// reader's stage delay. The fold is a pure `min` over finite
    /// values, so the row's entry order (which a
    /// [`CompiledNetlist::patch`] may permute relative to a fresh
    /// compile) cannot change the result.
    pub(crate) fn eval_required_compiled(
        &self,
        cn: &CompiledNetlist,
        net: NetId,
        endpoint_req: &[f64],
        req_max: &[f64],
    ) -> f64 {
        let mut req = endpoint_req[net.index()];
        for &(reader, pin) in cn.fanout(net) {
            if pin == CLOCK_PIN {
                continue; // clock pin
            }
            let reader = InstanceId(reader);
            let f = cn.function(reader);
            if f.is_sequential() || f.is_tie() {
                continue; // flop data pins are endpoints, not propagation
            }
            let o = cn.output(reader).index();
            if req_max[o] == POS {
                continue;
            }
            req = req.min(req_max[o] - self.late_delay_compiled(cn, reader, cn.fanout_count(cn.output(reader))));
        }
        req
    }

    /// The annotation pass proper over `cn`, against a precomputed
    /// flop-clock map (corner-independent, so a multi-corner fan-out
    /// derives it once). Launch points are seeded from the graph (they
    /// are endpoint iterations, not traversal); the forward and
    /// backward passes walk the snapshot's flat arrays in its `(level,
    /// id)` topological order.
    ///
    /// Every net is written exactly once, after all of its fanins
    /// (forward) or readers (backward) are final, so any valid
    /// topological order produces the same values; the per-gate folds
    /// themselves are order-preserving (fanin pin order) or
    /// order-insensitive (`min`). That is why an annotation over a
    /// journal-patched snapshot equals one over a fresh compile.
    /// [`Annotation::order`] records the order used.
    pub(crate) fn annotate_with_compiled(
        &self,
        cn: &CompiledNetlist,
        flop_clock: HashMap<InstanceId, f64>,
    ) -> Annotation {
        let default_period = self
            .constraints
            .fastest_clock()
            .map(|c| c.period_ns)
            .unwrap_or(POS);

        let n = self.nl.num_nets();
        let mut at_max = vec![NEG; n];
        let mut at_min = vec![POS; n];
        let mut pred: Vec<Option<(InstanceId, NetId)>> = vec![None; n];
        let mut start_label: Vec<Option<String>> = vec![None; n];

        // Launch points: input ports, flop outputs, macro outputs.
        let io_reference_ns = self.io_reference_ns();
        let clock_ports = self.clock_port_nets();
        let launch_nets = self
            .nl
            .input_ports()
            .map(|(_, p)| p.net)
            .chain(self.nl.flops().map(|(_, inst)| inst.output))
            .chain(self.nl.macros().flat_map(|(_, m)| m.outputs.iter().copied()));
        for net in launch_nets {
            self.seed_net(
                net,
                &clock_ports,
                io_reference_ns,
                &mut at_max,
                &mut at_min,
                &mut pred,
                &mut start_label,
            );
        }

        // Forward: propagate arrivals through combinational gates.
        let mut evaluated = 0usize;
        for &id in cn.topo_order() {
            if self.eval_forward_compiled(cn, id, &mut at_max, &mut at_min, &mut pred) {
                evaluated += 1;
            }
        }

        // Backward: setup required times against the reversed order.
        let endpoint_req = self.endpoint_required(&flop_clock, default_period);
        let mut req_max = vec![POS; n];
        let mut req_done = vec![false; n];
        for &id in cn.topo_order().iter().rev() {
            let out = cn.output(id);
            req_max[out.index()] = self.eval_required_compiled(cn, out, &endpoint_req, &req_max);
            req_done[out.index()] = true;
            evaluated += 1;
        }
        for i in 0..n {
            if !req_done[i] {
                let net = NetId(i as u32);
                req_max[i] = self.eval_required_compiled(cn, net, &endpoint_req, &req_max);
                evaluated += 1;
            }
        }

        Annotation {
            at_max,
            at_min,
            req_max,
            pred,
            start_label,
            order: cn.topo_order().to_vec(),
            flop_clock,
            default_period,
            evaluated,
        }
    }

    /// Summarize an annotation into a [`TimingReport`]: walk every
    /// endpoint, accumulate setup/hold WNS/TNS, and backtrace the
    /// critical path. Pure bookkeeping — no delay model evaluation —
    /// and deterministic in endpoint order, so full and incremental
    /// annotations summarize bit-identically.
    pub fn report_from(&self, ann: &Annotation) -> TimingReport {
        let at_max = &ann.at_max;
        let at_min = &ann.at_min;
        let default_period = ann.default_period;

        let mut setup = CheckSummary { wns_ns: POS, tns_ns: 0.0, violations: 0, endpoints: 0 };
        let mut hold = CheckSummary { wns_ns: POS, tns_ns: 0.0, violations: 0, endpoints: 0 };

        // Worst endpoint is tracked by key and formatted once at the
        // end — a String per endpoint here would put an allocation on
        // every report, which the incremental engine calls per edit.
        #[derive(Clone, Copy)]
        enum EndpointKey {
            Flop(InstanceId, usize),
            MacroPin(MacroId, usize),
            Port(PortId),
        }
        let mut worst: Option<(f64, NetId, EndpointKey, f64)> = None; // slack, net, endpoint, required

        let mut check_setup = |net: NetId, required: f64, endpoint: EndpointKey| {
            let at = at_max[net.index()];
            if at == NEG {
                return; // constant cone — no timing
            }
            let slack = required - at;
            setup.endpoints += 1;
            if slack < setup.wns_ns {
                setup.wns_ns = slack;
            }
            if slack < 0.0 {
                setup.violations += 1;
                setup.tns_ns += slack;
            }
            if worst.as_ref().is_none_or(|(s, ..)| slack < *s) {
                worst = Some((slack, net, endpoint, required));
            }
        };

        // Flop data pins.
        for (id, inst) in self.nl.flops() {
            let period = ann.flop_clock.get(&id).copied().unwrap_or(default_period);
            let lat = *self.clock_latency_ns.get(&id).unwrap_or(&0.0);
            for (pin, &net) in inst.inputs.iter().enumerate() {
                let required = period + lat - self.tech.setup_ns;
                check_setup(net, required, EndpointKey::Flop(id, pin));
            }
        }
        // Macro input pins (memories need extra setup; hardened macros
        // impose their abstract's per-pin deadlines).
        for (mid, m) in self.nl.macros() {
            let timing = self.macro_timing.get(&m.name);
            for (pin, &net) in m.inputs.iter().enumerate() {
                let Some(required) = self.macro_input_required(timing, pin, default_period)
                else {
                    continue;
                };
                check_setup(net, required, EndpointKey::MacroPin(mid, pin));
            }
        }
        // Output ports.
        for (pid, p) in self.nl.output_ports() {
            let required = default_period - self.constraints.output_delay(&p.name);
            check_setup(p.net, required, EndpointKey::Port(pid));
        }

        // Hold: flop *data-path* pins (D, and SI for scan flops) against
        // same-edge capture. Scan-enable and async-reset pins are static
        // control — the classic false paths every sign-off constraint
        // file declares.
        let mut hold_violations: Vec<(String, f64)> = Vec::new();
        for (id, inst) in self.nl.flops() {
            let lat = *self.clock_latency_ns.get(&id).unwrap_or(&0.0);
            let data_pins: &[usize] = match inst.function() {
                CellFunction::Sdff => &[0, 1],  // d, si
                CellFunction::Sdffr => &[0, 2], // d, si
                _ => &[0],
            };
            for &pin in data_pins {
                let net = inst.inputs[pin];
                let at = at_min[net.index()];
                if at == POS {
                    continue;
                }
                let slack = at - (lat + self.tech.hold_ns);
                hold.endpoints += 1;
                if slack < hold.wns_ns {
                    hold.wns_ns = slack;
                }
                if slack < 0.0 {
                    hold.violations += 1;
                    hold.tns_ns += slack;
                    hold_violations.push((self.nl.net(net).name.clone(), slack));
                }
            }
        }
        // Hardened-macro input pins: the abstract's boundary register
        // imposes a hold floor. Only macros carrying a model are
        // checked — generic SRAM macros keep their historical
        // (setup-only) treatment bit-for-bit.
        for (_, m) in self.nl.macros() {
            let Some(timing) = self.macro_timing.get(&m.name) else {
                continue;
            };
            for (pin, &net) in m.inputs.iter().enumerate() {
                let Some(floor) = timing.input_hold_floor_ns(pin) else {
                    continue;
                };
                let at = at_min[net.index()];
                if at == POS {
                    continue;
                }
                let slack = at - floor;
                hold.endpoints += 1;
                if slack < hold.wns_ns {
                    hold.wns_ns = slack;
                }
                if slack < 0.0 {
                    hold.violations += 1;
                    hold.tns_ns += slack;
                    hold_violations.push((self.nl.net(net).name.clone(), slack));
                }
            }
        }
        hold_violations
            .sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        hold_violations.dedup_by(|a, b| a.0 == b.0);
        hold_violations.truncate(512);

        if setup.endpoints == 0 {
            setup.wns_ns = POS;
        }
        if hold.endpoints == 0 {
            hold.wns_ns = POS;
        }

        // Critical path backtrace.
        let critical_path = worst.map(|(slack, net, key, required)| {
            let endpoint = match key {
                EndpointKey::Flop(id, pin) => {
                    format!("{}/D{pin}", self.nl.instance(id).name)
                }
                EndpointKey::MacroPin(id, pin) => {
                    format!("{}/I{pin}", self.nl.macro_inst(id).name)
                }
                EndpointKey::Port(id) => {
                    format!("output port {}", self.nl.port(id).name)
                }
            };
            self.backtrace(net, endpoint, slack, required, at_max, &ann.pred, &ann.start_label)
        });
        let critical_levels = critical_path.as_ref().map_or(0, |p| p.levels());

        let fmax_mhz = if default_period.is_finite() && setup.endpoints > 0 {
            let min_period = default_period - setup.wns_ns.min(default_period);
            if min_period > 0.0 {
                1000.0 / min_period
            } else {
                POS
            }
        } else {
            POS
        };

        TimingReport {
            setup,
            hold,
            hold_violations,
            critical_path,
            fmax_mhz,
            corner_name: self.corner.name,
            critical_levels,
        }
    }

    /// Run the analysis.
    ///
    /// # Errors
    ///
    /// [`StaError::NoClock`] for sequential designs without clocks,
    /// [`StaError::UnclockedFlop`] for unreachable clock pins,
    /// [`StaError::CombinationalCycle`] for loops.
    pub fn analyze(&self) -> Result<TimingReport, StaError> {
        let ann = self.annotate()?;
        Ok(self.report_from(&ann))
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrace(
        &self,
        endpoint_net: NetId,
        endpoint: String,
        slack: f64,
        required: f64,
        at_max: &[f64],
        pred: &[Option<(InstanceId, NetId)>],
        start_label: &[Option<String>],
    ) -> TimingPath {
        let mut rev: Vec<PathStep> = Vec::new();
        let mut net = endpoint_net;
        let mut guard = 0;
        while let Some((inst_id, from)) = pred[net.index()] {
            let inst = self.nl.instance(inst_id);
            let incr = at_max[net.index()] - at_max[from.index()];
            rev.push(PathStep {
                instance: inst.name.clone(),
                cell: inst.cell.lib_name(),
                net: self.nl.net(net).name.clone(),
                incr_ns: incr,
                at_ns: at_max[net.index()],
            });
            net = from;
            guard += 1;
            if guard > 100_000 {
                break;
            }
        }
        let startpoint =
            start_label[net.index()].clone().unwrap_or_else(|| self.nl.net(net).name.clone());
        rev.push(PathStep {
            instance: format!("<{startpoint}>"),
            cell: String::new(),
            net: self.nl.net(net).name.clone(),
            incr_ns: at_max[net.index()],
            at_ns: at_max[net.index()],
        });
        rev.reverse();
        TimingPath {
            endpoint,
            startpoint,
            arrival_ns: at_max[endpoint_net.index()],
            required_ns: required,
            slack_ns: slack,
            steps: rev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::{CellFunction, Drive};
    use camsoc_netlist::generate;
    use camsoc_netlist::tech::TechnologyNode;

    fn tech() -> Technology {
        Technology::node(TechnologyNode::Tsmc250)
    }

    /// A pipeline: ff -> chain of k inverters -> ff.
    fn inv_pipeline(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        let clk = b.input("clk");
        let din = b.input("din");
        let q0 = b.dff("u_src", din, clk);
        let mut net = q0;
        for _ in 0..k {
            net = b.gate_auto(CellFunction::Inv, &[net]);
        }
        let q1 = b.dff("u_dst", net, clk);
        b.output("dout", q1);
        b.finish()
    }

    #[test]
    fn short_pipeline_meets_133mhz() {
        let nl = inv_pipeline(4);
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5)).analyze().unwrap();
        assert!(r.setup.clean(), "wns {}", r.setup.wns_ns);
        assert!(r.fmax_mhz > 133.0);
        assert!(r.critical_path.is_some());
    }

    #[test]
    fn long_chain_violates_fast_clock() {
        let nl = inv_pipeline(200);
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5)).analyze().unwrap();
        assert!(!r.setup.clean());
        assert!(r.setup.wns_ns < 0.0);
        assert!(r.setup.tns_ns < 0.0);
        let p = r.critical_path.unwrap();
        assert!(p.slack_ns < 0.0);
        assert!(p.levels() >= 200);
        assert!(p.to_string().contains("VIOLATED"));
    }

    #[test]
    fn slack_decreases_with_chain_length() {
        let t = tech();
        let mut last = f64::INFINITY;
        for k in [2usize, 10, 40] {
            let nl = inv_pipeline(k);
            let r =
                Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5)).analyze().unwrap();
            assert!(r.setup.wns_ns < last, "k={k}");
            last = r.setup.wns_ns;
        }
    }

    #[test]
    fn worst_corner_is_slower() {
        let nl = inv_pipeline(30);
        let t = tech();
        let typ = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .analyze()
            .unwrap();
        let worst = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .with_corner(Corner::worst())
            .analyze()
            .unwrap();
        assert!(worst.setup.wns_ns < typ.setup.wns_ns);
        assert_eq!(worst.corner_name, "worst");
    }

    #[test]
    fn direct_flop_to_flop_has_hold_risk_at_best_corner() {
        // zero-logic path: ff -> ff directly (classic hold hazard)
        let mut b = NetlistBuilder::new("h");
        let clk = b.input("clk");
        let din = b.input("din");
        let q0 = b.dff("u_a", din, clk);
        let q1 = b.dff("u_b", q0, clk);
        b.output("q", q1);
        let nl = b.finish();
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .with_corner(Corner::best())
            .analyze()
            .unwrap();
        // clk_to_q*0.72 = 0.252 > hold 0.08 → actually clean; now add skew
        assert!(r.hold.endpoints > 0);
        let mut lat = HashMap::new();
        // capture flop sees the clock much later than launch → hold pain
        lat.insert(nl.find_instance("u_b").unwrap(), 0.5);
        let r2 = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .with_corner(Corner::best())
            .with_clock_latency(lat)
            .analyze()
            .unwrap();
        assert!(r2.hold.wns_ns < r.hold.wns_ns);
        assert!(!r2.hold.clean());
    }

    #[test]
    fn unclocked_flop_and_missing_clock_errors() {
        let nl = inv_pipeline(2);
        let t = tech();
        assert_eq!(
            Sta::new(&nl, &t, Constraints::default()).analyze(),
            Err(StaError::NoClock)
        );
        // clock constraint on a non-clock port: flop trace fails
        let r = Sta::new(&nl, &t, Constraints::single_clock("din", 7.5)).analyze();
        assert!(matches!(r, Err(StaError::UnclockedFlop(_))));
    }

    #[test]
    fn clock_through_buffer_tree_is_traced() {
        let mut b = NetlistBuilder::new("cb");
        let clk = b.input("clk");
        let buf1 = b.gate(CellFunction::Buf, Drive::X8, "u_ct1", &[clk]);
        let buf2 = b.gate(CellFunction::Buf, Drive::X8, "u_ct2", &[buf1]);
        let d = b.input("d");
        let q = b.dff("u_ff", d, buf2);
        b.output("q", q);
        let nl = b.finish();
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 10.0)).analyze().unwrap();
        assert!(r.setup.endpoints > 0);
    }

    #[test]
    fn extracted_wire_delays_change_result() {
        let nl = inv_pipeline(10);
        let t = tech();
        let base = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .analyze()
            .unwrap();
        let heavy = vec![0.5; nl.num_nets()];
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5))
            .with_wire_delays(heavy)
            .analyze()
            .unwrap();
        assert!(r.setup.wns_ns < base.setup.wns_ns);
    }

    #[test]
    fn io_delays_tighten_ports() {
        let mut b = NetlistBuilder::new("io");
        let a = b.input("a");
        let y = b.gate_auto(CellFunction::Inv, &[a]);
        b.output("y", y);
        let nl = b.finish();
        let t = tech();
        let mut c = Constraints::single_clock("phantom", 5.0);
        c.set_input_delay("a", 2.0);
        c.set_output_delay("y", 2.0);
        let r = Sta::new(&nl, &t, c).analyze().unwrap();
        // arrival ≈ 2 + gate; required = 5 - 2 = 3 → positive but small
        assert!(r.setup.clean());
        assert!(r.setup.wns_ns < 1.5);
    }

    #[test]
    fn fsm_analyzes_cleanly() {
        let nl = generate::fsm(8, 4, 4, 99);
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5)).analyze().unwrap();
        assert!(r.setup.endpoints > 8);
        assert!(r.fmax_mhz.is_finite());
    }

    #[test]
    fn macro_pins_are_checked() {
        let mut b = NetlistBuilder::new("m");
        let clk = b.input("clk");
        let d = b.input("d");
        let q = b.dff("u_ff", d, clk);
        let addr = b.gate_auto(CellFunction::Buf, &[q]);
        let out = b.fresh_net();
        b.memory("u_ram", 256, 8, vec![addr], vec![out]);
        let y = b.gate_auto(CellFunction::Inv, &[out]);
        let q2 = b.dff("u_ff2", y, clk);
        b.output("z", q2);
        let nl = b.finish();
        let t = tech();
        let r = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5)).analyze().unwrap();
        // endpoints include the ram input pin and the flop D pins
        assert!(r.setup.endpoints >= 3);
        assert!(r.setup.clean());
    }

    #[test]
    fn annotation_exposes_per_net_slack() {
        let nl = inv_pipeline(10);
        let t = tech();
        let sta = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5));
        let ann = sta.annotate().unwrap();
        let report = sta.report_from(&ann);
        // the critical path endpoint's per-net slack matches the report
        let path = report.critical_path.as_ref().unwrap();
        let end_net = nl.find_net(&path.steps.last().unwrap().net).unwrap();
        let slack = ann.setup_slack(end_net).unwrap();
        assert!(
            (slack - path.slack_ns).abs() < 1e-12,
            "per-net slack {slack} vs path {}",
            path.slack_ns
        );
        // topo order covers the whole chain, front to back
        assert_eq!(ann.topo_order().len(), 10);
        // arrivals increase and required times increase walking the chain
        let ats: Vec<f64> = ann
            .topo_order()
            .iter()
            .map(|&id| ann.arrival_max(nl.instance(id).output).unwrap())
            .collect();
        assert!(ats.windows(2).all(|w| w[1] > w[0]), "{ats:?}");
        let reqs: Vec<f64> = ann
            .topo_order()
            .iter()
            .map(|&id| ann.required_max(nl.instance(id).output).unwrap())
            .collect();
        assert!(reqs.windows(2).all(|w| w[1] > w[0]), "{reqs:?}");
        // evaluations: 10 forward + one required eval per net
        assert_eq!(ann.evaluated(), 10 + nl.num_nets());
    }

    #[test]
    fn analyze_equals_annotate_plus_report() {
        let nl = generate::fsm(8, 4, 4, 7);
        let t = tech();
        let sta = Sta::new(&nl, &t, Constraints::single_clock("clk", 7.5));
        let direct = sta.analyze().unwrap();
        let ann = sta.annotate().unwrap();
        assert_eq!(direct, sta.report_from(&ann));
    }
}
