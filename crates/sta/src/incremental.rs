//! Incremental timing update for ECO loops.
//!
//! A full [`Sta::analyze`](crate::Sta::analyze) walks every gate of the
//! netlist. After a localized ECO edit — a rewire, a buffer insertion,
//! a resize — almost all of that work reproduces numbers that cannot
//! have moved: arrivals only change in the *forward fanout cone* of the
//! edit frontier, and required times only change in the *backward fanin
//! cone*. [`IncrementalSta`] keeps the [`Annotation`] from a baseline
//! analysis alive, takes the [`EditDelta`] an
//! [`EcoSession`](camsoc_netlist::eco::EcoSession) accumulates, and
//! re-evaluates only those two cones.
//!
//! # Persistent structures
//!
//! Cone-limited *evaluation* is not enough to make an update cheap: the
//! structures the evaluation consults must also be patched rather than
//! rebuilt. The engine keeps three of them alive across updates:
//!
//! - **The compiled snapshot**: the engine's own copy of the
//!   [`CompiledNetlist`] the baseline timed (a clone of the snapshot
//!   lent through [`Sta::with_compiled`](crate::Sta::with_compiled), or
//!   the one the baseline compiled). Each update replays the delta's
//!   connectivity journal into it with [`CompiledNetlist::patch`],
//!   which repairs the CSR fanout rows, fanout counts and logic levels
//!   in O(edits + cone). The cones are walked over its rows, ordered by
//!   its `(level, id)` key and evaluated by the per-gate kernels every
//!   analysis runs. When a level changed, the patch re-sorts the
//!   snapshot's order, an uncounted O(instances) step.
//! - **Endpoint requirements**: the static macro/port part never moves
//!   under ECO edits; per-net flop constraints are recomputed only for
//!   nets whose flop readers or capture periods actually changed.
//! - **Capture clocks** (`ann.flop_clock`): re-traced only for flops
//!   whose clock tree intersects the edit.
//!
//! When the snapshot refuses a delta, because its journal does not
//! explain the netlist's current shape (a stripped or hand-built delta,
//! a skipped update), the engine recompiles and re-annotates from
//! scratch — still bit-identical — and [`UpdateStats::structures_rebuilt`]
//! records it.
//!
//! The update is **bit-identical** to a from-scratch analysis: it reuses
//! the exact per-gate evaluation routines of the full compiled pass,
//! re-seeds launch points through the same code path, folds fanout rows
//! with order-insensitive `min`s, and re-derives order-sensitive scalars
//! (like the IO reference latency) deterministically. `TimingReport`
//! equality — including WNS/TNS floats and critical-path backtraces — is
//! asserted across the whole 29-change paper ECO history in
//! `tests/sta_incremental.rs`.
//!
//! When an edit's cones grow past a configurable fraction of the graph
//! (default 0.75), the engine falls back to a full re-annotation — at
//! that size the cone bookkeeping costs more than it saves.

use std::collections::{BTreeSet, HashMap};

use camsoc_netlist::compiled::{CompiledNetlist, CLOCK_PIN};
use camsoc_netlist::eco::{ConnectivityEdit, EditDelta};
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::tech::Technology;

use crate::analysis::{Annotation, Sta, StaError, TimingReport, NEG, POS};
use crate::constraints::Constraints;
use crate::derate::Corner;
use crate::macro_model::MacroTiming;

/// Cost accounting for one [`IncrementalSta::update`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Graph evaluations this update performed (forward gate
    /// evaluations plus backward required-time evaluations).
    pub evaluated: usize,
    /// Evaluations a from-scratch [`Sta::annotate`](crate::Sta) of the
    /// current netlist would perform.
    pub full_evaluated: usize,
    /// `evaluated / full_evaluated` — the dirty-cone fraction (`0.0`
    /// when the combinational graph is empty).
    pub cone_fraction: f64,
    /// True when the cone exceeded the threshold, or the snapshot
    /// refused the delta, and the engine ran a full re-annotation.
    pub used_full: bool,
    /// Instances whose logic level the snapshot patch recomputed
    /// ([`PatchStats::levels_recomputed`](camsoc_netlist::compiled::PatchStats)).
    /// Zero for edits that move no pin; O(affected region) otherwise.
    pub order_reordered: usize,
    /// Fanout-row entries the snapshot patch inserted or moved
    /// ([`PatchStats::fanout_entries_patched`](camsoc_netlist::compiled::PatchStats)).
    /// O(edits), independent of netlist size.
    pub fanout_patched: usize,
    /// Per-net endpoint requirements recomputed (nets whose flop
    /// readers or capture periods changed).
    pub endpoints_recomputed: usize,
    /// True when a persistent structure (the snapshot, or the endpoint
    /// requirements) was re-derived from scratch instead of patched —
    /// the O(netlist) bookkeeping path.
    pub structures_rebuilt: bool,
}

/// Incremental timing engine: a baseline annotation plus the machinery
/// to patch it after netlist edits.
///
/// Build one from a configured analyzer via
/// [`Sta::into_incremental`], then call [`IncrementalSta::update`]
/// with the netlist's current state and the accumulated edit delta
/// after each ECO.
///
/// # Example
///
/// ```
/// use camsoc_netlist::builder::NetlistBuilder;
/// use camsoc_netlist::cell::CellFunction;
/// use camsoc_netlist::eco::EcoSession;
/// use camsoc_netlist::tech::Technology;
/// use camsoc_sta::{Constraints, IncrementalSta, Sta};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("d");
/// let clk = b.input("clk");
/// let din = b.input("din");
/// let mut net = b.dff("u_src", din, clk);
/// for _ in 0..8 {
///     net = b.gate_auto(CellFunction::Inv, &[net]);
/// }
/// let q = b.dff("u_dst", net, clk);
/// b.output("dout", q);
///
/// let tech = Technology::default();
/// let constraints = Constraints::single_clock("clk", 7.5);
/// let mut eco = EcoSession::new(b.finish());
///
/// // Baseline: one full analysis, annotation kept alive.
/// let sta = Sta::new(eco.netlist(), &tech, constraints.clone());
/// let (mut inc, baseline) = sta.into_incremental()?;
///
/// // Edit: upsize one inverter, then patch the timing.
/// let victim = inc.annotation().topo_order()[4];
/// eco.upsize(victim)?;
/// let delta = eco.take_delta();
/// let report = inc.update(eco.netlist(), &tech, &delta)?;
///
/// // Bit-identical to a from-scratch analysis, at a fraction of the work.
/// let full = Sta::new(eco.netlist(), &tech, constraints).analyze()?;
/// assert_eq!(report, full);
/// assert!(inc.stats().evaluated < inc.stats().full_evaluated);
/// assert!(!inc.stats().structures_rebuilt); // patched, not rebuilt
/// assert!(report.fmax_mhz >= baseline.fmax_mhz);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct IncrementalSta {
    constraints: Constraints,
    corner: Corner,
    clock_latency_ns: HashMap<InstanceId, f64>,
    wire_delays_ns: Option<Vec<f64>>,
    macro_timing: HashMap<String, MacroTiming>,
    max_cone_fraction: f64,
    ann: Annotation,
    /// Snapshot of the netlist last timed, patched from the journal.
    cn: CompiledNetlist,
    /// Live per-net endpoint requirement and its flop-independent part.
    endpoint_req: Vec<f64>,
    static_endpoint_req: Vec<f64>,
    /// Non-tie combinational instance count (the forward half of a full
    /// evaluation), maintained incrementally.
    nontie_comb: usize,
    /// Per-engine scalars that a full analysis re-derives each run but
    /// that cannot change between updates (constraints and clock-tree
    /// latencies are fixed at construction).
    io_reference_ns: f64,
    clock_ports: Vec<NetId>,
    /// Epoch-stamped scratch marks: `mark[i] == epoch` means "in the
    /// current set". Bumping the epoch invalidates all marks in O(1),
    /// so cone collection allocates nothing in steady state.
    inst_mark: Vec<u32>,
    net_mark: Vec<u32>,
    epoch: u32,
    /// Nets whose wire delay changed via [`IncrementalSta::set_wire_delays`],
    /// pending the next update.
    pending_dirty_nets: BTreeSet<NetId>,
    stats: UpdateStats,
}

impl<'a> Sta<'a> {
    /// Run the baseline analysis and keep the annotation alive for
    /// incremental updates. Consumes the analyzer (the engine carries
    /// owned copies of its configuration so it outlives the netlist
    /// borrow); returns the engine together with the baseline report.
    /// A snapshot lent with [`Sta::with_compiled`] is cloned for the
    /// engine to patch; without one, the netlist is compiled once.
    ///
    /// # Errors
    ///
    /// Same as [`Sta::analyze`].
    pub fn into_incremental(self) -> Result<(IncrementalSta, TimingReport), StaError> {
        let (cn, ann) = self.annotate_snapshot()?;
        let report = self.report_from(&ann);
        let full = ann.evaluated();
        let mut inc = IncrementalSta {
            constraints: self.constraints.clone(),
            corner: self.corner,
            clock_latency_ns: self.clock_latency_ns.clone(),
            wire_delays_ns: self.wire_delays_ns.clone(),
            macro_timing: self.macro_timing.clone(),
            max_cone_fraction: 0.75,
            ann,
            cn,
            endpoint_req: Vec::new(),
            static_endpoint_req: Vec::new(),
            nontie_comb: 0,
            io_reference_ns: self.io_reference_ns(),
            clock_ports: self.clock_port_nets(),
            inst_mark: Vec::new(),
            net_mark: Vec::new(),
            epoch: 0,
            pending_dirty_nets: BTreeSet::new(),
            stats: UpdateStats {
                evaluated: full,
                full_evaluated: full,
                cone_fraction: 1.0,
                used_full: true,
                order_reordered: 0,
                fanout_patched: 0,
                endpoints_recomputed: 0,
                structures_rebuilt: true,
            },
        };
        inc.derive_structures(&self);
        Ok((inc, report))
    }

    /// Take an owned snapshot (see [`Sta::snapshot`]) and annotate it.
    fn annotate_snapshot(&self) -> Result<(CompiledNetlist, Annotation), StaError> {
        let cn = self.snapshot()?.into_owned();
        let flop_clock = self.flop_clock_map()?;
        let ann = self.annotate_with_compiled(&cn, flop_clock);
        Ok((cn, ann))
    }
}

impl IncrementalSta {
    /// Set the cone fraction above which an update falls back to a full
    /// re-annotation (default 0.75). `1.0` disables the fallback.
    pub fn with_max_cone_fraction(mut self, fraction: f64) -> Self {
        self.max_cone_fraction = fraction;
        self
    }

    /// The live annotation (current arrivals/required times).
    pub fn annotation(&self) -> &Annotation {
        &self.ann
    }

    /// The compiled snapshot of the netlist most recently timed (the
    /// baseline, or the last [`IncrementalSta::update`]). Lend it to
    /// [`Sta::with_compiled`] to time the same netlist again without
    /// compiling it.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.cn
    }

    /// Consume the engine, keeping only its snapshot (see
    /// [`IncrementalSta::compiled`]).
    pub fn into_compiled(self) -> CompiledNetlist {
        self.cn
    }

    /// Cost accounting for the most recent update (the baseline counts
    /// as a full evaluation).
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Replace the extracted wire delays (e.g. after re-routing new ECO
    /// nets). Nets whose delay changed are marked dirty and re-timed on
    /// the next [`IncrementalSta::update`]. The vector must cover every
    /// net of the netlist passed to that update.
    pub fn set_wire_delays(&mut self, delays_ns: Vec<f64>) {
        if let Some(old) = &self.wire_delays_ns {
            let common = old.len().min(delays_ns.len());
            for i in 0..common {
                if old[i] != delays_ns[i] {
                    self.pending_dirty_nets.insert(NetId(i as u32));
                }
            }
            // nets beyond either length are new — the delta covers them
        } else {
            // switching from estimated to extracted wires re-times everything
            for i in 0..delays_ns.len() {
                self.pending_dirty_nets.insert(NetId(i as u32));
            }
        }
        self.wire_delays_ns = Some(delays_ns);
    }

    /// Patch the annotation after netlist edits and return the timing
    /// report — bit-identical to `Sta::analyze` on the same netlist.
    ///
    /// `delta` is the touched-net/instance set from
    /// [`EcoSession::take_delta`](camsoc_netlist::eco::EcoSession::take_delta)
    /// (plus anything queued by [`IncrementalSta::set_wire_delays`]).
    /// The delta's connectivity journal first brings the compiled
    /// snapshot up to date. Arrivals are then recomputed over the
    /// forward fanout cone of the frontier, required times over the
    /// backward fanin cone; if the combined cone exceeds the configured
    /// fraction of the graph the engine runs a full re-annotation
    /// instead. A journal the snapshot refuses recompiles and
    /// re-annotates (see [`UpdateStats::structures_rebuilt`]).
    ///
    /// # Errors
    ///
    /// Same as [`Sta::analyze`] (the edit may have introduced a
    /// combinational cycle or an unclocked flop). After an error the
    /// engine's state is unspecified: build a new one with
    /// [`Sta::into_incremental`].
    ///
    /// # Panics
    ///
    /// Panics if extracted wire delays are in use and their length does
    /// not match the netlist — call
    /// [`IncrementalSta::set_wire_delays`] first when nets were added.
    pub fn update(
        &mut self,
        nl: &Netlist,
        tech: &Technology,
        delta: &EditDelta,
    ) -> Result<TimingReport, StaError> {
        if let Some(w) = &self.wire_delays_ns {
            assert_eq!(w.len(), nl.num_nets(), "wire delay vector length");
        }
        // Loan the owned configuration to a borrowed analyzer instead of
        // cloning it — per-update cost must not scale with the number of
        // ports or clock-tree leaves.
        let sta = Sta {
            nl,
            tech,
            compiled: None,
            constraints: std::mem::take(&mut self.constraints),
            corner: self.corner,
            wire_delays_ns: self.wire_delays_ns.take(),
            clock_latency_ns: std::mem::take(&mut self.clock_latency_ns),
            macro_timing: std::mem::take(&mut self.macro_timing),
        };
        let result = self.update_inner(&sta, delta);
        let Sta { constraints, wire_delays_ns, clock_latency_ns, macro_timing, .. } = sta;
        self.constraints = constraints;
        self.wire_delays_ns = wire_delays_ns;
        self.clock_latency_ns = clock_latency_ns;
        self.macro_timing = macro_timing;
        result
    }

    fn update_inner(&mut self, sta: &Sta<'_>, delta: &EditDelta) -> Result<TimingReport, StaError> {
        let nl = sta.nl;
        let n = nl.num_nets();

        // ---- Bring the snapshot up to date from the journal ----------
        let Some(patch) = self.cn.patch(nl, delta) else {
            // The journal does not explain the netlist and may have left
            // the snapshot half-patched: recompile and re-annotate.
            let (cn, ann) = sta.annotate_snapshot()?;
            let report = sta.report_from(&ann);
            self.cn = cn;
            self.ann = ann;
            self.derive_structures(sta);
            self.pending_dirty_nets.clear();
            self.stats = UpdateStats {
                evaluated: self.ann.evaluated,
                full_evaluated: self.ann.evaluated,
                cone_fraction: 1.0,
                used_full: true,
                order_reordered: self.ann.order.len(),
                fanout_patched: 0,
                endpoints_recomputed: n,
                structures_rebuilt: true,
            };
            return Ok(report);
        };
        if patch.levels_recomputed > 0 {
            self.ann.order.clear();
            self.ann.order.extend_from_slice(self.cn.topo_order());
        }

        // Grow per-net/per-instance state; new entries start untimed.
        self.ann.at_max.resize(n, NEG);
        self.ann.at_min.resize(n, POS);
        self.ann.req_max.resize(n, POS);
        self.ann.pred.resize(n, None);
        self.ann.start_label.resize(n, None);
        self.endpoint_req.resize(n, POS);
        self.static_endpoint_req.resize(n, POS);
        self.inst_mark.resize(nl.num_instances(), 0);
        self.net_mark.resize(n, 0);

        let mut endpoints_recomputed = 0usize;
        let mut dirty_gates: BTreeSet<InstanceId> = BTreeSet::new();
        let mut reseed_nets: BTreeSet<NetId> = BTreeSet::new();
        let mut bseeds: BTreeSet<NetId> = BTreeSet::new();

        // ---- Edit frontier -------------------------------------------
        // Pins that moved change the fanout (hence the load delay) of
        // the nets they left and joined.
        for e in &delta.edits {
            match *e {
                ConnectivityEdit::AddInstance { inst } => {
                    let f = self.cn.function(inst);
                    if !f.is_sequential() && !f.is_tie() {
                        self.nontie_comb += 1;
                    }
                }
                ConnectivityEdit::RewireInput { from, to, .. } => {
                    for net in [from, to] {
                        classify_net(&self.cn, net, &mut dirty_gates, &mut reseed_nets);
                        bseeds.insert(net);
                    }
                }
                ConnectivityEdit::Connect { net, .. } => {
                    classify_net(&self.cn, net, &mut dirty_gates, &mut reseed_nets);
                    bseeds.insert(net);
                }
                ConnectivityEdit::MoveOutput { .. } | ConnectivityEdit::AddNet { .. } => {}
            }
        }
        // Edited instances: combinational gates re-evaluate; sequential
        // outputs re-seed.
        for &id in &delta.instances {
            if self.cn.is_sequential(id) {
                reseed_nets.insert(self.cn.output(id));
            } else {
                dirty_gates.insert(id);
            }
        }
        // Edited nets and wire-delay changes: dirty the driver.
        for &net in delta.nets.iter().chain(self.pending_dirty_nets.iter()) {
            if net.index() >= n {
                continue; // defensive: stale id from a dropped edit
            }
            classify_net(&self.cn, net, &mut dirty_gates, &mut reseed_nets);
            bseeds.insert(net);
        }
        self.pending_dirty_nets.clear();

        // ---- Forward cone: gates whose arrival can move --------------
        let (mut fcone, fwd_evals) = self.collect_fcone(&dirty_gates, &reseed_nets);

        // ---- Clock retrace confined to the affected subtree ----------
        // A flop's capture period can only change if its clock pin
        // moved, or some net on its clock trace changed driver — and
        // every changed clock-tree gate is in the forward cone.
        let mut retrace: BTreeSet<InstanceId> = BTreeSet::new();
        for e in &delta.edits {
            match *e {
                ConnectivityEdit::AddInstance { inst } if self.cn.function(inst).is_flop() => {
                    retrace.insert(inst);
                }
                ConnectivityEdit::MoveOutput { from, to, .. } => {
                    self.clock_readers_into(from, &mut retrace);
                    self.clock_readers_into(to, &mut retrace);
                }
                _ => {}
            }
        }
        for &net in &delta.nets {
            if net.index() < n {
                self.clock_readers_into(net, &mut retrace);
            }
        }
        for &id in &fcone {
            self.clock_readers_into(self.cn.output(id), &mut retrace);
        }
        let mut period_changed: Vec<InstanceId> = Vec::new();
        if !retrace.is_empty() {
            if sta.constraints.clocks.is_empty() {
                return Err(StaError::NoClock);
            }
            let port_clock = sta.port_clock_map();
            for &f in &retrace {
                let inst = nl.instance(f);
                let clk_net =
                    inst.clock.ok_or_else(|| StaError::UnclockedFlop(inst.name.clone()))?;
                let clock = sta
                    .trace_clock_with(&port_clock, clk_net)
                    .ok_or_else(|| StaError::UnclockedFlop(inst.name.clone()))?;
                if self.ann.flop_clock.get(&f) != Some(&clock.period_ns) {
                    self.ann.flop_clock.insert(f, clock.period_ns);
                    period_changed.push(f);
                }
            }
        }

        // ---- Endpoint requirements: recompute dirtied nets only ------
        let mut ep_dirty: BTreeSet<NetId> = BTreeSet::new();
        for e in &delta.edits {
            match *e {
                ConnectivityEdit::RewireInput { inst, from, to, .. }
                    if self.cn.function(inst).is_flop() =>
                {
                    ep_dirty.insert(from);
                    ep_dirty.insert(to);
                }
                ConnectivityEdit::Connect { inst, pin, net }
                    if pin != usize::MAX && self.cn.function(inst).is_flop() =>
                {
                    ep_dirty.insert(net);
                }
                _ => {}
            }
        }
        for &f in &period_changed {
            ep_dirty.extend(self.cn.fanin(f).iter().map(|&raw| NetId(raw)));
        }
        for &net in &ep_dirty {
            endpoints_recomputed += 1;
            let req = sta.endpoint_required_for(
                &self.cn,
                net,
                self.static_endpoint_req[net.index()],
                &self.ann.flop_clock,
                self.ann.default_period,
            );
            if self.endpoint_req[net.index()] != req {
                self.endpoint_req[net.index()] = req;
                bseeds.insert(net);
            }
        }

        // A gate with a changed delay shifts the required time of its
        // input nets.
        for &id in &dirty_gates {
            bseeds.extend(self.cn.fanin(id).iter().map(|&raw| NetId(raw)));
        }
        bseeds.extend(reseed_nets.iter().copied());

        // ---- Backward cone: nets whose required time can move --------
        let bcone = self.collect_bcone(&bseeds);

        // ---- Fallback decision ---------------------------------------
        let full_evaluated = self.nontie_comb + n;
        let evaluated = fwd_evals + bcone.len();
        let cone_fraction = if full_evaluated > 0 {
            evaluated as f64 / full_evaluated as f64
        } else {
            0.0
        };
        let stats = UpdateStats {
            evaluated,
            full_evaluated,
            cone_fraction,
            used_full: false,
            order_reordered: patch.levels_recomputed,
            fanout_patched: patch.fanout_entries_patched,
            endpoints_recomputed,
            structures_rebuilt: false,
        };

        if cone_fraction > self.max_cone_fraction {
            // The snapshot is current; re-annotate over it.
            let flop_clock = sta.flop_clock_map()?;
            self.ann = sta.annotate_with_compiled(&self.cn, flop_clock);
            self.derive_structures(sta);
            self.stats = UpdateStats {
                evaluated: self.ann.evaluated,
                used_full: true,
                structures_rebuilt: true,
                ..stats
            };
            return Ok(sta.report_from(&self.ann));
        }

        // ---- Re-seed launch points -----------------------------------
        for &net in &reseed_nets {
            sta.seed_net(
                net,
                &self.clock_ports,
                self.io_reference_ns,
                &mut self.ann.at_max,
                &mut self.ann.at_min,
                &mut self.ann.pred,
                &mut self.ann.start_label,
            );
        }

        // ---- Forward: re-evaluate the fanout cone in level order -----
        fcone.sort_unstable_by_key(|&id| (self.cn.level(id), id));
        for &id in &fcone {
            sta.eval_forward_compiled(
                &self.cn,
                id,
                &mut self.ann.at_max,
                &mut self.ann.at_min,
                &mut self.ann.pred,
            );
        }

        // ---- Backward: re-evaluate the fanin cone against the level
        // order, mirroring the full pass (gate outputs in reverse topo
        // order, then source nets in index order). A reader's output
        // net always has a higher-levelled driver than the net it
        // reads, so descending `(level, id)` finalizes readers before
        // drivers. ----
        let mut gate_nets: Vec<((usize, InstanceId), NetId)> = Vec::new();
        let mut source_nets: Vec<NetId> = Vec::new();
        for &net in &bcone {
            match self.cn.driver_instance(net) {
                Some(d) if !self.cn.is_sequential(d) => {
                    gate_nets.push(((self.cn.level(d), d), net));
                }
                _ => source_nets.push(net),
            }
        }
        gate_nets.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        source_nets.sort_unstable();
        for net in gate_nets.iter().map(|&(_, net)| net).chain(source_nets) {
            let req =
                sta.eval_required_compiled(&self.cn, net, &self.endpoint_req, &self.ann.req_max);
            self.ann.req_max[net.index()] = req;
        }

        self.ann.evaluated = evaluated;
        self.stats = stats;
        Ok(sta.report_from(&self.ann))
    }

    /// Re-derive every structure that follows from the snapshot and
    /// the annotation: endpoint requirements, the non-tie count and the
    /// scratch marks.
    fn derive_structures(&mut self, sta: &Sta<'_>) {
        self.endpoint_req = sta.endpoint_required(&self.ann.flop_clock, self.ann.default_period);
        self.static_endpoint_req = sta.static_endpoint_required(self.ann.default_period);
        self.nontie_comb =
            self.cn.topo_order().iter().filter(|&&id| !self.cn.function(id).is_tie()).count();
        self.inst_mark.resize(self.cn.num_instances(), 0);
        self.net_mark.resize(self.cn.num_nets(), 0);
    }

    /// Invalidate all scratch marks in O(1) and return the fresh epoch.
    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.inst_mark.fill(0);
            self.net_mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Collect the forward fanout cone of the edit frontier: every
    /// combinational gate whose arrival can move. Returns the members
    /// and the non-tie count (the forward evaluation cost).
    fn collect_fcone(
        &mut self,
        dirty_gates: &BTreeSet<InstanceId>,
        reseed_nets: &BTreeSet<NetId>,
    ) -> (Vec<InstanceId>, usize) {
        let mark = self.bump_epoch();
        let cn = &self.cn;
        let inst_mark = &mut self.inst_mark;
        let mut members: Vec<InstanceId> = Vec::new();
        let mut nontie = 0usize;
        let mut visit = |id: InstanceId, stack: &mut Vec<InstanceId>| {
            if inst_mark[id.index()] != mark {
                inst_mark[id.index()] = mark;
                if !cn.function(id).is_tie() {
                    nontie += 1;
                }
                members.push(id);
                stack.push(id);
            }
        };
        // Clock pins are skipped (launch times don't follow data), and so
        // are flop D pins (their arrival doesn't move the Q launch).
        let data_readers = |net: NetId| {
            cn.fanout(net)
                .iter()
                .map(|&(reader, pin)| (InstanceId(reader), pin))
                .filter(|&(reader, pin)| pin != CLOCK_PIN && !cn.is_sequential(reader))
        };
        let mut stack: Vec<InstanceId> = Vec::new();
        for &id in dirty_gates {
            visit(id, &mut stack);
        }
        for &net in reseed_nets {
            for (reader, _) in data_readers(net) {
                visit(reader, &mut stack);
            }
        }
        while let Some(id) = stack.pop() {
            for (reader, _) in data_readers(cn.output(id)) {
                visit(reader, &mut stack);
            }
        }
        (members, nontie)
    }

    /// Collect the backward fanin cone of the seed nets: every net
    /// whose required time can move. Required times stop at launch
    /// points (sequential drivers).
    fn collect_bcone(&mut self, bseeds: &BTreeSet<NetId>) -> Vec<NetId> {
        let mark = self.bump_epoch();
        let mut members: Vec<NetId> = Vec::new();
        let mut stack: Vec<NetId> = Vec::new();
        for &net in bseeds {
            if self.net_mark[net.index()] != mark {
                self.net_mark[net.index()] = mark;
                members.push(net);
                stack.push(net);
            }
        }
        while let Some(net) = stack.pop() {
            let Some(id) = self.cn.driver_instance(net) else { continue };
            if self.cn.is_sequential(id) {
                continue;
            }
            for &raw in self.cn.fanin(id) {
                if self.net_mark[raw as usize] != mark {
                    self.net_mark[raw as usize] = mark;
                    members.push(NetId(raw));
                    stack.push(NetId(raw));
                }
            }
        }
        members
    }

    /// Flops reading `net` through their clock pin.
    fn clock_readers_into(&self, net: NetId, out: &mut BTreeSet<InstanceId>) {
        for &(reader, pin) in self.cn.fanout(net) {
            if pin == CLOCK_PIN && self.cn.function(InstanceId(reader)).is_flop() {
                out.insert(InstanceId(reader));
            }
        }
    }
}

/// Sort one edited net into the frontier: a combinational driver
/// re-evaluates; launch points (ports, flops, macros), latch outputs
/// and undriven nets re-seed.
fn classify_net(
    cn: &CompiledNetlist,
    net: NetId,
    dirty_gates: &mut BTreeSet<InstanceId>,
    reseed_nets: &mut BTreeSet<NetId>,
) {
    match cn.driver_instance(net) {
        Some(id) if !cn.is_sequential(id) => {
            dirty_gates.insert(id);
        }
        _ => {
            reseed_nets.insert(net);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::{CellFunction, Drive};
    use camsoc_netlist::eco::EcoSession;
    use camsoc_netlist::generate;
    use camsoc_netlist::graph::NetDriver;
    use camsoc_netlist::tech::TechnologyNode;

    fn tech() -> Technology {
        Technology::node(TechnologyNode::Tsmc250)
    }

    fn cons() -> Constraints {
        Constraints::single_clock("clk", 7.5)
    }

    /// Two independent flop-to-flop chains sharing a clock: an edit on
    /// one chain must not re-evaluate the other.
    fn two_chains(k: usize) -> Netlist {
        let mut b = NetlistBuilder::new("tc");
        let clk = b.input("clk");
        for c in 0..2 {
            let din = b.input(&format!("din{c}"));
            let mut net = b.dff(&format!("u_src{c}"), din, clk);
            for _ in 0..k {
                net = b.gate_auto(CellFunction::Inv, &[net]);
            }
            let q = b.dff(&format!("u_dst{c}"), net, clk);
            b.output(&format!("dout{c}"), q);
        }
        b.finish()
    }

    /// The incrementally maintained order must be a valid topological
    /// order over exactly the instances a fresh Kahn pass levelizes.
    fn assert_valid_topo(nl: &Netlist, order: &[InstanceId]) {
        let fresh = nl.combinational_topo_order().unwrap();
        assert_eq!(order.len(), fresh.len(), "incremental order length");
        let incr: BTreeSet<InstanceId> = order.iter().copied().collect();
        let kahn: BTreeSet<InstanceId> = fresh.iter().copied().collect();
        assert_eq!(incr.len(), order.len(), "incremental order has duplicates");
        assert_eq!(incr, kahn, "incremental order membership");
        let mut pos = vec![usize::MAX; nl.num_instances()];
        for (i, &id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for &id in order {
            for &inp in &nl.instance(id).inputs {
                if let Some(NetDriver::Instance(d)) = nl.net(inp).driver {
                    if pos[d.index()] != usize::MAX {
                        assert!(
                            pos[d.index()] < pos[id.index()],
                            "edge {d:?} -> {id:?} violates the incremental order"
                        );
                    }
                }
            }
        }
    }

    fn assert_matches_full(
        inc: &IncrementalSta,
        eco: &EcoSession,
        t: &Technology,
        report: &TimingReport,
    ) {
        let full = Sta::new(eco.netlist(), t, cons()).analyze().unwrap();
        assert_eq!(*report, full, "incremental report diverged from full analysis");
        // The maintained order may be any valid levelization (timing is
        // order-insensitive across valid orders) ...
        assert_valid_topo(eco.netlist(), inc.annotation().topo_order());
        // ... but every timing number must match bit for bit.
        let full_ann = Sta::new(eco.netlist(), t, cons()).annotate().unwrap();
        let mut patched = inc.annotation().clone();
        patched.evaluated = full_ann.evaluated;
        patched.order = full_ann.order.clone();
        assert_eq!(patched, full_ann, "incremental annotation diverged");
    }

    #[test]
    fn upsize_retimes_only_one_chain() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(20));
        let sta = Sta::new(eco.netlist(), &t, cons());
        let (mut inc, _) = sta.into_incremental().unwrap();

        let victim = inc.annotation().topo_order()[5];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);

        let s = *inc.stats();
        assert!(!s.used_full);
        assert!(
            s.evaluated < s.full_evaluated / 2,
            "one-chain edit re-timed {} of {} evals",
            s.evaluated,
            s.full_evaluated
        );
    }

    #[test]
    fn every_eco_kind_stays_bit_identical() {
        let t = tech();
        let nl = generate::fsm(32, 8, 8, 0xA5);
        let mut eco = EcoSession::new(nl);
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);

        // exercise every edit class the ECO session offers
        let g0 = inc.annotation().topo_order()[0];
        let g9 = inc.annotation().topo_order()[9];
        let gmid = inc.annotation().topo_order()[40];
        let some_net = eco.netlist().instance(gmid).output;

        eco.upsize(g0).unwrap();
        eco.upsize(g9).unwrap();
        eco.downsize(g9).unwrap(); // default drive may already be minimum
        eco.insert_buffer(some_net, Drive::X4).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(inc.stats().evaluated < inc.stats().full_evaluated);

        let g1 = inc.annotation().topo_order()[17];
        eco.insert_inverter(g1, 0).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
    }

    #[test]
    fn fallback_runs_full_reannotation() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(0.0);
        let victim = inc.annotation().topo_order()[0];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert!(inc.stats().used_full);
        assert!(inc.stats().structures_rebuilt);
        let full = Sta::new(eco.netlist(), &t, cons()).analyze().unwrap();
        assert_eq!(report, full);
    }

    #[test]
    fn pipeline_flop_insertion_is_tracked() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(12));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        // cut chain 0 in half with a pipeline flop (spec-change ECO)
        let mid_gate = inc.annotation().topo_order()[6];
        let cut = eco.netlist().instance(mid_gate).output;
        let clk = eco.netlist().find_net("clk").unwrap();
        eco.add_pipeline_flop(cut, clk).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(report.setup.wns_ns > 0.0);
        // the new flop's capture clock was traced incrementally
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn wire_delay_changes_are_dirty_tracked() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(8));
        let n = eco.netlist().num_nets();
        let wires = vec![0.01; n];
        let sta = Sta::new(eco.netlist(), &t, cons()).with_wire_delays(wires.clone());
        let (inc, _) = sta.into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);

        // slow one net down without any netlist edit
        let victim = eco.netlist().instance(inc.annotation().topo_order()[3]).output;
        let mut wires2 = wires;
        wires2[victim.index()] = 0.9;
        inc.set_wire_delays(wires2.clone());
        let report = inc.update(eco.netlist(), &t, &EditDelta::default()).unwrap();
        let full = Sta::new(eco.netlist(), &t, cons())
            .with_wire_delays(wires2)
            .analyze()
            .unwrap();
        assert_eq!(report, full);
        assert!(inc.stats().evaluated < inc.stats().full_evaluated);
        let _ = eco.take_delta();
    }

    #[test]
    fn empty_delta_is_nearly_free() {
        let t = tech();
        let eco = EcoSession::new(two_chains(10));
        let (inc, baseline) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        let report = inc.update(eco.netlist(), &t, &EditDelta::default()).unwrap();
        assert_eq!(report, baseline);
        assert_eq!(inc.stats().evaluated, 0);
        assert_eq!(inc.stats().order_reordered, 0);
        assert_eq!(inc.stats().fanout_patched, 0);
        assert_eq!(inc.stats().endpoints_recomputed, 0);
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn bookkeeping_counters_scale_with_cone() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(20));
        let (mut inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();

        // A resize changes no connectivity: zero bookkeeping.
        let victim = inc.annotation().topo_order()[5];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(!s.structures_rebuilt);
        assert_eq!(s.order_reordered, 0);
        assert_eq!(s.fanout_patched, 0);
        assert_eq!(s.endpoints_recomputed, 0);

        // A buffer insertion is an O(1) connectivity change: counters
        // stay far below netlist size.
        let some_net = eco.netlist().instance(inc.annotation().topo_order()[10]).output;
        eco.insert_buffer(some_net, Drive::X4).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        let nets = eco.netlist().num_nets();
        assert!(!s.structures_rebuilt);
        assert!(s.order_reordered >= 1 && s.order_reordered < nets / 2);
        assert!(s.fanout_patched >= 1 && s.fanout_patched < nets / 2);
        assert!(s.endpoints_recomputed < nets / 2);
    }

    #[test]
    fn empty_combinational_graph_has_finite_cone_fraction() {
        // A netlist with no gates and no nets: full_evaluated is zero
        // and the fraction must guard the division, not emit NaN.
        let t = tech();
        let nl = NetlistBuilder::new("empty").finish();
        let (mut inc, _) =
            Sta::new(&nl, &t, Constraints::default()).into_incremental().unwrap();
        let _ = inc.update(&nl, &t, &EditDelta::default()).unwrap();
        let s = *inc.stats();
        assert_eq!(s.full_evaluated, 0);
        assert_eq!(s.cone_fraction, 0.0);
        assert!(s.cone_fraction.is_finite());
    }

    #[test]
    fn unreplayable_journal_rebuilds_structures() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (mut inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();

        // A hand-built delta whose journal claims a rewire that never
        // happened: dims look explained, but the replay cannot find the
        // pin entry — the engine must detect it and rebuild.
        let g = inc.annotation().topo_order()[2];
        let from = eco.netlist().instance(g).output;
        let to = eco.netlist().instance(g).inputs[0];
        let mut delta = EditDelta::default();
        delta.instances.insert(g);
        delta.nets.insert(from);
        delta.edits.push(ConnectivityEdit::RewireInput { inst: g, pin: 7, from, to });
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        let full = Sta::new(eco.netlist(), &t, cons()).analyze().unwrap();
        assert_eq!(report, full);
        let s = *inc.stats();
        assert!(s.used_full && s.structures_rebuilt);

        // ... and keeps working incrementally afterwards.
        let victim = inc.annotation().topo_order()[4];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn journalless_delta_recompiles_then_resumes_patching() {
        // A delta whose journal was stripped (a foreign delta source
        // that only reports touched nets) does not explain the netlist
        // growth: the snapshot refuses it, and the engine recompiles
        // and re-annotates, bit-identically.
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        let net = eco.netlist().instance(inc.annotation().topo_order()[4]).output;
        eco.insert_buffer(net, Drive::X4).unwrap();
        let mut delta = eco.take_delta();
        delta.edits.clear();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(s.used_full && s.structures_rebuilt);
        assert_eq!(*inc.compiled(), eco.netlist().compile().unwrap());

        // ... and journal patching resumes on the next edit.
        let net = eco.netlist().instance(inc.annotation().topo_order()[12]).output;
        eco.insert_buffer(net, Drive::X4).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(!s.used_full && !s.structures_rebuilt);
        assert!(s.fanout_patched >= 1);
        assert_eq!(*inc.compiled(), eco.netlist().compile().unwrap());
    }

    #[test]
    fn two_buffers_on_one_net_patch_in_one_update() {
        // The hold-fix loop buffers a violating net twice before it
        // takes the delta. On a gate-driven net the second insertion
        // moves the first buffer's output onto a net the journal only
        // adds afterwards; the snapshot must still replay the journal.
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        let net = eco.netlist().instance(inc.annotation().topo_order()[6]).output;
        eco.insert_buffer(net, Drive::X1).unwrap();
        eco.insert_buffer(net, Drive::X1).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(!s.used_full && !s.structures_rebuilt);
        assert_eq!(*inc.compiled(), eco.netlist().compile().unwrap());
    }
}
