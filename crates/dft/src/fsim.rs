//! Parallel-pattern single-fault-propagation (PPSFP) fault simulation.
//!
//! Uses the full-scan combinational model: with every flop on a scan
//! chain, flop Q pins become pseudo-primary inputs and flop data pins
//! pseudo-primary outputs, so a test pattern is one assignment to the
//! source set and detection is any difference at a sink. Sixty-four
//! patterns ride in each `u64` lane; each fault is propagated only
//! through its fanout cone, in level order, against the good-circuit
//! values.
//!
//! Two propagation engines share the same event-driven semantics and
//! produce bit-identical detection lanes:
//!
//! * [`FsimMode::Uncached`] — the historical reference: a fresh
//!   `HashMap` overlay, `HashSet` queue-guard and `BinaryHeap` event
//!   queue are allocated per fault, and gates are read through the
//!   pointer-rich [`Netlist`] graph.
//! * [`FsimMode::Cached`] — the production path: a [`ConeIndex`] built
//!   once per circuit stores every net's fanout cone in level order
//!   (faults sharing a stem share the cone), and a reusable
//!   epoch-stamped [`FsimScratch`] replaces all per-fault containers, so
//!   steady-state fault simulation performs **zero heap allocation**.
//!   Walking the precomputed level-ordered cone and evaluating only
//!   stamped (event-reached) gates visits exactly the gates the heap
//!   would pop; two sound early exits (all excited lanes detected, no
//!   pending events left) make the cached path evaluate *fewer* gates.
//!   Gate reads go through the flat SoA/CSR arrays of a
//!   [`CompiledNetlist`] (cell table, CSR fanin, output array) instead
//!   of chasing `Instance` structs — cache lines carry only the fields
//!   the inner loop touches.
//!
//! [`FsimCounters`] / [`FsimStats`] record gate evaluations, early exits
//! and container allocations for both engines, mirroring the STA
//! engine's `UpdateStats`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use camsoc_netlist::cell::MAX_CELL_INPUTS;
use camsoc_netlist::compiled::CompiledNetlist;
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::NetlistError;
use camsoc_par::Parallelism;

use crate::faults::StuckAtFault;

/// Which propagation engine [`CombCircuit::detect_all_mode`] uses.
///
/// Both engines return bit-identical detection lanes for every fault,
/// pattern block and thread count; only wall-clock time and the
/// [`FsimStats`] counters differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsimMode {
    /// Shared cone index + reusable epoch-stamped scratch (the default).
    #[default]
    Cached,
    /// Per-fault `HashMap`/`HashSet`/`BinaryHeap` reference engine.
    Uncached,
}

/// Work counters for one or more fault-simulation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsimStats {
    /// Faults propagated (excited or not).
    pub faults_simulated: usize,
    /// Gate evaluations performed (including pin-fault seed evals).
    pub gate_evals: usize,
    /// Faults whose cached propagation stopped early because every
    /// excited lane was already detected (cached engine only).
    pub early_exits: usize,
    /// Heap containers allocated: three per fault for the uncached
    /// engine (overlay map, queue guard, event heap), three per
    /// [`FsimScratch`] for the cached engine — one scratch per worker,
    /// so steady-state cached simulation allocates nothing.
    pub allocations: usize,
}

impl FsimStats {
    /// Component-wise difference (`self` must dominate `earlier`).
    pub fn since(&self, earlier: &FsimStats) -> FsimStats {
        FsimStats {
            faults_simulated: self.faults_simulated - earlier.faults_simulated,
            gate_evals: self.gate_evals - earlier.gate_evals,
            early_exits: self.early_exits - earlier.early_exits,
            allocations: self.allocations - earlier.allocations,
        }
    }
}

/// Thread-safe accumulator for [`FsimStats`] across parallel workers.
///
/// Totals are sums of per-fault counts, so they are bit-identical for
/// every thread count (addition commutes); only `allocations` depends on
/// the worker count (one scratch per worker in cached mode).
#[derive(Debug, Default)]
pub struct FsimCounters {
    faults_simulated: AtomicUsize,
    gate_evals: AtomicUsize,
    early_exits: AtomicUsize,
    allocations: AtomicUsize,
}

impl FsimCounters {
    /// Fold one stats delta into the totals.
    pub fn add(&self, delta: FsimStats) {
        self.faults_simulated.fetch_add(delta.faults_simulated, Ordering::Relaxed);
        self.gate_evals.fetch_add(delta.gate_evals, Ordering::Relaxed);
        self.early_exits.fetch_add(delta.early_exits, Ordering::Relaxed);
        self.allocations.fetch_add(delta.allocations, Ordering::Relaxed);
    }

    /// Snapshot the totals.
    pub fn snapshot(&self) -> FsimStats {
        FsimStats {
            faults_simulated: self.faults_simulated.load(Ordering::Relaxed),
            gate_evals: self.gate_evals.load(Ordering::Relaxed),
            early_exits: self.early_exits.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
        }
    }
}

/// Per-net static fanout cones, CSR-packed in level order.
///
/// `cone(net)` lists every combinational gate transitively reachable
/// from `net`, sorted by `(logic level, instance id)` — the exact order
/// the reference engine's event heap pops gates, so a linear walk that
/// skips unstamped gates reproduces heap-driven propagation. One cone
/// serves the net's SA0/SA1 stem faults *and* every branch (input-pin)
/// fault on the net: a branch fault's propagation region is a subset of
/// its stem's cone, and unstamped gates cost a scan step, not an eval.
pub struct ConeIndex {
    /// Per-net start offset into `items` (`num_nets + 1` entries).
    start: Vec<usize>,
    /// Concatenated cone instance ids.
    items: Vec<u32>,
}

impl ConeIndex {
    fn build(cc: &CombCircuit<'_>) -> ConeIndex {
        let cn: &CompiledNetlist = &cc.compiled;
        let num_nets = cn.num_nets();
        let mut start = Vec::with_capacity(num_nets + 1);
        let mut items: Vec<u32> = Vec::new();
        let mut stamp = vec![0u32; cn.num_instances()];
        let mut stack: Vec<NetId> = Vec::new();
        for n in 0..num_nets {
            start.push(items.len());
            let epoch = n as u32 + 1;
            let begin = items.len();
            stack.push(NetId(n as u32));
            while let Some(net) = stack.pop() {
                for &g in &cc.comb_fanout[net.index()] {
                    if stamp[g.index()] != epoch {
                        stamp[g.index()] = epoch;
                        items.push(g.0);
                        stack.push(cn.output(g));
                    }
                }
            }
            items[begin..].sort_unstable_by_key(|&raw| (cc.level[raw as usize], raw));
        }
        start.push(items.len());
        ConeIndex { start, items }
    }

    /// The level-ordered fanout cone of `net`.
    pub fn cone(&self, net: NetId) -> &[u32] {
        &self.items[self.start[net.index()]..self.start[net.index() + 1]]
    }

    /// Total stored cone entries (memory diagnostics).
    pub fn total_entries(&self) -> usize {
        self.items.len()
    }
}

/// Reusable, allocation-free propagation scratch for the cached engine.
///
/// Holds a faulty-value overlay and epoch stamps for nets and gates; a
/// per-fault epoch bump invalidates the previous fault's state in O(1),
/// so simulating a fault touches no allocator. One scratch per
/// `camsoc_par` worker (see [`camsoc_par::map_with`]).
pub struct FsimScratch {
    /// Faulty net values, valid where `net_epoch` matches.
    value: Vec<u64>,
    /// Per-net epoch stamp: overlay entry valid for the current fault.
    net_epoch: Vec<u32>,
    /// Per-gate epoch stamp: gate has a pending event this fault.
    gate_epoch: Vec<u32>,
    /// Current fault's epoch.
    epoch: u32,
    /// Counters accumulated across all faults simulated with this
    /// scratch; read them via [`FsimScratch::stats`].
    stats: FsimStats,
}

impl FsimScratch {
    /// Allocate a scratch sized for `cc` (the only allocations the
    /// cached engine ever performs).
    pub fn for_circuit(cc: &CombCircuit<'_>) -> FsimScratch {
        FsimScratch {
            value: vec![0; cc.nl.num_nets()],
            net_epoch: vec![0; cc.nl.num_nets()],
            gate_epoch: vec![0; cc.nl.num_instances()],
            epoch: 0,
            stats: FsimStats { allocations: 3, ..FsimStats::default() },
        }
    }

    /// Counters accumulated by this scratch so far.
    pub fn stats(&self) -> FsimStats {
        self.stats
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            // one reset every 2^32 faults keeps stamps sound
            self.net_epoch.fill(0);
            self.gate_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The combinational full-scan view of a netlist, prepared for fast
/// repeated simulation.
pub struct CombCircuit<'a> {
    /// The netlist.
    pub nl: &'a Netlist,
    /// Flat SoA/CSR snapshot of `nl` the hot loops read instead of
    /// chasing `Instance` structs: the caller's
    /// ([`CombCircuit::with_compiled`]) or compiled by
    /// [`CombCircuit::new`].
    pub compiled: Cow<'a, CompiledNetlist>,
    /// Topological order of combinational instances (the compiled
    /// snapshot's `(level, id)`-sorted order — any valid topological
    /// order produces identical simulation values).
    pub order: Vec<InstanceId>,
    /// Source nets (PIs, flop Qs, macro outputs), deterministic order.
    pub sources: Vec<NetId>,
    /// Sink nets (POs, flop data pins, macro inputs), deduplicated.
    pub sinks: Vec<NetId>,
    /// Per-net: is it a sink?
    pub is_sink: Vec<bool>,
    /// Per-net: combinational gates reading it.
    pub comb_fanout: Vec<Vec<InstanceId>>,
    /// Per-instance logic level (1 + max level of comb fanin).
    pub level: Vec<usize>,
    /// Per-net: index into `sources` if the net is a source.
    pub source_index: HashMap<NetId, usize>,
    /// Lazily-built per-net fanout cone index (shared, thread-safe).
    cones: OnceLock<ConeIndex>,
}

impl<'a> CombCircuit<'a> {
    /// Prepare the circuit.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(Self::build(nl, Cow::Owned(nl.compile()?)))
    }

    /// Prepare the circuit over `compiled`, a current snapshot of `nl`
    /// the caller already holds, instead of compiling one.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's instance or net count differs from the
    /// netlist's.
    pub fn with_compiled(nl: &'a Netlist, compiled: &'a CompiledNetlist) -> Self {
        assert!(
            compiled.num_instances() == nl.num_instances() && compiled.num_nets() == nl.num_nets(),
            "compiled snapshot does not match the netlist"
        );
        Self::build(nl, Cow::Borrowed(compiled))
    }

    fn build(nl: &'a Netlist, compiled: Cow<'a, CompiledNetlist>) -> Self {
        // the snapshot supplies the topological order and the logic
        // levels plus the flat tables the simulation loops index
        let order = compiled.topo_order().to_vec();
        let level: Vec<usize> =
            (0..nl.num_instances()).map(|i| compiled.level(InstanceId(i as u32))).collect();
        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        let mut is_sink = vec![false; nl.num_nets()];
        for (_, p) in nl.input_ports() {
            sources.push(p.net);
        }
        for (id, inst) in nl.instances() {
            debug_assert!(
                inst.inputs.len() <= MAX_CELL_INPUTS,
                "instance {:?} has {} inputs; fixed eval buffers hold {MAX_CELL_INPUTS}",
                id,
                inst.inputs.len()
            );
            if inst.function().is_sequential() {
                sources.push(inst.output);
                for &n in &inst.inputs {
                    if !is_sink[n.index()] {
                        is_sink[n.index()] = true;
                        sinks.push(n);
                    }
                }
            }
        }
        for (_, m) in nl.macros() {
            for &n in &m.outputs {
                sources.push(n);
            }
            for &n in &m.inputs {
                if !is_sink[n.index()] {
                    is_sink[n.index()] = true;
                    sinks.push(n);
                }
            }
        }
        for (_, p) in nl.output_ports() {
            if !is_sink[p.net.index()] {
                is_sink[p.net.index()] = true;
                sinks.push(p.net);
            }
        }
        let mut comb_fanout = vec![Vec::new(); nl.num_nets()];
        for (id, inst) in nl.instances() {
            if inst.function().is_sequential() {
                continue;
            }
            for &n in &inst.inputs {
                comb_fanout[n.index()].push(id);
            }
        }
        let source_index = sources.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        CombCircuit {
            nl,
            compiled,
            order,
            sources,
            sinks,
            is_sink,
            comb_fanout,
            level,
            source_index,
            cones: OnceLock::new(),
        }
    }

    /// The shared cone index, built on first use (thread-safe).
    pub fn cones(&self) -> &ConeIndex {
        self.cones.get_or_init(|| ConeIndex::build(self))
    }

    /// Simulate the good circuit for one 64-pattern block.
    ///
    /// `assign[i]` carries the 64 values of source `i`. Returns values
    /// for every net.
    pub fn good_sim(&self, assign: &[u64]) -> Vec<u64> {
        debug_assert_eq!(assign.len(), self.sources.len());
        let cn: &CompiledNetlist = &self.compiled;
        let mut values = vec![0u64; cn.num_nets()];
        for (&net, &v) in self.sources.iter().zip(assign) {
            values[net.index()] = v;
        }
        for &id in &self.order {
            let fanin = cn.fanin(id);
            let mut ins = [0u64; MAX_CELL_INPUTS];
            for (k, &n) in fanin.iter().enumerate() {
                ins[k] = values[n as usize];
            }
            values[cn.output(id).index()] = cn.function(id).eval(&ins[..fanin.len()]);
        }
        values
    }

    /// Fault-simulate one fault against a good-value vector; returns the
    /// lanes (bitmask) in which the fault is detected at any sink.
    ///
    /// This is the uncached reference engine (fresh containers per
    /// fault). [`CombCircuit::detect_lanes_cached`] is bit-identical.
    pub fn detect_lanes(&self, fault: StuckAtFault, good: &[u64]) -> u64 {
        self.detect_lanes_counted(fault, good).0
    }

    /// Reference engine with an eval count, for cached-vs-uncached
    /// accounting. Returns `(detected lanes, gate evaluations)`.
    fn detect_lanes_counted(&self, fault: StuckAtFault, good: &[u64]) -> (u64, usize) {
        // Overlay of faulty values for nets that differ from good.
        let mut overlay: HashMap<NetId, u64> = HashMap::new();
        // Seed the frontier.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, u32)>> =
            std::collections::BinaryHeap::new();
        let mut queued: std::collections::HashSet<InstanceId> =
            std::collections::HashSet::new();
        let mut detected = 0u64;
        let mut evals = 0usize;

        let seed_net = |net: NetId,
                        value: u64,
                        overlay: &mut HashMap<NetId, u64>,
                        heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<(usize, u32)>>,
                        queued: &mut std::collections::HashSet<InstanceId>,
                        detected: &mut u64| {
            let diff = value ^ good[net.index()];
            if diff == 0 {
                return;
            }
            overlay.insert(net, value);
            if self.is_sink[net.index()] {
                *detected |= diff;
            }
            for &g in &self.comb_fanout[net.index()] {
                if queued.insert(g) {
                    heap.push(std::cmp::Reverse((self.level[g.index()], g.0)));
                }
            }
        };

        match fault {
            StuckAtFault::Net { net, stuck_one } => {
                let forced = if stuck_one { !0u64 } else { 0u64 };
                seed_net(net, forced, &mut overlay, &mut heap, &mut queued, &mut detected);
            }
            StuckAtFault::Pin { inst, pin, stuck_one } => {
                // Re-evaluate only this gate with the pin forced.
                let instance = self.nl.instance(inst);
                if instance.function().is_sequential() {
                    return (0, 0);
                }
                let forced = if stuck_one { !0u64 } else { 0u64 };
                let mut ins = [0u64; MAX_CELL_INPUTS];
                for (k, &n) in instance.inputs.iter().enumerate() {
                    ins[k] = good[n.index()];
                }
                ins[pin] = forced;
                evals += 1;
                let out = instance.function().eval(&ins[..instance.inputs.len()]);
                seed_net(
                    instance.output,
                    out,
                    &mut overlay,
                    &mut heap,
                    &mut queued,
                    &mut detected,
                );
            }
        }

        // Forward propagation in level order.
        while let Some(std::cmp::Reverse((_, raw))) = heap.pop() {
            let id = InstanceId(raw);
            let inst = self.nl.instance(id);
            // Do not re-evaluate the faulty gate's output for a net fault:
            // the fault forces the net regardless of gate inputs.
            if let StuckAtFault::Net { net, .. } = fault {
                if inst.output == net {
                    continue;
                }
            }
            let mut ins = [0u64; MAX_CELL_INPUTS];
            for (k, &n) in inst.inputs.iter().enumerate() {
                ins[k] = *overlay.get(&n).unwrap_or(&good[n.index()]);
            }
            evals += 1;
            let out = inst.function().eval(&ins[..inst.inputs.len()]);
            let prev = *overlay.get(&inst.output).unwrap_or(&good[inst.output.index()]);
            if out != prev {
                let diff = out ^ good[inst.output.index()];
                if diff != 0 {
                    overlay.insert(inst.output, out);
                } else {
                    overlay.remove(&inst.output);
                }
                if self.is_sink[inst.output.index()] {
                    detected |= diff;
                }
                for &g in &self.comb_fanout[inst.output.index()] {
                    if queued.insert(g) {
                        heap.push(std::cmp::Reverse((self.level[g.index()], g.0)));
                    }
                }
            }
        }
        (detected, evals)
    }

    /// Cached-engine fault simulation: walk the stem's precomputed cone
    /// in level order, evaluating only gates reached by an event.
    ///
    /// Bit-identical to [`CombCircuit::detect_lanes`] for every fault
    /// and pattern block: the cone order matches the reference heap's
    /// pop order, each gate is evaluated at most once after all its
    /// fanin writes (levelisation), and the two early exits are sound —
    /// a lane can only ever be detected if the fault is excited in it
    /// (`detected ⊆ excited`), so propagation past `detected == excited`
    /// cannot add lanes, and an empty event set cannot create one.
    pub fn detect_lanes_cached(
        &self,
        fault: StuckAtFault,
        good: &[u64],
        scratch: &mut FsimScratch,
    ) -> u64 {
        scratch.stats.faults_simulated += 1;
        let cn: &CompiledNetlist = &self.compiled;
        let epoch = scratch.next_epoch();
        let mut detected = 0u64;
        let mut pending = 0usize;

        // Seed: resolve the cone stem and the first faulty net value.
        let (stem, seed_net, seed_val) = match fault {
            StuckAtFault::Net { net, stuck_one } => {
                (net, net, if stuck_one { !0u64 } else { 0u64 })
            }
            StuckAtFault::Pin { inst, pin, stuck_one } => {
                if cn.is_sequential(inst) {
                    return 0;
                }
                let fanin = cn.fanin(inst);
                let forced = if stuck_one { !0u64 } else { 0u64 };
                let mut ins = [0u64; MAX_CELL_INPUTS];
                for (k, &n) in fanin.iter().enumerate() {
                    ins[k] = good[n as usize];
                }
                ins[pin] = forced;
                scratch.stats.gate_evals += 1;
                let out = cn.function(inst).eval(&ins[..fanin.len()]);
                // branch faults share their stem net's cone
                (NetId(fanin[pin]), cn.output(inst), out)
            }
        };
        let excited = seed_val ^ good[seed_net.index()];
        if excited == 0 {
            return 0;
        }
        scratch.value[seed_net.index()] = seed_val;
        scratch.net_epoch[seed_net.index()] = epoch;
        if self.is_sink[seed_net.index()] {
            detected |= excited;
        }
        for &g in &self.comb_fanout[seed_net.index()] {
            if scratch.gate_epoch[g.index()] != epoch {
                scratch.gate_epoch[g.index()] = epoch;
                pending += 1;
            }
        }
        if pending == 0 {
            return detected;
        }
        if detected == excited {
            scratch.stats.early_exits += 1;
            return detected;
        }

        for &raw in self.cones().cone(stem) {
            let gi = raw as usize;
            if scratch.gate_epoch[gi] != epoch {
                continue; // no event reached this cone gate
            }
            pending -= 1;
            let id = InstanceId(raw);
            let fanin = cn.fanin(id);
            let mut ins = [0u64; MAX_CELL_INPUTS];
            for (k, &n) in fanin.iter().enumerate() {
                let ni = n as usize;
                ins[k] = if scratch.net_epoch[ni] == epoch {
                    scratch.value[ni]
                } else {
                    good[ni]
                };
            }
            scratch.stats.gate_evals += 1;
            let out = cn.function(id).eval(&ins[..fanin.len()]);
            let oi = cn.output(id).index();
            // each net is written at most once per fault (its single
            // driver evaluates once), so prev is always the good value
            let diff = out ^ good[oi];
            if diff != 0 {
                scratch.value[oi] = out;
                scratch.net_epoch[oi] = epoch;
                if self.is_sink[oi] {
                    detected |= diff;
                    if detected == excited {
                        scratch.stats.early_exits += 1;
                        break;
                    }
                }
                for &g in &self.comb_fanout[oi] {
                    if scratch.gate_epoch[g.index()] != epoch {
                        scratch.gate_epoch[g.index()] = epoch;
                        pending += 1;
                    }
                }
            }
            if pending == 0 {
                break; // no events left anywhere ahead in the cone
            }
        }
        detected
    }

    /// Fault-simulate a whole fault universe against one good-value
    /// vector, partitioning the faults across threads.
    ///
    /// Uses the cached engine (the production default). Returns the
    /// detecting lanes per fault, in `faults` order. Each fault's cone
    /// propagation is independent of every other fault, so the result is
    /// bit-identical to a serial loop over [`CombCircuit::detect_lanes`]
    /// for any thread count and either [`FsimMode`].
    pub fn detect_all(
        &self,
        faults: &[StuckAtFault],
        good: &[u64],
        parallelism: Parallelism,
    ) -> Vec<u64> {
        self.detect_all_mode(faults, good, parallelism, FsimMode::Cached, &FsimCounters::default())
    }

    /// [`CombCircuit::detect_all`] with an explicit engine choice and a
    /// counter accumulator.
    pub fn detect_all_mode(
        &self,
        faults: &[StuckAtFault],
        good: &[u64],
        parallelism: Parallelism,
        mode: FsimMode,
        counters: &FsimCounters,
    ) -> Vec<u64> {
        match mode {
            FsimMode::Uncached => camsoc_par::map(parallelism, faults, |&f| {
                let (lanes, evals) = self.detect_lanes_counted(f, good);
                counters.add(FsimStats {
                    faults_simulated: 1,
                    gate_evals: evals,
                    early_exits: 0,
                    // overlay map + queue guard + event heap, per fault
                    allocations: 3,
                });
                lanes
            }),
            FsimMode::Cached => {
                // build the cone index before entering the worker pool
                let _ = self.cones();
                camsoc_par::map_with(
                    parallelism,
                    faults,
                    || {
                        let scratch = FsimScratch::for_circuit(self);
                        counters.add(scratch.stats());
                        scratch
                    },
                    |scratch, &f| {
                        let before = scratch.stats();
                        let lanes = self.detect_lanes_cached(f, good, scratch);
                        let mut delta = scratch.stats().since(&before);
                        delta.allocations = 0; // already counted at creation
                        counters.add(delta);
                        lanes
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::CellFunction;
    use camsoc_netlist::generate;

    #[test]
    fn good_sim_matches_truth_table() {
        let mut b = NetlistBuilder::new("g");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate_auto(CellFunction::Xor2, &[a, c]);
        b.output("y", y);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        assert_eq!(cc.sources.len(), 2);
        assert_eq!(cc.sinks.len(), 1);
        let vals = cc.good_sim(&[0b1100, 0b1010]);
        let ynet = nl.find_net(&nl.net(cc.sinks[0]).name).unwrap();
        assert_eq!(vals[ynet.index()] & 0xF, 0b0110);
    }

    #[test]
    fn sa_fault_on_inverter_detected_by_opposite_input() {
        let mut b = NetlistBuilder::new("i");
        let a = b.input("a");
        let y = b.gate_auto(CellFunction::Inv, &[a]);
        b.output("y", y);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        let ynet = cc.sinks[0];
        // patterns: lane0 a=0, lane1 a=1
        let good = cc.good_sim(&[0b10]);
        // y SA0: detected when good y == 1, i.e. a == 0 → lane 0
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: ynet, stuck_one: false }, &good);
        assert_eq!(lanes & 0b11, 0b01);
        // y SA1: detected in lane 1
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: ynet, stuck_one: true }, &good);
        assert_eq!(lanes & 0b11, 0b10);
    }

    #[test]
    fn fault_propagates_through_cone() {
        // a --inv--> n --and(b)--> y ; fault n SA1 visible when a=1, b=1
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let c = b.input("b");
        let n = b.gate_auto(CellFunction::Inv, &[a]);
        let y = b.gate_auto(CellFunction::And2, &[n, c]);
        b.output("y", y);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        let n_net = nl
            .instances()
            .find(|(_, i)| i.function() == CellFunction::Inv)
            .map(|(_, i)| i.output)
            .unwrap();
        // 4 lanes: (a,b) = 00,01,10,11
        let good = cc.good_sim(&[0b1100, 0b1010]);
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: n_net, stuck_one: true }, &good);
        // SA1 on n differs from good when a=1 (n good=0); visible at y only
        // when b=1 → lane 3 only
        assert_eq!(lanes & 0xF, 0b1000);
    }

    #[test]
    fn pin_fault_differs_from_stem_fault_on_branching_net() {
        // a feeds both AND gates; pin fault on one branch must not affect
        // the other.
        let mut b = NetlistBuilder::new("br");
        let a = b.input("a");
        let c = b.input("b");
        let y1 = b.gate(CellFunction::And2, camsoc_netlist::Drive::X1, "u_g1", &[a, c]);
        let y2 = b.gate(CellFunction::And2, camsoc_netlist::Drive::X1, "u_g2", &[a, c]);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        let good = cc.good_sim(&[0b1100, 0b1010]);
        let g1 = nl.find_instance("u_g1").unwrap();
        let a_net = nl.find_net("a").unwrap();
        // pin fault: only y1 affected → detected on lane a=1,b=1
        let pin_lanes =
            cc.detect_lanes(StuckAtFault::Pin { inst: g1, pin: 0, stuck_one: false }, &good);
        assert_eq!(pin_lanes & 0xF, 0b1000);
        // stem fault: both outputs affected, same detecting lanes here
        let stem_lanes =
            cc.detect_lanes(StuckAtFault::Net { net: a_net, stuck_one: false }, &good);
        assert_eq!(stem_lanes & 0xF, 0b1000);
    }

    #[test]
    fn flop_boundaries_are_sources_and_sinks() {
        let mut b = NetlistBuilder::new("s");
        let clk = b.input("clk");
        let d = b.input("d");
        let q = b.dff_auto(d, clk);
        let y = b.gate_auto(CellFunction::Inv, &[q]);
        let q2 = b.dff_auto(y, clk);
        b.output("z", q2);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        // sources: clk, d, q, q2 ; sinks: d(flop d-pin of first? no — d is
        // the first flop's D input), y (second flop's D), z(=q2 net is
        // also a source; z sink shares the q2 net)
        assert!(cc.sources.len() >= 4);
        assert!(cc.sinks.len() >= 2);
        // fault on y must be detectable at the second flop's D pin
        let y_net = nl
            .instances()
            .find(|(_, i)| i.function() == CellFunction::Inv)
            .map(|(_, i)| i.output)
            .unwrap();
        let good = cc.good_sim(&vec![0u64; cc.sources.len()]);
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: y_net, stuck_one: false }, &good);
        // q == 0 in all lanes → y good = 1 → SA0 detected everywhere
        assert_eq!(lanes, !0u64);
    }

    #[test]
    fn undetectable_redundant_fault_yields_zero_lanes() {
        // y = a OR (a AND b): the AND output SA0 is undetectable... not
        // quite (a=0,b=1 makes AND=0 anyway). Use tie: y = a AND tie1;
        // tie net SA1 is redundant.
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a");
        let one = b.tie(true);
        let y = b.gate_auto(CellFunction::And2, &[a, one]);
        b.output("y", y);
        let nl = b.finish();
        let cc = CombCircuit::new(&nl).unwrap();
        let tie_net = nl
            .instances()
            .find(|(_, i)| i.function() == CellFunction::Tie1)
            .map(|(_, i)| i.output)
            .unwrap();
        let good = cc.good_sim(&[0b10]);
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: tie_net, stuck_one: true }, &good);
        assert_eq!(lanes, 0);
        // but SA0 on the tie net is detectable when a=1
        let lanes = cc.detect_lanes(StuckAtFault::Net { net: tie_net, stuck_one: false }, &good);
        assert_eq!(lanes & 0b11, 0b10);
    }

    #[test]
    fn adder_fault_sim_smoke() {
        let nl = generate::ripple_adder(8).unwrap();
        let cc = CombCircuit::new(&nl).unwrap();
        let mut rng = camsoc_netlist::generate::SplitMix64::new(1);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);
        // most net SA faults should be detected by random patterns
        let fl = crate::faults::FaultList::generate(&nl);
        let detected = fl
            .faults
            .iter()
            .filter(|&&f| cc.detect_lanes(f, &good) != 0)
            .count();
        assert!(
            detected as f64 / fl.len() as f64 > 0.6,
            "random block detected {detected}/{}",
            fl.len()
        );
    }

    #[test]
    fn cone_index_is_level_ordered_and_complete() {
        let nl = generate::ripple_adder(6).unwrap();
        let cc = CombCircuit::new(&nl).unwrap();
        let cones = cc.cones();
        for n in 0..nl.num_nets() {
            let net = NetId(n as u32);
            let cone = cones.cone(net);
            // level-ordered, no duplicates
            for w in cone.windows(2) {
                assert!(
                    (cc.level[w[0] as usize], w[0]) < (cc.level[w[1] as usize], w[1]),
                    "cone of net {n} not strictly (level, id) ordered"
                );
            }
            // direct fanout is always in the cone
            for g in &cc.comb_fanout[net.index()] {
                assert!(cone.contains(&g.0), "direct fanout missing from cone");
            }
        }
        assert!(cones.total_entries() > 0);
    }

    #[test]
    fn cached_lanes_match_reference_on_every_fault() {
        for nl in [
            generate::ripple_adder(8).unwrap(),
            generate::fsm(6, 3, 3, 5),
        ] {
            let cc = CombCircuit::new(&nl).unwrap();
            let fl = crate::faults::FaultList::generate(&nl);
            let mut scratch = FsimScratch::for_circuit(&cc);
            let mut rng = camsoc_netlist::generate::SplitMix64::new(7);
            for _ in 0..3 {
                let assign: Vec<u64> =
                    (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
                let good = cc.good_sim(&assign);
                for &f in &fl.faults {
                    let reference = cc.detect_lanes(f, &good);
                    let cached = cc.detect_lanes_cached(f, &good, &mut scratch);
                    assert_eq!(cached, reference, "{}", f.describe(&nl));
                }
            }
        }
    }

    #[test]
    fn cached_engine_counts_fewer_or_equal_evals_and_no_allocs() {
        let nl = generate::ripple_adder(16).unwrap();
        let cc = CombCircuit::new(&nl).unwrap();
        let fl = crate::faults::FaultList::generate(&nl);
        let mut rng = camsoc_netlist::generate::SplitMix64::new(3);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);

        let uncached = FsimCounters::default();
        let a = cc.detect_all_mode(
            &fl.faults,
            &good,
            Parallelism::Serial,
            FsimMode::Uncached,
            &uncached,
        );
        let cached = FsimCounters::default();
        let b = cc.detect_all_mode(
            &fl.faults,
            &good,
            Parallelism::Serial,
            FsimMode::Cached,
            &cached,
        );
        assert_eq!(a, b);
        let (u, c) = (uncached.snapshot(), cached.snapshot());
        assert_eq!(u.faults_simulated, fl.len());
        assert_eq!(c.faults_simulated, fl.len());
        assert!(
            c.gate_evals < u.gate_evals,
            "cached {} evals vs uncached {}",
            c.gate_evals,
            u.gate_evals
        );
        assert!(c.early_exits > 0);
        // one scratch (3 vectors) total vs 3 containers per fault
        assert_eq!(c.allocations, 3);
        assert_eq!(u.allocations, 3 * fl.len());
    }

    #[test]
    fn detect_all_is_mode_and_thread_invariant() {
        let nl = generate::fsm(8, 4, 4, 11);
        let cc = CombCircuit::new(&nl).unwrap();
        let fl = crate::faults::FaultList::generate(&nl);
        let mut rng = camsoc_netlist::generate::SplitMix64::new(21);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);
        let reference = cc.detect_all_mode(
            &fl.faults,
            &good,
            Parallelism::Serial,
            FsimMode::Uncached,
            &FsimCounters::default(),
        );
        for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            for mode in [FsimMode::Cached, FsimMode::Uncached] {
                let got =
                    cc.detect_all_mode(&fl.faults, &good, par, mode, &FsimCounters::default());
                assert_eq!(got, reference, "{par:?} {mode:?}");
            }
        }
    }
}
