//! Combinational equivalence checking.
//!
//! The paper's sign-off flow runs formal verification after physical
//! synthesis and after every ECO. This module reproduces that check for
//! our netlist IR with the classic structure:
//!
//! 1. **Interface matching** — sequential elements cut the design into a
//!    combinational core; inputs are primary inputs, flop Q pins and
//!    macro outputs, outputs are primary outputs, flop data pins and
//!    macro inputs, matched by name between the two netlists.
//! 2. **Random simulation** — 64-bit parallel random vectors look for a
//!    cheap counterexample first.
//! 3. **Exact cone check** — each output cone with bounded support is
//!    proven equivalent with a small BDD package (shared manager, same
//!    variable order); cones whose support exceeds the cap keep the
//!    random-simulation verdict.
//!
//! # The exact phase's proof scratch
//!
//! Each `camsoc-par` worker proves its sinks with one private
//! `ProofScratch`, made by `camsoc_par::map_with` and dropped when the
//! check returns. It holds epoch-stamped per-net slots (the support
//! walks' visited set, then the cone builds' net → node memo), the walk
//! and build stacks, and one [`Bdd`] manager that is reset between
//! cones. Cones are built on the [`CompiledNetlist`] the [`CombModel`]
//! holds — CSR fanin rows in pin order, the function table and the dense
//! net → source table — by an iterative walk, so a deep cone costs heap,
//! not stack. The manager's tables hash node handles with a small
//! multiply-rotate hasher.
//!
//! None of this can change a report. A reset manager is a fresh one
//! (node ids restart after the terminals, both tables empty, the ITE
//! cache lossless), and the build makes the `mk` calls of the recursive
//! definition in the same order: fanins depth-first in pin order, each
//! gate once its last fanin is built. So every cone gets the same node
//! ids, node count and overflow point as with a new manager per sink,
//! and every [`EquivReport`] stays bit-identical at any thread count: a
//! scratch carries capacity from cone to cone, never values.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use camsoc_par::Parallelism;

use crate::cell::{CellFunction, MAX_CELL_INPUTS};
use crate::compiled::CompiledNetlist;
use crate::error::NetlistError;
use crate::generate::SplitMix64;
use crate::graph::{InstanceId, NetDriver, NetId, Netlist};

/// A combinational source point (pseudo-primary input).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceKey {
    /// Primary input port, by name.
    Port(String),
    /// Flip-flop or latch output, by instance name.
    StateQ(String),
    /// Memory macro output pin, by macro name and pin index.
    MacroOut(String, usize),
}

/// A combinational sink point (pseudo-primary output).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SinkKey {
    /// Primary output port, by name.
    Port(String),
    /// Flip-flop or latch data-side input pin, by instance name and pin.
    StateD(String, usize),
    /// Memory macro input pin, by macro name and pin index.
    MacroIn(String, usize),
}

/// Which data structure the random simulation and the support walks of
/// an equivalence check walk; the BDD cone build always reads the
/// compiled snapshot. Both engines are bit-identical by construction;
/// the graph engine is kept as the pointer-chasing reference the
/// compiled engine is validated against (and benchmarked against in
/// `perf_report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivEngine {
    /// Walk the [`CompiledNetlist`] SoA/CSR snapshot (default).
    #[default]
    Compiled,
    /// Walk the [`Netlist`] graph directly.
    Graph,
}

/// The combinational view of a netlist: sources, sinks and a compiled
/// SoA snapshot (whose `(level, id)` order is the evaluation order),
/// ready for bit-parallel simulation.
#[derive(Debug)]
pub struct CombModel<'a> {
    nl: &'a Netlist,
    /// The caller's snapshot ([`CombModel::with_compiled`]) or one
    /// compiled by [`CombModel::new`].
    compiled: Cow<'a, CompiledNetlist>,
    /// Dense net → source-variable index (`u32::MAX` = not a source),
    /// in [`CombModel::sources`] iteration order.
    source_of_net: Vec<u32>,
    /// source key → net
    pub sources: BTreeMap<SourceKey, NetId>,
    /// sink key → net
    pub sinks: BTreeMap<SinkKey, NetId>,
}

impl<'a> CombModel<'a> {
    /// Build the combinational view.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(Self::build(nl, Cow::Owned(nl.compile()?)))
    }

    /// Build the combinational view over `compiled`, a current snapshot
    /// of `nl` the caller already holds, instead of compiling one.
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
        let mut sources = BTreeMap::new();
        let mut sinks = BTreeMap::new();
        for (_, port) in nl.input_ports() {
            sources.insert(SourceKey::Port(port.name.clone()), port.net);
        }
        for (_, port) in nl.output_ports() {
            sinks.insert(SinkKey::Port(port.name.clone()), port.net);
        }
        for (_, inst) in nl.instances() {
            if inst.function().is_sequential() {
                sources.insert(SourceKey::StateQ(inst.name.clone()), inst.output);
                for (pin, &net) in inst.inputs.iter().enumerate() {
                    sinks.insert(SinkKey::StateD(inst.name.clone(), pin), net);
                }
            }
        }
        for (_, m) in nl.macros() {
            for (pin, &net) in m.outputs.iter().enumerate() {
                sources.insert(SourceKey::MacroOut(m.name.clone(), pin), net);
            }
            for (pin, &net) in m.inputs.iter().enumerate() {
                sinks.insert(SinkKey::MacroIn(m.name.clone(), pin), net);
            }
        }
        let mut source_of_net = vec![u32::MAX; nl.num_nets()];
        for (i, &net) in sources.values().enumerate() {
            source_of_net[net.index()] = i as u32;
        }
        CombModel { nl, compiled, source_of_net, sources, sinks }
    }

    /// Evaluate the combinational core bit-parallel, walking the
    /// compiled SoA snapshot's flat arrays.
    ///
    /// `assign` gives a 64-lane value per source (in the iteration order
    /// of [`CombModel::sources`]). Returns one value per net; unassigned,
    /// undriven nets evaluate to 0. Bit-identical to
    /// [`CombModel::eval_graph`].
    pub fn eval(&self, assign: &[u64]) -> Vec<u64> {
        debug_assert_eq!(assign.len(), self.sources.len());
        let cn: &CompiledNetlist = &self.compiled;
        let mut values = vec![0u64; cn.num_nets()];
        for (value, (_, &net)) in assign.iter().zip(self.sources.iter()) {
            values[net.index()] = *value;
        }
        for &id in cn.topo_order() {
            let f = cn.function(id);
            let out = match f {
                CellFunction::Tie0 => 0,
                CellFunction::Tie1 => !0u64,
                _ => {
                    let fanin = cn.fanin(id);
                    let mut ins = [0u64; MAX_CELL_INPUTS];
                    for (k, &n) in fanin.iter().enumerate() {
                        ins[k] = values[n as usize];
                    }
                    f.eval(&ins[..fanin.len()])
                }
            };
            values[cn.output(id).index()] = out;
        }
        values
    }

    /// The graph-walking reference evaluator: same contract and results
    /// as [`CombModel::eval`], reading `Instance`/`Net` structs through
    /// pointers instead of the compiled arrays. Kept as the engine the
    /// compiled path is validated and benchmarked against.
    pub fn eval_graph(&self, assign: &[u64]) -> Vec<u64> {
        debug_assert_eq!(assign.len(), self.sources.len());
        let mut values = vec![0u64; self.nl.num_nets()];
        for (value, (_, &net)) in assign.iter().zip(self.sources.iter()) {
            values[net.index()] = *value;
        }
        for &id in self.compiled.topo_order() {
            let inst = self.nl.instance(id);
            let f = inst.function();
            let out = match f {
                CellFunction::Tie0 => 0,
                CellFunction::Tie1 => !0u64,
                _ => {
                    let mut ins = [0u64; MAX_CELL_INPUTS];
                    for (k, &n) in inst.inputs.iter().enumerate() {
                        ins[k] = values[n.index()];
                    }
                    f.eval(&ins[..inst.inputs.len()])
                }
            };
            values[inst.output.index()] = out;
        }
        values
    }

    /// Dispatch [`CombModel::eval`] / [`CombModel::eval_graph`] on an
    /// [`EquivEngine`] selector.
    pub fn eval_with(&self, engine: EquivEngine, assign: &[u64]) -> Vec<u64> {
        match engine {
            EquivEngine::Compiled => self.eval(assign),
            EquivEngine::Graph => self.eval_graph(assign),
        }
    }

    /// Sink values extracted from a full net-value vector, in
    /// [`CombModel::sinks`] iteration order.
    pub fn sink_values(&self, values: &[u64]) -> Vec<u64> {
        self.sinks.values().map(|&n| values[n.index()]).collect()
    }

    /// Transitive-fanin support (as sorted source indices) of a sink
    /// net, walking the compiled CSR fanin rows with a dense visited
    /// array and the precomputed net→source table — no hashing in the
    /// loop. Bit-identical to [`CombModel::cone_support_graph`].
    pub fn cone_support(&self, sink_net: NetId) -> Vec<usize> {
        let mut support = Vec::new();
        self.support_into(
            sink_net,
            &mut NetSlots::default(),
            &mut Vec::new(),
            &mut support,
            usize::MAX,
        );
        support.sort_unstable();
        support
    }

    /// Append the support of `sink_net` (source indices, unsorted) to
    /// `out`, marking visited nets in `slots` and walking with `stack`.
    /// Returns `false`, leaving the walk unfinished, as soon as it finds
    /// more than `cap` sources: such a cone never enters the exact phase.
    fn support_into(
        &self,
        sink_net: NetId,
        slots: &mut NetSlots,
        stack: &mut Vec<u32>,
        out: &mut Vec<usize>,
        cap: usize,
    ) -> bool {
        let cn: &CompiledNetlist = &self.compiled;
        slots.begin(cn.num_nets());
        let start = out.len();
        stack.clear();
        stack.push(sink_net.0);
        while let Some(net) = stack.pop() {
            let i = net as usize;
            if slots.get(i).is_some() {
                continue;
            }
            slots.set(i, 0);
            let si = self.source_of_net[i];
            if si != u32::MAX {
                out.push(si as usize);
                if out.len() - start > cap {
                    return false;
                }
                continue;
            }
            // ports/macros are sources; undriven → constant 0; a
            // sequential driver's Q is a source, handled above
            if let Some(id) = cn.driver_instance(NetId(net)) {
                if !cn.is_sequential(id) {
                    stack.extend_from_slice(cn.fanin(id));
                }
            }
        }
        true
    }

    /// The graph-walking reference for [`CombModel::cone_support`]:
    /// per-call hash maps and a DFS through `Net`/`Instance` structs.
    /// Same sorted result.
    pub fn cone_support_graph(&self, sink_net: NetId) -> Vec<usize> {
        let source_index: HashMap<NetId, usize> =
            self.sources.values().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut support = HashSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![sink_net];
        while let Some(net) = stack.pop() {
            if !seen.insert(net) {
                continue;
            }
            if let Some(&si) = source_index.get(&net) {
                support.insert(si);
                continue;
            }
            // ports/macros are sources; undriven → constant 0
            if let Some(NetDriver::Instance(id)) = self.nl.net(net).driver {
                let inst = self.nl.instance(id);
                if inst.function().is_sequential() {
                    // its Q is a source; handled above via source_index
                    continue;
                }
                for &i in &inst.inputs {
                    stack.push(i);
                }
            }
        }
        let mut v: Vec<usize> = support.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// Epoch-stamped per-net slots, holding one traversal at a time: a
/// support walk's visited set or a cone build's net → node memo. Sized
/// to the largest model seen and reused across traversals; `begin`
/// forgets every slot in O(1) by advancing the epoch, and zeroes the
/// array only when the epoch wraps.
#[derive(Debug, Default)]
struct NetSlots {
    slot: Vec<(u32, BddRef)>,
    epoch: u32,
}

impl NetSlots {
    fn begin(&mut self, nets: usize) {
        if self.slot.len() < nets {
            self.slot.resize(nets, (0, 0));
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.slot.fill((0, 0));
                1
            }
        };
    }

    fn get(&self, net: usize) -> Option<BddRef> {
        let (stamp, node) = self.slot[net];
        (stamp == self.epoch).then_some(node)
    }

    fn set(&mut self, net: usize, node: BddRef) {
        self.slot[net] = (self.epoch, node);
    }
}

// ---------------------------------------------------------------------
// BDD package
// ---------------------------------------------------------------------

/// Terminal and node handles into a [`Bdd`] manager. 0 = FALSE, 1 = TRUE.
pub type BddRef = u32;

/// Error from BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow;

impl std::fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bdd node limit exceeded")
    }
}
impl std::error::Error for BddOverflow {}

/// Multiply-rotate hasher for the [`Bdd`] tables. Their keys are node
/// handles and variable indices the manager hands out itself, never
/// outside input, so SipHash's flooding resistance buys nothing there.
#[derive(Default)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // a product mixes only upward: rotate its well-mixed high bits
        // into the low bits the table indexes buckets by
        self.0.rotate_left(26)
    }
}

type HandleMap<K> = HashMap<K, BddRef, BuildHasherDefault<HandleHasher>>;

/// Table capacity a reset may keep whatever the last proof used.
/// Regrowing from empty for every proof rehashes each entry several
/// times, which costs more than the proofs' own lookups; clearing a
/// table this size costs microseconds.
const KEPT_CAPACITY: usize = 1 << 14;

/// Empty `table` in O(last proof + [`KEPT_CAPACITY`]), not O(largest
/// table ever). `clear` costs O(capacity), and the ITE cache is not
/// bounded by the node limit: a table one large proof grew would tax
/// every later proof, with the clear and with entries scattered over a
/// cache-cold table, so it is re-created at the size last used.
fn reset_table<K>(table: &mut HandleMap<K>) {
    if table.capacity() > (4 * table.len()).max(KEPT_CAPACITY) {
        let size = table.len().max(KEPT_CAPACITY);
        *table = HandleMap::with_capacity_and_hasher(size, Default::default());
    } else {
        table.clear();
    }
}

/// A small reduced-ordered-BDD manager with hash-consing and an ITE
/// cache, capped at a node limit so pathological cones degrade to the
/// random-simulation verdict instead of exploding.
#[derive(Debug)]
pub struct Bdd {
    // nodes[i] = (var, lo, hi); nodes 0/1 are terminals (var = u32::MAX)
    nodes: Vec<(u32, BddRef, BddRef)>,
    unique: HandleMap<(u32, BddRef, BddRef)>,
    ite_cache: HandleMap<(BddRef, BddRef, BddRef)>,
    limit: usize,
}

impl Bdd {
    /// FALSE terminal.
    pub const ZERO: BddRef = 0;
    /// TRUE terminal.
    pub const ONE: BddRef = 1;

    /// Create a manager with the given node limit.
    pub fn new(limit: usize) -> Self {
        Bdd {
            nodes: vec![(u32::MAX, 0, 0), (u32::MAX, 1, 1)],
            unique: HandleMap::default(),
            ite_cache: HandleMap::default(),
            limit,
        }
    }

    /// Empty the manager for the next proof, keeping its limit. Both
    /// tables come back empty and node ids restart after the terminals,
    /// so the next proof makes exactly the nodes a fresh manager would.
    pub(crate) fn reset(&mut self) {
        self.nodes.truncate(2);
        reset_table(&mut self.unique);
        reset_table(&mut self.ite_cache);
    }

    /// Number of live nodes (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f as usize].0
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            return Ok(n);
        }
        if self.nodes.len() >= self.limit {
            return Err(BddOverflow);
        }
        let id = self.nodes.len() as BddRef;
        self.nodes.push((var, lo, hi));
        self.unique.insert((var, lo, hi), id);
        Ok(id)
    }

    /// The function of a single variable.
    pub fn var(&mut self, v: u32) -> Result<BddRef, BddOverflow> {
        self.mk(v, Bdd::ZERO, Bdd::ONE)
    }

    fn cofactor(&self, f: BddRef, v: u32, phase: bool) -> BddRef {
        let (var, lo, hi) = self.nodes[f as usize];
        if var == v {
            if phase {
                hi
            } else {
                lo
            }
        } else {
            f
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g + !f·h`. The workhorse.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddOverflow> {
        // terminal cases
        if f == Bdd::ONE {
            return Ok(g);
        }
        if f == Bdd::ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == Bdd::ONE && h == Bdd::ZERO {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        // top variable among the three
        let mut top = self.var_of(f);
        for x in [g, h] {
            let v = self.var_of(x);
            if v < top {
                top = v;
            }
        }
        let f0 = self.cofactor(f, top, false);
        let f1 = self.cofactor(f, top, true);
        let g0 = self.cofactor(g, top, false);
        let g1 = self.cofactor(g, top, true);
        let h0 = self.cofactor(h, top, false);
        let h1 = self.cofactor(h, top, true);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, Bdd::ZERO, Bdd::ONE)
    }
    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, g, Bdd::ZERO)
    }
    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, Bdd::ONE, g)
    }
    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Evaluate a cell function over BDD operands.
    pub fn eval_function(
        &mut self,
        f: CellFunction,
        ins: &[BddRef],
    ) -> Result<BddRef, BddOverflow> {
        Ok(match f {
            CellFunction::Buf => ins[0],
            CellFunction::Inv => self.not(ins[0])?,
            CellFunction::And2 => self.and(ins[0], ins[1])?,
            CellFunction::And3 => {
                let t = self.and(ins[0], ins[1])?;
                self.and(t, ins[2])?
            }
            CellFunction::Nand2 => {
                let t = self.and(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Nand3 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Nand4 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                let t = self.and(t, ins[3])?;
                self.not(t)?
            }
            CellFunction::Or2 => self.or(ins[0], ins[1])?,
            CellFunction::Or3 => {
                let t = self.or(ins[0], ins[1])?;
                self.or(t, ins[2])?
            }
            CellFunction::Nor2 => {
                let t = self.or(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Nor3 => {
                let t = self.or(ins[0], ins[1])?;
                let t = self.or(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Xor2 => self.xor(ins[0], ins[1])?,
            CellFunction::Xnor2 => {
                let t = self.xor(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Mux2 => self.ite(ins[2], ins[1], ins[0])?,
            CellFunction::Aoi21 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.or(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Oai21 => {
                let t = self.or(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Maj3 => {
                let ab = self.and(ins[0], ins[1])?;
                let bc = self.and(ins[1], ins[2])?;
                let ac = self.and(ins[0], ins[2])?;
                let t = self.or(ab, bc)?;
                self.or(t, ac)?
            }
            CellFunction::Tie0 => Bdd::ZERO,
            CellFunction::Tie1 => Bdd::ONE,
            CellFunction::Dff
            | CellFunction::Dffr
            | CellFunction::Sdff
            | CellFunction::Sdffr
            | CellFunction::Latch => ins[0],
        })
    }
}

// ---------------------------------------------------------------------
// Equivalence checking
// ---------------------------------------------------------------------

/// Options for [`check_equivalence`].
#[derive(Debug, Clone, PartialEq)]
pub struct EquivOptions {
    /// Rounds of 64-lane random vectors in the simulation phase.
    pub random_rounds: usize,
    /// Maximum cone support for the exact BDD phase; larger cones keep
    /// the random verdict.
    pub max_support: usize,
    /// BDD node limit per manager.
    pub bdd_node_limit: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Thread budget: random-vector rounds and per-sink cone proofs are
    /// partitioned across threads. The verdict, counter-example sink and
    /// all report counters are bit-identical to `Serial` (the first
    /// mismatch in round/sink order always wins).
    pub parallelism: Parallelism,
    /// Traversal engine for random simulation and support walks (the
    /// BDD cone build always reads the compiled snapshot). Both produce
    /// bit-identical reports; `Graph` exists as the reference to
    /// validate/benchmark `Compiled` against.
    pub engine: EquivEngine,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            random_rounds: 32,
            max_support: 24,
            bdd_node_limit: 200_000,
            seed: 0xEC0,
            parallelism: Parallelism::Serial,
            engine: EquivEngine::Compiled,
        }
    }
}

impl EquivOptions {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the options unchanged (bit-identical results); each
    /// level adds 16 random-vector rounds, admits cones with 4 more
    /// support variables into the exact BDD phase, and doubles the BDD
    /// node budget. The escalated options are a pure function of
    /// `(self, level)`.
    pub fn escalated(&self, level: u32) -> EquivOptions {
        if level == 0 {
            return self.clone();
        }
        EquivOptions {
            random_rounds: self.random_rounds + 16 * level as usize,
            max_support: self.max_support + 4 * level as usize,
            bdd_node_limit: self.bdd_node_limit.saturating_mul(1usize << level.min(16)),
            ..self.clone()
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivVerdict {
    /// All compared cones proven equivalent exactly.
    Equivalent,
    /// No counterexample found; `unproven_cones` were too large for the
    /// exact phase and hold only to random-vector confidence.
    ProbablyEquivalent {
        /// Number of cones that exceeded the support/node caps.
        unproven_cones: usize,
    },
    /// A differing sink was found.
    NotEquivalent {
        /// The sink point that differs.
        sink: SinkKey,
    },
    /// The two netlists do not expose the same interface.
    InterfaceMismatch {
        /// Description of the first mismatch found.
        detail: String,
    },
}

/// Full report from [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// The verdict.
    pub verdict: EquivVerdict,
    /// Sinks compared.
    pub sinks_compared: usize,
    /// Cones proven exactly by the BDD phase.
    pub cones_proven: usize,
    /// Random vector lanes applied.
    pub vectors_applied: usize,
}

impl EquivReport {
    /// Convenience: true when the verdict is `Equivalent` or
    /// `ProbablyEquivalent`.
    pub fn passed(&self) -> bool {
        matches!(
            self.verdict,
            EquivVerdict::Equivalent | EquivVerdict::ProbablyEquivalent { .. }
        )
    }
}

/// Check combinational equivalence of two netlists: [`check_models`]
/// over a fresh compile of each.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalCycle`] from either netlist.
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    options: &EquivOptions,
) -> Result<EquivReport, NetlistError> {
    Ok(check_models(&CombModel::new(a)?, &CombModel::new(b)?, options))
}

/// Check combinational equivalence of two prepared models, such as ones
/// built with [`CombModel::with_compiled`] over snapshots the caller
/// already holds.
///
/// Interfaces (ports, state elements, macros) are matched by name; see
/// the module docs for the method.
pub fn check_models(ma: &CombModel<'_>, mb: &CombModel<'_>, options: &EquivOptions) -> EquivReport {
    // Interface match: sources must be identical; sinks must be identical.
    if ma.sources.keys().ne(mb.sources.keys()) {
        let only_a: Vec<_> = ma.sources.keys().filter(|k| !mb.sources.contains_key(*k)).collect();
        let only_b: Vec<_> = mb.sources.keys().filter(|k| !ma.sources.contains_key(*k)).collect();
        return EquivReport {
            verdict: EquivVerdict::InterfaceMismatch {
                detail: format!("source sets differ (a-only {only_a:?}, b-only {only_b:?})"),
            },
            sinks_compared: 0,
            cones_proven: 0,
            vectors_applied: 0,
        };
    }
    if ma.sinks.keys().ne(mb.sinks.keys()) {
        let only_a: Vec<_> = ma.sinks.keys().filter(|k| !mb.sinks.contains_key(*k)).collect();
        let only_b: Vec<_> = mb.sinks.keys().filter(|k| !ma.sinks.contains_key(*k)).collect();
        return EquivReport {
            verdict: EquivVerdict::InterfaceMismatch {
                detail: format!("sink sets differ (a-only {only_a:?}, b-only {only_b:?})"),
            },
            sinks_compared: 0,
            cones_proven: 0,
            vectors_applied: 0,
        };
    }

    let nsrc = ma.sources.len();
    let nsink = ma.sinks.len();
    let sink_keys: Vec<SinkKey> = ma.sinks.keys().cloned().collect();

    // Phase 1: random simulation. The per-round source assignments are
    // drawn serially from the seed (so the stream is identical for every
    // thread count), then the rounds — each a pure function of its
    // assignment — are evaluated in parallel. The winning mismatch is
    // always the lowest (round, sink) pair, exactly the serial early
    // exit.
    let mut rng = SplitMix64::new(options.seed);
    let assigns: Vec<Vec<u64>> = (0..options.random_rounds)
        .map(|_| (0..nsrc).map(|_| rng.next_u64()).collect())
        .collect();
    let mismatch = camsoc_par::find_first(options.parallelism, assigns.len(), |round| {
        let va = ma.eval_with(options.engine, &assigns[round]);
        let vb = mb.eval_with(options.engine, &assigns[round]);
        let sa = ma.sink_values(&va);
        let sb = mb.sink_values(&vb);
        (0..nsink).find(|&i| sa[i] != sb[i])
    });
    if let Some((round, sink)) = mismatch {
        return EquivReport {
            verdict: EquivVerdict::NotEquivalent { sink: sink_keys[sink].clone() },
            sinks_compared: nsink,
            cones_proven: 0,
            vectors_applied: 64 * (round + 1),
        };
    }
    let vectors = 64 * options.random_rounds;

    // Phase 2: exact cone proofs for bounded-support cones. Each worker
    // proves its sinks with one `ProofScratch`, dropped when the check
    // returns. Outcomes merge in sink order: the first mismatching sink
    // wins and `cones_proven` counts only the sinks before it, matching
    // the serial loop bit-for-bit.
    let sink_nets: Vec<(NetId, NetId)> =
        ma.sinks.values().copied().zip(mb.sinks.values().copied()).collect();
    let outcomes = camsoc_par::map_with(
        options.parallelism,
        &sink_nets,
        || ProofScratch::new(options.bdd_node_limit),
        |scratch, &(net_a, net_b)| scratch.prove(ma, mb, net_a, net_b, options),
    );
    let mut proven = 0usize;
    let mut unproven = 0usize;
    for (key, outcome) in sink_keys.iter().zip(&outcomes) {
        match outcome {
            ConeOutcome::Proven => proven += 1,
            ConeOutcome::Unproven => unproven += 1,
            ConeOutcome::Mismatch => {
                return EquivReport {
                    verdict: EquivVerdict::NotEquivalent { sink: key.clone() },
                    sinks_compared: nsink,
                    cones_proven: proven,
                    vectors_applied: vectors,
                };
            }
        }
    }

    let verdict = if unproven == 0 {
        EquivVerdict::Equivalent
    } else {
        EquivVerdict::ProbablyEquivalent { unproven_cones: unproven }
    };
    EquivReport { verdict, sinks_compared: nsink, cones_proven: proven, vectors_applied: vectors }
}

/// The exact phase's verdict on one sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConeOutcome {
    Proven,
    Unproven,
    Mismatch,
}

/// One worker's state for the exact phase, reused from cone to cone:
/// the net slots both support walks and both cone builds run on, their
/// stacks, the union support, and the BDD manager, reset per proof. Only
/// capacity carries over between proofs, never a value a proof reads.
#[derive(Debug)]
struct ProofScratch {
    slots: NetSlots,
    walk: Vec<u32>,
    /// Cone-build stack: `(instance, first fanin pin not yet resolved)`.
    frames: Vec<(u32, u32)>,
    support: Vec<usize>,
    mgr: Bdd,
}

impl ProofScratch {
    fn new(bdd_node_limit: usize) -> Self {
        ProofScratch {
            slots: NetSlots::default(),
            walk: Vec::new(),
            frames: Vec::new(),
            support: Vec::new(),
            mgr: Bdd::new(bdd_node_limit),
        }
    }

    /// Prove the cones of `net_a` in `ma` and `net_b` in `mb` equal.
    /// Both are built in one freshly reset manager over the union of
    /// their supports, source `s` being variable `rank of s in the
    /// union`: cones whose union support exceeds `max_support`, or whose
    /// build overflows the node limit, stay unproven.
    fn prove(
        &mut self,
        ma: &CombModel<'_>,
        mb: &CombModel<'_>,
        net_a: NetId,
        net_b: NetId,
        options: &EquivOptions,
    ) -> ConeOutcome {
        self.mgr.reset();
        let cap = options.max_support;
        self.support.clear();
        match options.engine {
            EquivEngine::Compiled => {
                let ProofScratch { slots, walk, support, .. } = self;
                if !ma.support_into(net_a, slots, walk, support, cap)
                    || !mb.support_into(net_b, slots, walk, support, cap)
                {
                    return ConeOutcome::Unproven;
                }
            }
            EquivEngine::Graph => {
                self.support.extend(ma.cone_support_graph(net_a));
                self.support.extend(mb.cone_support_graph(net_b));
            }
        }
        self.support.sort_unstable();
        self.support.dedup();
        if self.support.len() > cap {
            return ConeOutcome::Unproven;
        }
        let union = std::mem::take(&mut self.support);
        let same = self
            .build(ma, net_a, &union)
            .and_then(|fa| self.build(mb, net_b, &union).map(|fb| fa == fb));
        self.support = union;
        match same {
            Ok(true) => ConeOutcome::Proven,
            Ok(false) => ConeOutcome::Mismatch,
            Err(BddOverflow) => ConeOutcome::Unproven,
        }
    }

    /// Build the BDD of the cone rooted at `root` over `model`'s compiled
    /// snapshot. The walk is iterative: it visits fanins in pin order and
    /// evaluates a gate once its last fanin resolves, which is the `mk`
    /// sequence of the recursive definition, so node ids match it; a deep
    /// cone costs heap, not stack.
    fn build(
        &mut self,
        model: &CombModel<'_>,
        root: NetId,
        union: &[usize],
    ) -> Result<BddRef, BddOverflow> {
        let cn: &CompiledNetlist = &model.compiled;
        let ProofScratch { slots, frames, mgr, .. } = self;
        slots.begin(cn.num_nets());
        if let Some(r) = resolve(model, root.0, union, slots, mgr)? {
            return Ok(r);
        }
        let mut root_node = Bdd::ZERO;
        frames.clear();
        frames.push((gate_driving(cn, root.0), 0));
        'walk: while let Some(&(id, first)) = frames.last() {
            let id = InstanceId(id);
            let fanin = cn.fanin(id);
            for (pin, &net) in fanin.iter().enumerate().skip(first as usize) {
                if resolve(model, net, union, slots, mgr)?.is_none() {
                    // descend; this pin resolves from the memo on return
                    let top = frames.len() - 1;
                    frames[top].1 = pin as u32;
                    frames.push((gate_driving(cn, net), 0));
                    continue 'walk;
                }
            }
            let mut ins = [Bdd::ZERO; MAX_CELL_INPUTS];
            for (slot, &net) in ins.iter_mut().zip(fanin) {
                *slot = slots.get(net as usize).expect("every fanin resolved");
            }
            root_node = mgr.eval_function(cn.function(id), &ins[..fanin.len()])?;
            slots.set(cn.output(id).index(), root_node);
            frames.pop();
        }
        Ok(root_node)
    }
}

/// The combinational gate driving `net`, which [`resolve`] has just
/// found unbuilt.
fn gate_driving(cn: &CompiledNetlist, net: u32) -> u32 {
    cn.driver_instance(NetId(net)).expect("an unbuilt net has a gate driver").0
}

/// The node of `net` if it needs no gate evaluated: memoised already, a
/// source (its variable, made on first reach), or constant 0 (undriven,
/// or driven by a port, macro pin or sequential element outside the
/// source map). `None` for a combinational gate's output not yet built.
fn resolve(
    model: &CombModel<'_>,
    net: u32,
    union: &[usize],
    slots: &mut NetSlots,
    mgr: &mut Bdd,
) -> Result<Option<BddRef>, BddOverflow> {
    let i = net as usize;
    if let Some(r) = slots.get(i) {
        return Ok(Some(r));
    }
    let si = model.source_of_net[i];
    let r = if si != u32::MAX {
        let var = union
            .binary_search(&(si as usize))
            .expect("the support walk reaches every source the build reaches");
        mgr.var(var as u32)?
    } else {
        match model.compiled.driver_instance(NetId(net)) {
            Some(id) if !model.compiled.is_sequential(id) => return Ok(None),
            _ => Bdd::ZERO,
        }
    };
    slots.set(i, r);
    Ok(Some(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::Drive;
    use crate::eco::EcoSession;

    fn two_gate(f1: CellFunction, f2: CellFunction) -> Netlist {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.gate(f1, Drive::X1, "u_1", &[a, c]);
        let y = b.gate(f2, Drive::X1, "u_2", &[t, c]);
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
        assert!(r.passed());
    }

    #[test]
    fn demorgan_equivalents_proven() {
        // !(a & b) == !a | !b  — structurally different, logically equal.
        let a = {
            let mut b = NetlistBuilder::new("x");
            let p = b.input("a");
            let q = b.input("b");
            let y = b.gate_auto(CellFunction::Nand2, &[p, q]);
            b.output("y", y);
            b.finish()
        };
        let bnl = {
            let mut b = NetlistBuilder::new("x");
            let p = b.input("a");
            let q = b.input("b");
            let np = b.gate_auto(CellFunction::Inv, &[p]);
            let nq = b.gate_auto(CellFunction::Inv, &[q]);
            let y = b.gate_auto(CellFunction::Or2, &[np, nq]);
            b.output("y", y);
            b.finish()
        };
        let r = check_equivalence(&a, &bnl, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    #[test]
    fn different_functions_caught() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = two_gate(CellFunction::Nor2, CellFunction::Xor2);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::NotEquivalent { .. }));
        assert!(!r.passed());
    }

    #[test]
    fn interface_mismatch_detected() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = {
            let mut bb = NetlistBuilder::new("d");
            let p = bb.input("a");
            let y = bb.gate_auto(CellFunction::Inv, &[p]);
            bb.output("y", y);
            bb.finish()
        };
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::InterfaceMismatch { .. }));
    }

    #[test]
    fn buffer_eco_is_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let mut eco = EcoSession::new(a.clone());
        let g = eco.netlist().find_instance("u_1").unwrap();
        let out = eco.netlist().instance(g).output;
        eco.insert_buffer(out, Drive::X2).unwrap();
        eco.upsize(g).unwrap();
        let (b, _) = eco.finish();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    #[test]
    fn inverter_eco_is_not_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let mut eco = EcoSession::new(a.clone());
        let g = eco.netlist().find_instance("u_2").unwrap();
        eco.insert_inverter(g, 0).unwrap();
        let (b, _) = eco.finish();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::NotEquivalent { .. }));
    }

    #[test]
    fn sequential_cut_matches_flops_by_name() {
        let build = |swap: bool| {
            let mut b = NetlistBuilder::new("seq");
            let clk = b.input("clk");
            let d = b.input("d");
            let t = if swap {
                // inv then flop vs flop of inv — same D function
                b.gate_auto(CellFunction::Inv, &[d])
            } else {
                let n = b.gate_auto(CellFunction::Inv, &[d]);
                b.gate_auto(CellFunction::Buf, &[n])
            };
            let q = b.dff("u_ff", t, clk);
            b.output("q", q);
            b.finish()
        };
        let a = build(true);
        let b = build(false);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    #[test]
    fn comb_model_eval_adder() {
        let nl = crate::generate::ripple_adder(4).unwrap();
        let m = CombModel::new(&nl).unwrap();
        // source order is BTreeMap order of names: a[0..3], b[0..3], cin
        let mut assign = vec![0u64; m.sources.len()];
        let keys: Vec<&SourceKey> = m.sources.keys().collect();
        // encode a=5, b=6, cin=1 on lane 0
        for (i, k) in keys.iter().enumerate() {
            if let SourceKey::Port(name) = k {
                let bit = |v: u64, idx: usize| (v >> idx) & 1;
                assign[i] = if let Some(rest) = name.strip_prefix("a[") {
                    bit(5, rest.trim_end_matches(']').parse::<usize>().unwrap())
                } else if let Some(rest) = name.strip_prefix("b[") {
                    bit(6, rest.trim_end_matches(']').parse::<usize>().unwrap())
                } else {
                    1 // cin
                };
            }
        }
        let values = m.eval(&assign);
        // 5 + 6 + 1 = 12 = 0b1100
        let mut sum = 0u64;
        for bit in 0..4 {
            let net = nl.port(nl.find_port(&format!("sum[{bit}]")).unwrap()).net;
            sum |= (values[net.index()] & 1) << bit;
        }
        let cout = nl.port(nl.find_port("cout").unwrap()).net;
        assert_eq!(sum, 12);
        assert_eq!(values[cout.index()] & 1, 0);
    }

    #[test]
    fn bdd_basics() {
        let mut m = Bdd::new(1000);
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let xy = m.and(x, y).unwrap();
        let yx = m.and(y, x).unwrap();
        assert_eq!(xy, yx); // hash-consing canonical
        let nx = m.not(x).unwrap();
        let nnx = m.not(nx).unwrap();
        assert_eq!(nnx, x);
        let t = m.or(x, nx).unwrap();
        assert_eq!(t, Bdd::ONE);
        let f = m.and(x, nx).unwrap();
        assert_eq!(f, Bdd::ZERO);
        let x1 = m.xor(x, y).unwrap();
        let x2 = m.xor(y, x).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn bdd_overflow_is_graceful() {
        let mut m = Bdd::new(8);
        let mut acc = m.var(0).unwrap();
        let mut overflowed = false;
        for v in 1..64 {
            let x = match m.var(v) {
                Ok(x) => x,
                Err(BddOverflow) => {
                    overflowed = true;
                    break;
                }
            };
            match m.xor(acc, x) {
                Ok(r) => acc = r,
                Err(BddOverflow) => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed);
    }

    #[test]
    fn parallel_report_matches_serial_bitwise() {
        // one equivalent pair and one counter-example pair, both must
        // produce identical reports (verdict + all counters) at any
        // thread count
        let pairs = [
            (
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
            ),
            (
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
                two_gate(CellFunction::Nor2, CellFunction::Xor2),
            ),
        ];
        for (a, b) in &pairs {
            let serial = check_equivalence(a, b, &EquivOptions::default()).unwrap();
            for threads in [2usize, 4] {
                let opts = EquivOptions {
                    parallelism: Parallelism::Threads(threads),
                    ..EquivOptions::default()
                };
                let par = check_equivalence(a, b, &opts).unwrap();
                assert_eq!(par, serial, "threads = {threads}");
            }
        }
    }

    #[test]
    fn adder_equivalence_after_regeneration() {
        let a = crate::generate::ripple_adder(6).unwrap();
        let b = crate::generate::ripple_adder(6).unwrap();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    /// A 1,500-gate IP block and an ECO copy of it: every 97th non-spare
    /// combinational instance (the first 8) gets an X2 buffer on its
    /// output net and is upsized where its drive allows.
    fn eco_fixture() -> (Netlist, Netlist) {
        let params =
            crate::generate::IpBlockParams { target_gates: 1500, seed: 7, ..Default::default() };
        let golden = crate::generate::ip_block("blk", &params).unwrap();
        let picks: Vec<InstanceId> = golden
            .instances()
            .filter(|(_, i)| !i.spare && !i.function().is_sequential())
            .map(|(id, _)| id)
            .step_by(97)
            .take(8)
            .collect();
        let mut eco = EcoSession::new(golden.clone());
        for id in picks {
            let out = eco.netlist().instance(id).output;
            eco.insert_buffer(out, Drive::X2).unwrap();
            let _ = eco.upsize(id);
        }
        (golden, eco.finish().0)
    }

    /// Inputs `i00`..`i19`; `a_ok = Buf(i00)` and `y = Buf(AND of all
    /// 20 inputs)`, or `y = Buf(Tie0)` when `tied`. The two differ on one
    /// assignment in 2^20, which random vectors miss and the BDD phase
    /// must catch.
    fn and_chain(tied: bool) -> Netlist {
        let mut b = NetlistBuilder::new("p2");
        let ins: Vec<NetId> = (0..20).map(|i| b.input(&format!("i{i:02}"))).collect();
        let ok = b.gate_auto(CellFunction::Buf, &[ins[0]]);
        b.output("a_ok", ok);
        let t = if tied {
            b.tie(false)
        } else {
            ins[1..].iter().fold(ins[0], |acc, &x| b.gate_auto(CellFunction::And2, &[acc, x]))
        };
        let y = b.gate_auto(CellFunction::Buf, &[t]);
        b.output("y", y);
        b.finish()
    }

    /// `y` at the end of a `levels`-deep `Buf` chain from input `a`, and
    /// `z = Inv(a)`.
    fn buf_chain(levels: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let y = (0..levels).fold(a, |n, _| b.gate_auto(CellFunction::Buf, &[n]));
        b.output("y", y);
        let z = b.gate_auto(CellFunction::Inv, &[a]);
        b.output("z", z);
        b.finish()
    }

    const PINNED_THREADS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(2)];

    #[test]
    fn eco_fixture_reports_are_pinned() {
        // recorded before the exact phase moved onto the proof scratch;
        // the two small node limits pin where cones overflow
        let (golden, eco) = eco_fixture();
        let report = |unproven_cones, cones_proven| EquivReport {
            verdict: EquivVerdict::ProbablyEquivalent { unproven_cones },
            sinks_compared: 428,
            cones_proven,
            vectors_applied: 2048,
        };
        let pins = [
            (EquivOptions::default().bdd_node_limit, report(6, 422)),
            (64, report(230, 198)),
            (16, report(283, 145)),
        ];
        for (bdd_node_limit, want) in pins {
            for parallelism in PINNED_THREADS {
                let opts = EquivOptions { bdd_node_limit, parallelism, ..EquivOptions::default() };
                let got = check_equivalence(&golden, &eco, &opts).unwrap();
                assert_eq!(got, want, "limit {bdd_node_limit}, {parallelism:?}");
            }
        }
    }

    #[test]
    fn phase_two_mismatch_report_is_pinned() {
        let (a, b) = (and_chain(false), and_chain(true));
        let want = EquivReport {
            verdict: EquivVerdict::NotEquivalent { sink: SinkKey::Port("y".into()) },
            sinks_compared: 2,
            cones_proven: 1,
            vectors_applied: 2048,
        };
        for parallelism in PINNED_THREADS {
            let opts = EquivOptions { parallelism, ..EquivOptions::default() };
            assert_eq!(check_equivalence(&a, &b, &opts).unwrap(), want, "{parallelism:?}");
        }
    }

    #[test]
    fn reused_proof_scratch_matches_fresh_scratch() {
        // one scratch over models that grow, shrink and grow again, its
        // net-slot epoch forced through a wrap on the way; a 64-node
        // limit makes some builds overflow part-way
        let small = (
            two_gate(CellFunction::Nand2, CellFunction::Xor2),
            two_gate(CellFunction::Nor2, CellFunction::Xor2),
        );
        let eco = eco_fixture();
        let chain = (and_chain(false), and_chain(true));
        let rounds = [&small, &eco, &chain, &small, &eco];
        for engine in [EquivEngine::Compiled, EquivEngine::Graph] {
            let options = EquivOptions { bdd_node_limit: 64, engine, ..EquivOptions::default() };
            let mut reused = ProofScratch::new(options.bdd_node_limit);
            let mut seen = [0usize; 3];
            for (round, (a, b)) in rounds.iter().enumerate() {
                if round == 2 {
                    // wrap at the chain's first build (epoch 1), every slot
                    // holding that stamp, as slots last written 2^32
                    // traversals earlier may
                    reused.slots.slot.fill((1, Bdd::ONE));
                    reused.slots.epoch = u32::MAX - 2;
                }
                let (ma, mb) = (CombModel::new(a).unwrap(), CombModel::new(b).unwrap());
                for (&net_a, &net_b) in ma.sinks.values().zip(mb.sinks.values()) {
                    let mut fresh = ProofScratch::new(options.bdd_node_limit);
                    let want = fresh.prove(&ma, &mb, net_a, net_b, &options);
                    let got = reused.prove(&ma, &mb, net_a, net_b, &options);
                    let nodes = (reused.mgr.num_nodes(), fresh.mgr.num_nodes());
                    assert_eq!(got, want, "{engine:?} round {round}");
                    assert_eq!(nodes.0, nodes.1, "{engine:?} round {round}");
                    seen[got as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n > 0), "{engine:?}: every outcome exercised, {seen:?}");
        }
    }

    #[test]
    fn bdd_reset_matches_fresh_manager_and_sheds_grown_tables() {
        // (x0 & x15) | (x1 & x16) | ...: the worst variable order, so the
        // tables grow far past what a small proof uses
        let blow_up = |m: &mut Bdd, pairs: u32| -> Result<BddRef, BddOverflow> {
            let mut acc = Bdd::ZERO;
            for i in 0..pairs {
                let (x, y) = (m.var(i)?, m.var(i + pairs)?);
                let t = m.and(x, y)?;
                acc = m.or(acc, t)?;
            }
            Ok(acc)
        };
        let small = |m: &mut Bdd| -> Result<(BddRef, usize), BddOverflow> {
            let f = blow_up(m, 3)?;
            Ok((f, m.num_nodes()))
        };
        let mut m = Bdd::new(1 << 20);
        blow_up(&mut m, 15).unwrap();
        assert!(m.ite_cache.len() > 4 * KEPT_CAPACITY, "grew {}", m.ite_cache.len());
        m.reset();
        let want = small(&mut Bdd::new(1 << 20));
        assert_eq!(small(&mut m), want);
        // the small proof ran in the grown tables; the next reset sheds them
        m.reset();
        assert!(m.ite_cache.capacity() <= 4 * KEPT_CAPACITY, "kept {}", m.ite_cache.capacity());
        assert!(m.unique.capacity() <= 4 * KEPT_CAPACITY, "kept {}", m.unique.capacity());
        assert_eq!(small(&mut m), want);
    }

    #[test]
    fn deep_chain_cones_prove_without_recursion() {
        // 100,000 gate levels: a build that recursed per level would
        // overflow the thread's stack and abort the process
        let a = buf_chain(100_000);
        let b = a.clone();
        for parallelism in PINNED_THREADS {
            let opts = EquivOptions { parallelism, ..EquivOptions::default() };
            let r = check_equivalence(&a, &b, &opts).unwrap();
            assert_eq!(r.verdict, EquivVerdict::Equivalent, "{parallelism:?}");
            assert_eq!(r.cones_proven, 2, "{parallelism:?}");
        }
    }
}
