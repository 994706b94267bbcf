//! Simulated-annealing standard-cell placement.
//!
//! Cells live on a slot grid (rows × uniform-pitch sites — the classic
//! row-based abstraction); the annealer minimises half-perimeter
//! wirelength (HPWL). In timing-driven mode, nets on the worst timing
//! paths (from a pre-placement STA with estimated wires) carry extra
//! weight, pulling the critical logic together — the mechanism behind
//! the paper's "timing-driven placement".
//!
//! With [`PlacementConfig::starts`] > 1 the annealer runs that many
//! independent chains from seeds derived from the configured seed and
//! keeps the best final QoR (ties broken by lowest chain index), so the
//! result is a pure function of the seed regardless of
//! [`PlacementConfig::parallelism`].
//!
//! # Incremental net boxes
//!
//! A move re-costs only the nets of the one or two instances it moves,
//! and for most of them only the pins that moved. Each call builds CSR
//! pin tables once and shares them read-only with every chain: each
//! net's movable pins (an instance appears once per pin it has on the
//! net), the box of its fixed pins (ports and macro pins, folded once),
//! and each instance's nets in id order with its pin count on each. A
//! move merges the two instances' rows into a reused buffer and costs
//! every net on it:
//!
//! * a net with at most 16 movable pins (`SMALL_NET_PINS`, chosen by
//!   measurement) re-folds its box from its row;
//! * a larger net keeps its exact box and the number of pins on each
//!   edge. Pins leaving an edge decrement its count, pins landing on or
//!   beyond it bump or reset it, and the box is re-folded only when an
//!   edge has lost its last pin. In a swap, `a` shifts before `b`.
//!
//! Proposed boxes and costs live in reused buffers until the move is
//! accepted; nothing is kept after [`place`] returns.
//!
//! The timing-driven weights come from one STA, over the caller's
//! compiled snapshot when it lends one ([`place_with_compiled`]), else
//! over a fresh compile.
//!
//! Every [`Placement`] is bit-identical to re-folding each touched net
//! from scratch. Pin coordinates are slot centres or fixed-pin
//! arithmetic, never NaN or `-0.0`, so `min`, `max` and `==` are exact
//! and a cached box equals a fresh fold of the same pins. A net's cost
//! is the same f64 expression over those extremes, a move's before and
//! after sums run over the same nets in ascending id order, and the RNG
//! draws are unchanged.

use std::collections::HashMap;

use camsoc_netlist::compiled::CompiledNetlist;
use camsoc_netlist::generate::SplitMix64;
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::tech::Technology;
use camsoc_par::Parallelism;
use camsoc_sta::{Constraints, Sta};

use crate::floorplan::Floorplan;

/// Placement objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Pure HPWL.
    Wirelength,
    /// HPWL with critical-path net weighting.
    TimingDriven,
}

/// Annealer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Objective mode.
    pub mode: PlacementMode,
    /// Annealing moves; `0` = auto (scales with the instance count, so
    /// effort per cell is constant as designs grow).
    pub iterations: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Weight multiplier applied to critical nets in timing mode.
    pub critical_weight: f64,
    /// Independent annealing chains (multi-start); `0` and `1` both run
    /// the single historical chain seeded directly with `seed`.
    pub starts: usize,
    /// Thread budget for running the chains concurrently. Has no effect
    /// on the result, only on wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            mode: PlacementMode::TimingDriven,
            iterations: 0, // auto
            seed: 0x9_1ACE,
            critical_weight: 8.0,
            starts: 1,
            parallelism: Parallelism::Serial,
        }
    }
}

impl PlacementConfig {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the config unchanged (bit-identical results); each level
    /// adds one independent annealing start and, when an explicit move
    /// budget is set, 50 % more moves per level. The escalated config is
    /// a pure function of `(self, level)`.
    pub fn escalated(&self, level: u32) -> PlacementConfig {
        if level == 0 {
            return self.clone();
        }
        PlacementConfig {
            starts: self.starts.max(1) + level as usize,
            iterations: if self.iterations == 0 {
                0 // auto budget already scales with the design
            } else {
                self.iterations + (self.iterations / 2).saturating_mul(level as usize)
            },
            ..self.clone()
        }
    }
}

/// A completed placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-instance x coordinate (µm).
    pub x: Vec<f64>,
    /// Per-instance y coordinate (µm).
    pub y: Vec<f64>,
    /// Per-instance row index.
    pub row: Vec<usize>,
    /// Final weighted HPWL (µm).
    pub hpwl_um: f64,
    /// HPWL of the initial (sequential) placement (µm).
    pub initial_hpwl_um: f64,
    /// Moves accepted by the annealer.
    pub accepted_moves: usize,
}

impl Placement {
    /// Location of an instance.
    pub fn location(&self, id: InstanceId) -> (f64, f64) {
        (self.x[id.index()], self.y[id.index()])
    }

    /// HPWL improvement ratio versus the initial placement.
    pub fn improvement(&self) -> f64 {
        if self.initial_hpwl_um == 0.0 {
            return 0.0;
        }
        1.0 - self.hpwl_um / self.initial_hpwl_um
    }
}

/// Nets with at most this many movable pins (counted with multiplicity)
/// re-fold their box from the pin table on every move; larger nets keep
/// an edge-counted box. Chosen by measuring `place` (release, 2-vCPU
/// host, median over seeds 1–3 of the best of 5), in ms:
///
/// | threshold | 16K chip | 4K block | 1M-gate top | 600-gate block | 2K block |
/// |---|---|---|---|---|---|
/// | 0 (every net counted) | 10.2 | 7.8 | 1.01 | 3.6 | 11.1 |
/// | 4 | 7.9 | 6.0 | 0.83 | 2.5 | 8.1 |
/// | 8 | 7.6 | 5.1 | 0.85 | 1.9 | 6.4 |
/// | 16 | 7.7 | 5.0 | 0.84 | 1.8 | 6.4 |
/// | 32 | 7.3 | 4.9 | 1.07 | 1.9 | 6.3 |
/// | none counted | 233 | 32 | 1.07 | 4.0 | 24 |
///
/// The 16K chip is a scanned 4 × 4,000-gate tiled chip and the 4K block
/// one 4,000-gate tile, both at 40,000 `Wirelength` moves. The top places
/// 28 glue cells among 250 hardened tiles' pins. The 600- and 2K-gate
/// blocks run the `TimingDriven` default. Below 8, the many 2–3-pin nets
/// pay for count updates where a re-fold is a few loads (likely branch
/// misses; not measured). At 32 the top's clock and reset nets re-fold
/// on every move. With no counted nets, so do the 16K chip's clock and
/// scan-enable nets, each thousands of pins.
const SMALL_NET_PINS: usize = 16;

/// An axis-aligned pin box; [`Bbox::EMPTY`] before any pin is folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bbox {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl Bbox {
    const EMPTY: Bbox = Bbox {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    fn add(&mut self, [px, py]: [f64; 2]) {
        self.min_x = self.min_x.min(px);
        self.max_x = self.max_x.max(px);
        self.min_y = self.min_y.min(py);
        self.max_y = self.max_y.max(py);
    }

    /// Weighted half-perimeter: the cost of a net.
    fn cost(&self, weight: f64) -> f64 {
        ((self.max_x - self.min_x) + (self.max_y - self.min_y)) * weight
    }
}

/// A large net's exact box plus the number of pins on each of its edges
/// (`min_x`, `max_x`, `min_y`, `max_y`), counted with multiplicity. The
/// net's fixed pins count once on each edge they reach and never leave.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EdgeBox {
    bbox: Bbox,
    on_edge: [u32; 4],
}

impl EdgeBox {
    /// Fold `m` pins at `p` into the box.
    fn enter(&mut self, m: u32, [px, py]: [f64; 2]) {
        let (b, n) = (&mut self.bbox, &mut self.on_edge);
        if px < b.min_x {
            b.min_x = px;
            n[0] = m;
        } else if px == b.min_x {
            n[0] += m;
        }
        if px > b.max_x {
            b.max_x = px;
            n[1] = m;
        } else if px == b.max_x {
            n[1] += m;
        }
        if py < b.min_y {
            b.min_y = py;
            n[2] = m;
        } else if py == b.min_y {
            n[2] += m;
        }
        if py > b.max_y {
            b.max_y = py;
            n[3] = m;
        } else if py == b.max_y {
            n[3] += m;
        }
    }

    /// Move `m` pins from `from` to `to`. An edge that loses its last pin
    /// still bounds every pin but may no longer be attained; the box is
    /// exact again once [`EdgeBox::is_tight`] holds.
    fn shift(&mut self, m: u32, [ox, oy]: [f64; 2], to: [f64; 2]) {
        let (b, n) = (&self.bbox, &mut self.on_edge);
        if ox == b.min_x {
            n[0] -= m;
        }
        if ox == b.max_x {
            n[1] -= m;
        }
        if oy == b.min_y {
            n[2] -= m;
        }
        if oy == b.max_y {
            n[3] -= m;
        }
        self.enter(m, to);
    }

    /// Every edge has a pin on it, so the box is the pins' exact box.
    fn is_tight(&self) -> bool {
        !self.on_edge.contains(&0)
    }
}

/// Sentinel in [`PinTables::large`] for a net without an edge-counted box.
const SMALL: u32 = u32::MAX;

/// Sentinel for a slot no instance occupies.
const EMPTY_SLOT: u32 = u32::MAX;

/// Pin tables shared read-only by every annealing chain, built once per
/// [`place`] call.
struct PinTables {
    /// CSR offsets into `net_pins`, one row per net.
    net_start: Vec<u32>,
    /// Each net's movable pins as instance indices; an instance appears
    /// once per pin it has on the net.
    net_pins: Vec<u32>,
    /// Each net's box over its fixed pins (ports and macro pins).
    fixed: Vec<Bbox>,
    /// Net → index of its edge-counted box, or [`SMALL`].
    large: Vec<u32>,
    /// CSR offsets into `inst_nets`, one row per instance.
    inst_start: Vec<u32>,
    /// Each instance's nets in ascending id order, with its pin count on
    /// each.
    inst_nets: Vec<(u32, u32)>,
    /// Nets worth costing (≥ 2 endpoints in total), ascending.
    active: Vec<u32>,
    /// Per-net cost weight.
    weight: Vec<f64>,
}

impl PinTables {
    /// Build the tables from every instance's pins (`pins_of(i, buf)`
    /// pushes one net index per pin of instance `i`) and the fixed pins
    /// `(net, point)`. Nets with more than `small_net_pins` movable pins
    /// get an edge-counted box. Every weight starts at 1.
    fn new(
        num_nets: usize,
        num_insts: usize,
        mut pins_of: impl FnMut(usize, &mut Vec<u32>),
        fixed_pins: impl IntoIterator<Item = (usize, [f64; 2])>,
        small_net_pins: usize,
    ) -> PinTables {
        let mut fixed = vec![Bbox::EMPTY; num_nets];
        let mut endpoints = vec![0u32; num_nets];
        for (net, p) in fixed_pins {
            fixed[net].add(p);
            endpoints[net] += 1;
        }
        let mut inst_start = Vec::with_capacity(num_insts + 1);
        inst_start.push(0);
        let mut inst_nets = Vec::new();
        let mut net_start = vec![0u32; num_nets + 1];
        let mut buf = Vec::new();
        for i in 0..num_insts {
            buf.clear();
            pins_of(i, &mut buf);
            buf.sort_unstable();
            for run in buf.chunk_by(|a, b| a == b) {
                inst_nets.push((run[0], run.len() as u32));
                net_start[run[0] as usize + 1] += run.len() as u32;
            }
            inst_start.push(inst_nets.len() as u32);
        }
        let mut large = vec![SMALL; num_nets];
        let mut num_large = 0;
        let mut active = Vec::new();
        for net in 0..num_nets {
            let movable = net_start[net + 1];
            if movable as usize > small_net_pins {
                large[net] = num_large as u32;
                num_large += 1;
            }
            if movable + endpoints[net] >= 2 {
                active.push(net as u32);
            }
            net_start[net + 1] += net_start[net];
        }
        let mut next = net_start.clone();
        let mut net_pins = vec![0u32; net_start[num_nets] as usize];
        for i in 0..num_insts {
            for &(net, m) in &inst_nets[inst_start[i] as usize..inst_start[i + 1] as usize] {
                for _ in 0..m {
                    net_pins[next[net as usize] as usize] = i as u32;
                    next[net as usize] += 1;
                }
            }
        }
        PinTables {
            net_start,
            net_pins,
            fixed,
            large,
            inst_start,
            inst_nets,
            active,
            weight: vec![1.0; num_nets],
        }
    }

    /// Tables for a netlist on a floorplan: ports spread evenly around
    /// the core boundary, macro pins along each macro's bottom edge.
    fn for_netlist(nl: &Netlist, fp: &Floorplan) -> PinTables {
        let mut fixed_pins = Vec::new();
        let nports = nl.num_ports().max(1);
        for (i, (_, port)) in nl.ports().enumerate() {
            let t = i as f64 / nports as f64;
            let perim = 2.0 * (fp.core.w + fp.core.h);
            let d = t * perim;
            let p = if d < fp.core.w {
                [d, 0.0]
            } else if d < fp.core.w + fp.core.h {
                [fp.core.w, d - fp.core.w]
            } else if d < 2.0 * fp.core.w + fp.core.h {
                [2.0 * fp.core.w + fp.core.h - d, fp.core.h]
            } else {
                [0.0, perim - d]
            };
            fixed_pins.push((port.net.index(), p));
        }
        let macro_rect: HashMap<usize, crate::floorplan::Rect> =
            fp.macros.iter().map(|(id, r)| (id.index(), *r)).collect();
        for (mid, m) in nl.macros() {
            if let Some(rect) = macro_rect.get(&mid.index()) {
                let total = (m.inputs.len() + m.outputs.len()).max(1);
                for (j, &net) in m.inputs.iter().chain(&m.outputs).enumerate() {
                    let px = rect.x + (j as f64 + 0.5) / total as f64 * rect.w;
                    fixed_pins.push((net.index(), [px, rect.y]));
                }
            }
        }
        let pins_of = |i: usize, buf: &mut Vec<u32>| {
            let inst = nl.instance(InstanceId(i as u32));
            buf.extend(inst.inputs.iter().map(|n| n.0));
            buf.push(inst.output.0);
            buf.extend(inst.clock.map(|c| c.0));
        };
        PinTables::new(
            nl.num_nets(),
            nl.num_instances(),
            pins_of,
            fixed_pins,
            SMALL_NET_PINS,
        )
    }

    fn net_pins(&self, net: usize) -> &[u32] {
        &self.net_pins[self.net_start[net] as usize..self.net_start[net + 1] as usize]
    }

    fn inst_row(&self, inst: usize) -> &[(u32, u32)] {
        &self.inst_nets[self.inst_start[inst] as usize..self.inst_start[inst + 1] as usize]
    }

    /// A net's box over its fixed pins and its movable pins at `xy`.
    fn fold(&self, net: usize, xy: &[[f64; 2]]) -> Bbox {
        let mut b = self.fixed[net];
        for &i in self.net_pins(net) {
            b.add(xy[i as usize]);
        }
        b
    }

    /// [`PinTables::fold`] with edge counts.
    fn fold_counted(&self, net: usize, xy: &[[f64; 2]]) -> EdgeBox {
        let f = self.fixed[net];
        let has_fixed = u32::from(f.min_x <= f.max_x);
        let mut e = EdgeBox { bbox: f, on_edge: [has_fixed; 4] };
        for &i in self.net_pins(net) {
            e.enter(1, xy[i as usize]);
        }
        e
    }
}

/// One instance's part in a move: from where to where.
#[derive(Debug, Clone, Copy)]
struct Shift {
    inst: usize,
    from: [f64; 2],
    to: [f64; 2],
}

/// One chain's net costs and edge-counted boxes, plus reused buffers for
/// the move under evaluation.
#[derive(Clone)]
struct NetState {
    /// Per-net cost (0 for nets never costed).
    cost: Vec<f64>,
    /// Edge-counted boxes, indexed by [`PinTables::large`].
    boxes: Vec<EdgeBox>,
    /// The move's nets in ascending id order: `(net, pins of a, pins of b)`.
    touched: Vec<(u32, u32, u32)>,
    /// The move's proposed cost per touched net.
    new_cost: Vec<f64>,
    /// The move's proposed edge-counted boxes.
    new_boxes: Vec<(u32, EdgeBox)>,
}

impl NetState {
    /// Cost every active net at `xy`; returns the state and the total.
    fn new(t: &PinTables, xy: &[[f64; 2]]) -> (NetState, f64) {
        let mut cost = vec![0.0; t.fixed.len()];
        let mut total = 0.0;
        for &net in &t.active {
            let net = net as usize;
            let c = t.fold(net, xy).cost(t.weight[net]);
            cost[net] = c;
            total += c;
        }
        let boxes = (0..t.large.len())
            .filter(|&net| t.large[net] != SMALL)
            .map(|net| t.fold_counted(net, xy))
            .collect();
        let state = NetState {
            cost,
            boxes,
            touched: Vec::new(),
            new_cost: Vec::new(),
            new_boxes: Vec::new(),
        };
        (state, total)
    }

    /// Cost moving `a` (and `b`, in a swap) once `xy` already holds the
    /// moved coordinates. Returns the touched nets' committed and
    /// proposed cost sums, each summed in ascending net order.
    fn propose(
        &mut self,
        t: &PinTables,
        xy: &[[f64; 2]],
        a: Shift,
        b: Option<Shift>,
    ) -> (f64, f64) {
        self.touched.clear();
        let ra = t.inst_row(a.inst);
        match b {
            None => self.touched.extend(ra.iter().map(|&(net, m)| (net, m, 0))),
            Some(b) => {
                let rb = t.inst_row(b.inst);
                let (mut i, mut j) = (0, 0);
                while i < ra.len() || j < rb.len() {
                    let na = ra.get(i).map_or(u32::MAX, |e| e.0);
                    let nb = rb.get(j).map_or(u32::MAX, |e| e.0);
                    let net = na.min(nb);
                    let (mut ma, mut mb) = (0, 0);
                    if na == net {
                        ma = ra[i].1;
                        i += 1;
                    }
                    if nb == net {
                        mb = rb[j].1;
                        j += 1;
                    }
                    self.touched.push((net, ma, mb));
                }
            }
        }
        let before: f64 = self.touched.iter().map(|&(net, ..)| self.cost[net as usize]).sum();
        self.new_cost.clear();
        self.new_boxes.clear();
        for &(net, ma, mb) in &self.touched {
            let net = net as usize;
            let li = t.large[net];
            let bbox = if li == SMALL {
                t.fold(net, xy)
            } else {
                let mut e = self.boxes[li as usize];
                if ma > 0 {
                    e.shift(ma, a.from, a.to);
                }
                if let Some(b) = b.filter(|_| mb > 0) {
                    e.shift(mb, b.from, b.to);
                }
                if !e.is_tight() {
                    e = t.fold_counted(net, xy);
                }
                self.new_boxes.push((li, e));
                e.bbox
            };
            self.new_cost.push(bbox.cost(t.weight[net]));
        }
        let after: f64 = self.new_cost.iter().sum();
        (before, after)
    }

    /// Keep the last proposed move's costs and boxes.
    fn commit(&mut self) {
        for (&(net, ..), &c) in self.touched.iter().zip(&self.new_cost) {
            self.cost[net as usize] = c;
        }
        for &(li, e) in &self.new_boxes {
            self.boxes[li as usize] = e;
        }
    }
}

/// Critical-path nets from a pre-placement STA, over `compiled` when
/// the caller holds a snapshot.
fn critical_nets(
    nl: &Netlist,
    compiled: Option<&CompiledNetlist>,
    tech: &Technology,
    constraints: &Constraints,
) -> Vec<NetId> {
    let mut sta = Sta::new(nl, tech, constraints.clone());
    if let Some(cn) = compiled {
        sta = sta.with_compiled(cn);
    }
    let path = sta.analyze().ok().and_then(|r| r.critical_path);
    path.map_or_else(Vec::new, |p| p.steps.iter().filter_map(|s| nl.find_net(&s.net)).collect())
}

/// Place a netlist onto a floorplan.
///
/// Cells are snapped to row/site slots; the returned coordinates are
/// slot centres in µm.
pub fn place(
    nl: &Netlist,
    tech: &Technology,
    fp: &Floorplan,
    constraints: &Constraints,
    config: &PlacementConfig,
) -> Placement {
    place_on(nl, None, tech, fp, constraints, config)
}

/// [`place`] with a current snapshot of `nl` the caller already holds:
/// timing-driven mode times it instead of compiling the netlist.
///
/// # Panics
///
/// In timing-driven mode, panics if the snapshot's instance or net
/// count differs from the netlist's.
pub fn place_with_compiled(
    nl: &Netlist,
    compiled: &CompiledNetlist,
    tech: &Technology,
    fp: &Floorplan,
    constraints: &Constraints,
    config: &PlacementConfig,
) -> Placement {
    place_on(nl, Some(compiled), tech, fp, constraints, config)
}

fn place_on(
    nl: &Netlist,
    compiled: Option<&CompiledNetlist>,
    tech: &Technology,
    fp: &Floorplan,
    constraints: &Constraints,
    config: &PlacementConfig,
) -> Placement {
    let n = nl.num_instances();
    let iterations = if config.iterations > 0 {
        config.iterations
    } else {
        (n * 25).max(10_000)
    };
    let mut tables = PinTables::for_netlist(nl, fp);
    if config.mode == PlacementMode::TimingDriven {
        for net in critical_nets(nl, compiled, tech, constraints) {
            tables.weight[net.index()] = config.critical_weight;
        }
    }

    // slot grid: average cell pitch
    let nrows = fp.rows.len().max(1);
    let sites_per_row = ((n.div_ceil(nrows)) as f64 * 1.3).ceil() as usize + 2;
    let pitch = fp.core.w / sites_per_row as f64;

    let mut slot_of0 = vec![(0usize, 0usize); n]; // (row, site)
    let mut occupant0 = vec![EMPTY_SLOT; nrows * sites_per_row];
    // fill rows sequentially: generator order is connectivity order, so
    // neighbours in the netlist start as neighbours on the die — a far
    // better seed than scattering them across rows
    for (i, slot) in slot_of0.iter_mut().enumerate() {
        let row = (i / sites_per_row).min(nrows - 1);
        let site = if row == nrows - 1 && i / sites_per_row >= nrows {
            // overflow of the last row cannot happen by construction
            // (sites_per_row * nrows >= n) but stay defensive
            (i - row * sites_per_row).min(sites_per_row - 1)
        } else {
            i % sites_per_row
        };
        *slot = (row, site);
        occupant0[row * sites_per_row + site] = i as u32;
    }

    let coords = |slot: (usize, usize)| -> [f64; 2] {
        let (row, site) = slot;
        [
            (site as f64 + 0.5) * pitch,
            fp.rows[row.min(fp.rows.len() - 1)].y + fp.rows[0].height / 2.0,
        ]
    };
    let xy0: Vec<[f64; 2]> = slot_of0.iter().map(|&s| coords(s)).collect();
    let (nets0, initial_hpwl) = NetState::new(&tables, &xy0);

    // one annealing chain from the shared initial state
    let anneal = |seed: u64| -> Placement {
        let mut slot_of = slot_of0.clone();
        let mut occupant = occupant0.clone();
        let mut xy = xy0.clone();
        let mut nets = nets0.clone();
        let mut total = initial_hpwl;

        let mut rng = SplitMix64::new(seed);
        let mut temperature = pitch * 40.0; // cost units are µm
        let cooling = (0.01f64 / temperature.max(1e-9)).powf(1.0 / iterations as f64);
        let mut accepted = 0usize;

        for _ in 0..iterations {
            if n < 2 {
                break;
            }
            let a = rng.below(n);
            let target = (rng.below(nrows), rng.below(sites_per_row));
            let b = occupant[target.0 * sites_per_row + target.1];
            if b == a as u32 {
                continue;
            }
            // tentative move (swap or displace)
            let old_a = slot_of[a];
            let sa = Shift { inst: a, from: xy[a], to: coords(target) };
            xy[a] = sa.to;
            let sb = (b != EMPTY_SLOT).then(|| {
                let b = b as usize;
                let s = Shift { inst: b, from: xy[b], to: sa.from };
                xy[b] = s.to;
                s
            });
            let (before, after) = nets.propose(&tables, &xy, sa, sb);
            let delta = after - before;
            let accept = delta < 0.0
                || rng.chance((-delta / temperature.max(1e-9)).exp().clamp(0.0, 1.0));
            if accept {
                accepted += 1;
                total += delta;
                nets.commit();
                occupant[old_a.0 * sites_per_row + old_a.1] = b;
                occupant[target.0 * sites_per_row + target.1] = a as u32;
                slot_of[a] = target;
                if let Some(sb) = sb {
                    slot_of[sb.inst] = old_a;
                }
            } else {
                xy[a] = sa.from;
                if let Some(sb) = sb {
                    xy[sb.inst] = sb.from;
                }
            }
            temperature *= cooling;
        }

        Placement {
            x: xy.iter().map(|p| p[0]).collect(),
            y: xy.iter().map(|p| p[1]).collect(),
            row: slot_of.iter().map(|&(r, _)| r).collect(),
            hpwl_um: total,
            initial_hpwl_um: initial_hpwl,
            accepted_moves: accepted,
        }
    };

    let starts = config.starts.max(1);
    if starts == 1 {
        return anneal(config.seed);
    }
    // multi-start: chain seeds derive from the configured seed, chains
    // are fully independent, and the winner is chosen by (QoR, chain
    // index) — a pure function of the seed for any thread count
    let mut seeder = SplitMix64::new(config.seed);
    let seeds: Vec<u64> = (0..starts).map(|_| seeder.next_u64()).collect();
    let chains = camsoc_par::map(config.parallelism, &seeds, |&s| anneal(s));
    chains
        .into_iter()
        .reduce(|best, cand| if cand.hpwl_um < best.hpwl_um { cand } else { best })
        .expect("starts >= 1 chains")
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::generate::{self, IpBlockParams};
    use camsoc_netlist::tech::TechnologyNode;

    fn setup(gates: usize) -> (Netlist, Technology, Floorplan, Constraints) {
        let nl = generate::ip_block(
            "blk",
            &IpBlockParams { target_gates: gates, seed: 2, ..Default::default() },
        )
        .unwrap();
        let tech = Technology::node(TechnologyNode::Tsmc250);
        let fp = Floorplan::generate(&nl, &tech).unwrap();
        let constraints = Constraints::single_clock("clk", 7.5);
        (nl, tech, fp, constraints)
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let (nl, tech, fp, constraints) = setup(800);
        let cfg = PlacementConfig {
            mode: PlacementMode::Wirelength,
            iterations: 20_000,
            ..PlacementConfig::default()
        };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        assert!(
            p.hpwl_um < p.initial_hpwl_um,
            "no improvement: {} -> {}",
            p.initial_hpwl_um,
            p.hpwl_um
        );
        assert!(p.improvement() > 0.15, "improvement {:.3}", p.improvement());
        assert!(p.accepted_moves > 0);
    }

    #[test]
    fn all_cells_inside_core() {
        let (nl, tech, fp, constraints) = setup(500);
        let cfg = PlacementConfig { iterations: 5_000, ..PlacementConfig::default() };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        for i in 0..nl.num_instances() {
            assert!(p.x[i] >= 0.0 && p.x[i] <= fp.core.w, "x[{i}] = {}", p.x[i]);
            assert!(p.y[i] >= 0.0 && p.y[i] <= fp.core.h, "y[{i}] = {}", p.y[i]);
        }
    }

    #[test]
    fn no_two_cells_share_a_slot() {
        let (nl, tech, fp, constraints) = setup(400);
        let cfg = PlacementConfig { iterations: 10_000, ..PlacementConfig::default() };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        let mut seen = std::collections::HashSet::new();
        for i in 0..nl.num_instances() {
            let key = (p.row[i], (p.x[i] * 1000.0) as i64);
            assert!(seen.insert(key), "slot collision at instance {i}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (nl, tech, fp, constraints) = setup(300);
        let cfg = PlacementConfig { iterations: 3_000, ..PlacementConfig::default() };
        let a = place(&nl, &tech, &fp, &constraints, &cfg);
        let b = place(&nl, &tech, &fp, &constraints, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.hpwl_um, b.hpwl_um);
    }

    #[test]
    fn multi_start_parallel_matches_serial_bitwise() {
        let (nl, tech, fp, constraints) = setup(300);
        let base = PlacementConfig {
            iterations: 2_000,
            starts: 3,
            ..PlacementConfig::default()
        };
        let serial = place(&nl, &tech, &fp, &constraints, &base);
        for threads in [2usize, 4] {
            let cfg = PlacementConfig {
                parallelism: Parallelism::Threads(threads),
                ..base.clone()
            };
            let p = place(&nl, &tech, &fp, &constraints, &cfg);
            assert_eq!(p.x, serial.x, "threads = {threads}");
            assert_eq!(p.y, serial.y, "threads = {threads}");
            assert_eq!(p.row, serial.row, "threads = {threads}");
            assert_eq!(p.hpwl_um, serial.hpwl_um, "threads = {threads}");
            assert_eq!(p.accepted_moves, serial.accepted_moves, "threads = {threads}");
        }
    }

    #[test]
    fn multi_start_keeps_best_chain() {
        let (nl, tech, fp, constraints) = setup(250);
        let base = PlacementConfig {
            iterations: 1_500,
            starts: 4,
            ..PlacementConfig::default()
        };
        let best = place(&nl, &tech, &fp, &constraints, &base);
        // replay each chain individually: the winner must match the
        // minimum-HPWL chain
        let mut seeder = camsoc_netlist::generate::SplitMix64::new(base.seed);
        let mut chain_hpwl = Vec::new();
        for _ in 0..base.starts {
            let cfg = PlacementConfig {
                seed: seeder.next_u64(),
                starts: 1,
                ..base.clone()
            };
            chain_hpwl.push(place(&nl, &tech, &fp, &constraints, &cfg).hpwl_um);
        }
        let min = chain_hpwl.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(best.hpwl_um, min, "chains: {chain_hpwl:?}");
    }

    #[test]
    fn timing_mode_runs_and_weights_nets() {
        let (nl, tech, fp, constraints) = setup(400);
        let cfg = PlacementConfig {
            mode: PlacementMode::TimingDriven,
            iterations: 3_000,
            ..PlacementConfig::default()
        };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        assert!(p.hpwl_um > 0.0);
    }

    /// FNV-1a over a placement: every instance's x and y bits and row,
    /// then the final and initial HPWL bits and the accepted-move count.
    fn placement_digest(p: &Placement) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = p
            .x
            .iter()
            .zip(&p.y)
            .zip(&p.row)
            .flat_map(|((x, y), &r)| [x.to_bits(), y.to_bits(), r as u64])
            .chain([
                p.hpwl_um.to_bits(),
                p.initial_hpwl_um.to_bits(),
                p.accepted_moves as u64,
            ]);
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The pinned-digest fixture: a 1,500-gate ip_block, generator
    /// seed 7 (placed with seed 7 below).
    fn digest_fixture() -> (Netlist, Technology, Floorplan, Constraints) {
        let nl = generate::ip_block(
            "blk",
            &IpBlockParams { target_gates: 1_500, seed: 7, ..Default::default() },
        )
        .unwrap();
        let tech = Technology::node(TechnologyNode::Tsmc250);
        let fp = Floorplan::generate(&nl, &tech).unwrap();
        (nl, tech, fp, Constraints::single_clock("clk", 7.5))
    }

    // [`placement_digest`]s of the fixture, recorded with the annealer
    // that re-folded every touched net's box over all of its pins on
    // every move, before the incremental boxes.

    /// `Wirelength`, 40,000 moves: 1,740 accepted, 122,389.705 → 99,871.725 µm.
    const PINNED_WIRELENGTH_DIGEST: u64 = 0xcd25_60f5_4c26_ee34;
    /// `TimingDriven` default (auto move budget): 1,500 accepted.
    const PINNED_TIMING_DIGEST: u64 = 0x2237_09b2_da4f_435c;
    /// `TimingDriven`, 3 starts of 10,000 moves: 485 accepted.
    const PINNED_MULTI_START_DIGEST: u64 = 0xa45f_cb89_27d4_94d6;

    #[test]
    fn wirelength_placement_matches_pinned_digest() {
        let (nl, tech, fp, constraints) = digest_fixture();
        let cfg = PlacementConfig {
            mode: PlacementMode::Wirelength,
            iterations: 40_000,
            seed: 7,
            ..PlacementConfig::default()
        };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        assert_eq!(p.accepted_moves, 1_740);
        assert_eq!(p.hpwl_um.to_bits(), 99_871.725_061_482_94f64.to_bits());
        assert_eq!(p.initial_hpwl_um.to_bits(), 122_389.705_022_587_31f64.to_bits());
        assert_eq!(placement_digest(&p), PINNED_WIRELENGTH_DIGEST);
    }

    #[test]
    fn timing_driven_placement_matches_pinned_digest() {
        let (nl, tech, fp, constraints) = digest_fixture();
        let cfg = PlacementConfig { seed: 7, ..PlacementConfig::default() };
        let p = place(&nl, &tech, &fp, &constraints, &cfg);
        assert_eq!(p.accepted_moves, 1_500);
        assert_eq!(placement_digest(&p), PINNED_TIMING_DIGEST);
    }

    #[test]
    fn multi_start_placement_matches_pinned_digest() {
        let (nl, tech, fp, constraints) = digest_fixture();
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let cfg = PlacementConfig {
                seed: 7,
                starts: 3,
                iterations: 10_000,
                parallelism,
                ..PlacementConfig::default()
            };
            let p = place(&nl, &tech, &fp, &constraints, &cfg);
            assert_eq!(placement_digest(&p), PINNED_MULTI_START_DIGEST, "{parallelism:?}");
        }
    }

    /// Reference for the box check, independent of [`PinTables`]: the
    /// exact box of `movable` at `xy` plus `fixed`, and per edge the
    /// movable pins on it plus one if any fixed pin is.
    fn fresh_edge_box(movable: &[u32], fixed: &[[f64; 2]], xy: &[[f64; 2]]) -> EdgeBox {
        let points: Vec<[f64; 2]> =
            fixed.iter().copied().chain(movable.iter().map(|&i| xy[i as usize])).collect();
        let min = |k: usize| points.iter().map(|p| p[k]).fold(f64::INFINITY, f64::min);
        let max = |k: usize| points.iter().map(|p| p[k]).fold(f64::NEG_INFINITY, f64::max);
        let bbox = Bbox { min_x: min(0), max_x: max(0), min_y: min(1), max_y: max(1) };
        let on = |k: usize, v: f64| {
            movable.iter().filter(|&&i| xy[i as usize][k] == v).count() as u32
                + u32::from(fixed.iter().any(|p| p[k] == v))
        };
        EdgeBox {
            bbox,
            on_edge: [on(0, bbox.min_x), on(0, bbox.max_x), on(1, bbox.min_y), on(1, bbox.max_y)],
        }
    }

    /// Random displacements and swaps on synthetic nets. After every
    /// proposal the before/after sums equal fresh folds summed in net
    /// order; after every commit or revert each cached box and edge
    /// count, and every net's cost, equal a fresh fold. Runs with the
    /// production threshold, with every net edge-counted, and on a single
    /// row, where every net without fixed pins has a box of zero height.
    /// Also checks that the moves exercised swaps on a shared net, a pin
    /// of multiplicity 2, an edge whose only pin moved inward, and the
    /// fixed-pins-plus-one-movable net.
    #[test]
    fn incremental_boxes_match_fresh_folds() {
        const INSTS: usize = 30;
        let mut movable: Vec<Vec<u32>> = vec![
            (0..INSTS as u32).collect(),  // every instance, plus fixed pins
            (0..20).chain([3]).collect(), // instance 3 has two pins on it
            (10..INSTS as u32).collect(), // no fixed pins
            vec![5],                      // fixed pins plus one movable pin
            vec![7, 7, 8],                // small, multiplicity 2
        ];
        movable.extend((0..INSTS as u32 - 1).step_by(3).map(|i| vec![i, i + 1]));
        let mut fixed = vec![Vec::new(); movable.len()];
        fixed[0] = vec![[5.0, 7.5], [9.0, 1.5]];
        fixed[3] = vec![[1.0, 1.5], [5.0, 7.5], [13.0, 4.5]];
        let mut inst_pins = vec![Vec::new(); INSTS];
        for (net, pins) in movable.iter().enumerate() {
            for &i in pins {
                inst_pins[i as usize].push(net as u32);
            }
        }
        let fresh = |net: usize, xy: &[[f64; 2]]| fresh_edge_box(&movable[net], &fixed[net], xy);
        let pins_on = |net: usize, inst: usize| {
            movable[net].iter().filter(|&&i| i as usize == inst).count()
        };

        for (rows, small_net_pins, seed) in [(5, SMALL_NET_PINS, 1), (5, 0, 2), (1, 0, 3)] {
            let cols = if rows == 1 { 45 } else { 9 };
            let coords =
                |slot: usize| [(slot % cols) as f64 * 2.0 + 1.0, (slot / cols) as f64 * 3.0 + 1.5];
            let fixed_pins =
                fixed.iter().enumerate().flat_map(|(net, ps)| ps.iter().map(move |&p| (net, p)));
            let mut t = PinTables::new(
                movable.len(),
                INSTS,
                |i, buf| buf.extend(&inst_pins[i]),
                fixed_pins,
                small_net_pins,
            );
            t.weight[1] = 8.0;
            let fresh_cost = |net: usize, xy: &[[f64; 2]]| fresh(net, xy).bbox.cost(t.weight[net]);
            let mut occupant: Vec<u32> = (0..(rows * cols) as u32)
                .map(|s| if (s as usize) < INSTS { s } else { EMPTY_SLOT })
                .collect();
            let mut slot_of: Vec<usize> = (0..INSTS).collect();
            let mut xy: Vec<[f64; 2]> = slot_of.iter().map(|&s| coords(s)).collect();
            let (mut nets, _) = NetState::new(&t, &xy);
            let (mut shared, mut doubled, mut inward, mut fixed_plus_one) = (0, 0, 0, 0);
            let mut rng = SplitMix64::new(seed);
            for step in 0..3_000 {
                let a = rng.below(INSTS);
                let target = rng.below(rows * cols);
                let b = occupant[target];
                if b == a as u32 {
                    continue;
                }
                let mut touched: Vec<u32> = inst_pins[a].clone();
                if b != EMPTY_SLOT {
                    touched.extend(&inst_pins[b as usize]);
                }
                touched.sort_unstable();
                touched.dedup();
                let old_xy = xy.clone();
                let sa = Shift { inst: a, from: xy[a], to: coords(target) };
                xy[a] = sa.to;
                let sb = (b != EMPTY_SLOT).then(|| {
                    let s = Shift { inst: b as usize, from: xy[b as usize], to: sa.from };
                    xy[s.inst] = s.to;
                    s
                });
                let (before, after) = nets.propose(&t, &xy, sa, sb);
                let sum = |xy: &[[f64; 2]]| -> f64 {
                    touched.iter().map(|&n| fresh_cost(n as usize, xy)).sum()
                };
                let (before_ref, after_ref) = (sum(&old_xy), sum(&xy));
                assert_eq!(before.to_bits(), before_ref.to_bits(), "step {step}: before");
                assert_eq!(after.to_bits(), after_ref.to_bits(), "step {step}: after");

                // what this move exercised on the edge-counted nets
                for net in touched.iter().map(|&n| n as usize).filter(|&n| t.large[n] != SMALL) {
                    let on_a = pins_on(net, a);
                    let on_b = sb.map_or(0, |s| pins_on(net, s.inst));
                    shared += usize::from(on_a > 0 && on_b > 0);
                    doubled += usize::from(on_a == 2 || on_b == 2);
                    fixed_plus_one += usize::from(net == 3);
                    let (old, new) = (fresh(net, &old_xy), fresh(net, &xy).bbox);
                    let shrank = [
                        new.min_x > old.bbox.min_x,
                        new.max_x < old.bbox.max_x,
                        new.min_y > old.bbox.min_y,
                        new.max_y < old.bbox.max_y,
                    ];
                    inward += (0..4).filter(|&k| shrank[k] && old.on_edge[k] == 1).count();
                }

                if rng.chance(0.5) {
                    nets.commit();
                    let old_a = slot_of[a];
                    occupant[old_a] = b;
                    occupant[target] = a as u32;
                    slot_of[a] = target;
                    if let Some(s) = sb {
                        slot_of[s.inst] = old_a;
                    }
                } else {
                    xy = old_xy;
                }
                for net in 0..movable.len() {
                    let want = fresh(net, &xy);
                    let cost = want.bbox.cost(t.weight[net]);
                    assert_eq!(nets.cost[net].to_bits(), cost.to_bits(), "step {step}: net {net}");
                    if t.large[net] != SMALL {
                        let cached = nets.boxes[t.large[net] as usize];
                        assert_eq!(cached, want, "step {step}: net {net}");
                    }
                }
            }
            let seen = format!(
                "rows {rows}, threshold {small_net_pins}: shared {shared}, doubled {doubled}, \
                 inward {inward}, fixed+1 {fixed_plus_one}"
            );
            assert!(shared > 0 && doubled > 0 && inward > 0, "{seen}");
            assert!(small_net_pins > 0 || fixed_plus_one > 0, "{seen}");
        }
    }
}
