//! Grid-based global routing with congestion negotiation.
//!
//! The core is tiled into gcells; each net is first routed with L-shapes
//! pin-to-pin (a cheap Steiner approximation), then nets crossing
//! over-capacity edges are negotiated in PathFinder-style rip-up/reroute
//! rounds with an A* search whose edge cost grows with congestion.
//!
//! # Deterministic parallel negotiation
//!
//! Each round sweeps the overflowing nets in net-ID-ordered batches of
//! `REROUTE_BATCH`; each batch is a frozen-snapshot fan-out over
//! `camsoc-par`:
//!
//! 1. **Rip up** — the next `REROUTE_BATCH` nets (in net-ID order)
//!    whose paths still cross an over-capacity edge are selected and
//!    their usage removed from the grid.
//! 2. **Freeze** — the grid now holds exactly the congestion every net
//!    outside the batch imposes; no mutation happens until commit, so
//!    every A* in the batch searches the same frozen pressure state.
//! 3. **Fan out** — the batch is rerouted concurrently; each A* is a
//!    pure function of (pin chain, frozen grid, capacity, round
//!    pressure), so which worker runs which net cannot change any path.
//! 4. **Commit with staleness retry** — proposals are merged in input
//!    order by `camsoc-par` and committed in net-ID order. Commits only
//!    add usage, so a proposal whose cost under the live grid exceeds
//!    its planned cost was invalidated by a batch peer landing on its
//!    corridor; that net is rerouted against the live grid instead.
//!    Otherwise the proposal is still optimal and commits as planned.
//!
//! Every ingredient — batch boundaries, the staleness test, the retry —
//! depends only on net-ID order and deliberate constants, never the
//! thread count, so `Parallelism::Serial` and `Parallelism::Threads(n)`
//! are bit-for-bit identical for every `n`.
//!
//! Two PathFinder-classic refinements keep the parallel result at
//! serial quality: a per-edge **history cost** accumulated serially
//! between rounds (chronically overflowing corridors grow repulsive even
//! when a snapshot under-reports their instantaneous load), and a short
//! tail of **serial polish sweeps** (batch size 1 is exactly the classic
//! serial negotiator) that recovers the last few percent after the
//! batched rounds have done the bulk of the rip-up work.
//!
//! # Search scratch
//!
//! A* keeps its bookkeeping in a reusable `SearchScratch`: best cost,
//! parent and an epoch stamp per gcell in dense arrays, plus the open
//! list, so a search allocates nothing but the path it returns. Each
//! thread keeps one scratch in a thread-local: a fan-out worker reuses
//! it across its share of a batch, and the calling thread across
//! batches, sweeps and staleness retries. A thread's scratch stays
//! sized for the largest grid it has searched (16 bytes per gcell plus
//! the open list) until the thread exits.
//!
//! A scratch cannot change a path. Starting a search bumps the epoch, so
//! every cell an earlier search touched reads as unreached, just like a
//! missing key in a fresh map, and it empties the open list. What
//! decides the path is unchanged: the open-list order (f-score, then x,
//! then y) and the strict `<` relaxation. So a search returns the same
//! path whichever thread runs it and whatever that thread's scratch
//! searched before.

use std::collections::{BinaryHeap, HashMap};

use camsoc_netlist::graph::{NetId, Netlist};
use camsoc_par::Parallelism;

use crate::floorplan::Floorplan;
use crate::place::Placement;

/// Routable tracks per µm of gcell boundary. A 5LM 0.25 µm stack gives
/// four routing layers (M2–M5) at a 1.1 µm average pitch; the global
/// router has no layer assignment, so the per-direction capacities sum
/// to ~3.6/µm.
pub const TRACKS_PER_UM: f64 = 3.6;

/// Router configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Grid cells across the core (both axes scale to aspect); `0` =
    /// derive from the design size (≈√instances, so cells-per-gcell and
    /// per-edge demand stay roughly constant as designs grow).
    pub gcells: usize,
    /// Routing capacity per gcell edge (tracks); `0` = derive from the
    /// gcell size via [`TRACKS_PER_UM`].
    pub edge_capacity: u32,
    /// Multiplier on the **derived** edge capacity (ignored when
    /// `edge_capacity` is explicit): models a richer routing stack —
    /// the paper's SoC routed over six metal layers — without touching
    /// the per-layer track model. Capacity-starved designs otherwise
    /// spend every negotiation round ripping up and flood-searching
    /// thousands of nets; at 1.0 (the default) behaviour is
    /// bit-identical to before the knob existed.
    pub capacity_scale: f64,
    /// Rip-up/reroute rounds.
    pub rounds: usize,
    /// Congestion penalty multiplier for the reroute cost function.
    pub congestion_penalty: f64,
    /// Nets with more pins than this are excluded from signal routing
    /// (clock/reset/scan-enable class nets get dedicated distribution —
    /// CTS for the clock, spine routing for the others).
    pub max_fanout_routed: usize,
    /// Worker threads for the per-round reroute fan-out. The routed
    /// result is bit-identical for every setting (see the module docs);
    /// only wall-clock time changes.
    pub parallelism: Parallelism,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            gcells: 0, // auto from design size
            edge_capacity: 0, // auto from gcell size
            capacity_scale: 1.0,
            rounds: 8,
            congestion_penalty: 8.0,
            max_fanout_routed: 120,
            parallelism: Parallelism::Serial,
        }
    }
}

impl RouteConfig {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the config unchanged (bit-identical results); each level
    /// adds four rip-up/reroute rounds and 50 % more congestion penalty,
    /// the two knobs that trade runtime for overflow.
    pub fn escalated(&self, level: u32) -> RouteConfig {
        if level == 0 {
            return self.clone();
        }
        RouteConfig {
            rounds: self.rounds + 4 * level as usize,
            congestion_penalty: self.congestion_penalty * (1.0 + 0.5 * level as f64),
            ..self.clone()
        }
    }
}

/// Result of global routing.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    /// Grid dimensions (x, y).
    pub grid: (usize, usize),
    /// Gcell size in µm (x, y).
    pub gcell_um: (f64, f64),
    /// Per-net routed length in µm (0 for unrouted/single-pin nets).
    pub net_length_um: Vec<f64>,
    /// Total wirelength in µm.
    pub total_wirelength_um: f64,
    /// Edges whose usage exceeds capacity after the final round.
    pub overflowed_edges: usize,
    /// Total overflow: Σ max(0, usage − capacity) over all edges.
    pub total_overflow: u64,
    /// Routable nets whose final path still crosses an over-capacity
    /// edge — the nets detailed routing could not complete without
    /// intervention. 0 whenever `total_overflow` is 0.
    pub unrouted_nets: usize,
    /// Maximum edge utilisation (usage / capacity).
    pub max_utilisation: f64,
    /// Worker threads the negotiation fan-out resolved to (1 = serial).
    /// Not part of the routed result proper — recorded so callers that
    /// asked for parallel routing can detect a plumbing regression that
    /// silently dropped back to serial.
    pub threads_used: usize,
}

impl RouteResult {
    /// True when every routed net avoided over-capacity edges.
    pub fn clean(&self) -> bool {
        self.total_overflow == 0
    }
}

#[derive(Clone)]
struct Grid {
    nx: usize,
    ny: usize,
    /// horizontal edges: (nx-1) * ny
    h_usage: Vec<u32>,
    /// vertical edges: nx * (ny-1)
    v_usage: Vec<u32>,
    /// PathFinder history cost per horizontal edge: accumulated overflow
    /// from past rounds, so reroutes avoid chronically hot corridors even
    /// when the frozen snapshot under-reports their present usage
    h_hist: Vec<f64>,
    /// PathFinder history cost per vertical edge
    v_hist: Vec<f64>,
}

impl Grid {
    fn new(nx: usize, ny: usize) -> Grid {
        let nh = (nx.saturating_sub(1)) * ny;
        let nv = nx * ny.saturating_sub(1);
        Grid {
            nx,
            ny,
            h_usage: vec![0; nh],
            v_usage: vec![0; nv],
            h_hist: vec![0.0; nh],
            v_hist: vec![0.0; nv],
        }
    }
    fn h_index(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }
    fn v_index(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }
}

/// A routed net: sequence of gcell coordinates.
type Path = Vec<(usize, usize)>;

fn l_route(from: (usize, usize), to: (usize, usize)) -> Path {
    // Sized exactly. Routing follows parallel kernels whose buffers the
    // calling thread frees into its malloc cache (glibc tcache); a path
    // grown by reallocation from such a buffer keeps growing in the
    // worker's arena, which cost the 16K tapeout about 20 MB of peak RSS.
    let mut path = Vec::with_capacity(from.0.abs_diff(to.0) + from.1.abs_diff(to.1) + 1);
    path.push(from);
    let (mut x, mut y) = from;
    while x != to.0 {
        x = if x < to.0 { x + 1 } else { x - 1 };
        path.push((x, y));
    }
    while y != to.1 {
        y = if y < to.1 { y + 1 } else { y - 1 };
        path.push((x, y));
    }
    path
}

fn apply_path(grid: &mut Grid, path: &Path, delta: i64) {
    for w in path.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y0 == y1 {
            let idx = grid.h_index(x0.min(x1), y0);
            grid.h_usage[idx] = (grid.h_usage[idx] as i64 + delta).max(0) as u32;
        } else {
            let idx = grid.v_index(x0, y0.min(y1));
            grid.v_usage[idx] = (grid.v_usage[idx] as i64 + delta).max(0) as u32;
        }
    }
}

/// Visit every grid edge of `path` as `(is_horizontal, edge_index)`.
fn for_each_edge(grid: &Grid, path: &Path, mut f: impl FnMut(bool, usize)) {
    for w in path.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y0 == y1 {
            f(true, grid.h_index(x0.min(x1), y0));
        } else {
            f(false, grid.v_index(x0, y0.min(y1)));
        }
    }
}

/// Congestion cost of `path` under the grid's current usage + history.
fn path_cost(grid: &Grid, path: &Path, cap: u32, penalty: f64) -> f64 {
    let mut cost = 0.0;
    for_each_edge(grid, path, |is_h, idx| {
        let (u, h) = if is_h {
            (grid.h_usage[idx], grid.h_hist[idx])
        } else {
            (grid.v_usage[idx], grid.v_hist[idx])
        };
        cost += edge_cost(u, h, cap, penalty);
    });
    cost
}

fn path_crosses_overflow(grid: &Grid, path: &Path, cap: u32) -> bool {
    for w in path.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        let usage = if y0 == y1 {
            grid.h_usage[grid.h_index(x0.min(x1), y0)]
        } else {
            grid.v_usage[grid.v_index(x0, y0.min(y1))]
        };
        if usage > cap {
            return true;
        }
    }
    false
}

/// Open-list entry: f-score plus gcell coordinate.
///
/// Ordered for a min-heap on the f-score via [`f64::total_cmp`] (total
/// order, no NaN escape hatch), with equal scores tie-broken on the
/// coordinate — so heap pop order, and therefore every A* path, is a
/// pure function of the inputs on every platform. The old
/// `partial_cmp(..).unwrap_or(Equal)` collapsed exact-cost ties (common
/// on a unit-cost grid) to "equal", leaving pop order to heap internals.
struct Node(f64, (usize, usize));
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want the lowest f first;
        // among equal f, the lowest coordinate pops first
        other.0.total_cmp(&self.0).then_with(|| other.1.cmp(&self.1))
    }
}

/// `SearchScratch::parent` of a search's start cell: where path
/// reconstruction stops.
const NO_PARENT: u32 = u32::MAX;

/// Reusable A* bookkeeping: best cost, parent and stamp per gcell
/// (indexed `y * nx + x`) plus the open list. A cell's `best`/`parent`
/// entries belong to the current search only while its stamp equals
/// `epoch` (see the module docs, "Search scratch").
#[derive(Default)]
struct SearchScratch {
    best: Vec<f64>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    open: BinaryHeap<Node>,
}

impl SearchScratch {
    /// Start a search over `cells` gcells: grow the tables if needed and
    /// invalidate every entry.
    fn begin(&mut self, cells: usize) {
        if self.stamp.len() < cells {
            // parents are stored as u32 cell indices, NO_PARENT excluded
            assert!(
                cells < NO_PARENT as usize,
                "{cells} gcells exceed u32 cell indices"
            );
            self.best.resize(cells, 0.0);
            self.parent.resize(cells, NO_PARENT);
            self.stamp.resize(cells, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        self.open.clear();
    }
}

/// A* reroute with congestion-aware costs, on this thread's search
/// scratch.
fn astar(grid: &Grid, from: (usize, usize), to: (usize, usize), cap: u32, penalty: f64) -> Path {
    thread_local! {
        static SCRATCH: std::cell::RefCell<SearchScratch> =
            std::cell::RefCell::new(SearchScratch::default());
    }
    SCRATCH.with(|s| astar_with(grid, from, to, cap, penalty, &mut s.borrow_mut()))
}

/// [`astar`] on an explicit scratch.
fn astar_with(
    grid: &Grid,
    from: (usize, usize),
    to: (usize, usize),
    cap: u32,
    penalty: f64,
    s: &mut SearchScratch,
) -> Path {
    let nx = grid.nx;
    let h = |p: (usize, usize)| -> f64 {
        (p.0.abs_diff(to.0) + p.1.abs_diff(to.1)) as f64
    };
    s.begin(nx * grid.ny);
    let epoch = s.epoch;
    let start = from.1 * nx + from.0;
    s.stamp[start] = epoch;
    s.best[start] = 0.0;
    s.parent[start] = NO_PARENT;
    s.open.push(Node(h(from), from));
    while let Some(Node(_, cur)) = s.open.pop() {
        let (x, y) = cur;
        let here = y * nx + x;
        if cur == to {
            let mut path = vec![to];
            let mut p = s.parent[here];
            while p != NO_PARENT {
                let cell = p as usize;
                path.push((cell % nx, cell / nx));
                p = s.parent[cell];
            }
            path.reverse();
            return path;
        }
        let g = s.best[here];
        // an unreached cell is always taken; a reached one only on a
        // strictly better cost
        let mut relax = |np: (usize, usize), n: usize, cost: f64| {
            let ng = g + cost;
            if s.stamp[n] != epoch || ng < s.best[n] {
                s.stamp[n] = epoch;
                s.best[n] = ng;
                s.parent[n] = here as u32;
                s.open.push(Node(ng + h(np), np));
            }
        };
        if x + 1 < nx {
            let i = grid.h_index(x, y);
            let c = edge_cost(grid.h_usage[i], grid.h_hist[i], cap, penalty);
            relax((x + 1, y), here + 1, c);
        }
        if x > 0 {
            let i = grid.h_index(x - 1, y);
            let c = edge_cost(grid.h_usage[i], grid.h_hist[i], cap, penalty);
            relax((x - 1, y), here - 1, c);
        }
        if y + 1 < grid.ny {
            let i = grid.v_index(x, y);
            let c = edge_cost(grid.v_usage[i], grid.v_hist[i], cap, penalty);
            relax((x, y + 1), here + nx, c);
        }
        if y > 0 {
            let i = grid.v_index(x, y - 1);
            let c = edge_cost(grid.v_usage[i], grid.v_hist[i], cap, penalty);
            relax((x, y - 1), here - nx, c);
        }
    }
    l_route(from, to) // unreachable in a connected grid; fallback
}

fn edge_cost(usage: u32, hist: f64, cap: u32, penalty: f64) -> f64 {
    (1.0 + penalty * (usage as f64 / cap.max(1) as f64).powi(3)) * (1.0 + hist)
}

/// Per-round gain on the accumulated history cost: each unit of
/// overflow on an edge adds `HISTORY_GAIN / capacity` to its multiplier.
const HISTORY_GAIN: f64 = 0.25;

/// Nets ripped up per frozen-snapshot reroute batch. A deliberate
/// constant — NOT derived from the thread count — because the batch
/// boundaries are part of the deterministic round structure: changing
/// them changes the routed result, changing the thread count must not.
const REROUTE_BATCH: usize = 16;

/// Serial polish sweeps after the batched rounds (batch size 1 ==
/// classic serial negotiation). Bounded so the serial tail stays a small
/// fraction of the total negotiation work.
const POLISH_SWEEPS: usize = 4;

/// Stitch a pin chain into one path with `seg` per adjacent pair.
fn stitch(
    chain: &[(usize, usize)],
    mut seg: impl FnMut((usize, usize), (usize, usize)) -> Path,
) -> Path {
    let mut full: Path = Vec::new();
    for pair in chain.windows(2) {
        let s = seg(pair[0], pair[1]);
        if full.is_empty() {
            full = s;
        } else {
            full.extend_from_slice(&s[1..]);
        }
    }
    full
}

/// One negotiation sweep: rip up and reroute every net whose path
/// crosses an over-capacity edge, in net-ID-ordered batches of at most
/// `batch_size`.
///
/// A candidate is re-checked against the current grid when its batch
/// forms — earlier commits this sweep may already have relieved its
/// edges, in which case it keeps its path (exactly as the serial
/// negotiator would have skipped it). Each batch is ripped up, rerouted
/// in parallel against the frozen remainder, and committed in net-ID
/// order with a staleness retry before the next batch forms — so every
/// net sees the present usage of every net outside its own batch, and
/// the batch boundaries (a constant, never the thread count) fully
/// determine the result. Serial == 2t == 4t bit-for-bit.
///
/// Returns the number of nets rerouted.
#[allow(clippy::too_many_arguments)]
fn negotiate_sweep(
    grid: &mut Grid,
    paths: &mut [Option<Path>],
    routable: &[NetId],
    chains: &[Vec<(usize, usize)>],
    capacity: u32,
    pressure: f64,
    batch_size: usize,
    par: Parallelism,
) -> usize {
    let candidates: Vec<usize> = (0..routable.len())
        .filter(|&k| {
            paths[routable[k].index()]
                .as_ref()
                .is_some_and(|p| path_crosses_overflow(grid, p, capacity))
        })
        .collect();
    let mut rerouted_count = 0usize;
    let mut cursor = candidates.iter().copied();
    loop {
        let batch: Vec<usize> = cursor
            .by_ref()
            .filter(|&k| {
                paths[routable[k].index()]
                    .as_ref()
                    .is_some_and(|p| path_crosses_overflow(grid, p, capacity))
            })
            .take(batch_size)
            .collect();
        if batch.is_empty() {
            break;
        }
        rerouted_count += batch.len();
        for &k in &batch {
            let old = paths[routable[k].index()].take().expect("routed");
            apply_path(grid, &old, -1);
        }
        // frozen snapshot: `grid` is only read until this batch's
        // commit, so every A* in the fan-out searches the same state
        let snapshot = &*grid;
        let proposed: Vec<(Path, f64)> = camsoc_par::map(par, &batch, |&k| {
            let p = stitch(&chains[k], |a, b| astar(snapshot, a, b, capacity, pressure));
            let cost = path_cost(snapshot, &p, capacity, pressure);
            (p, cost)
        });
        // Optimistic commit in net-ID order (`batch` ascends in k, and
        // `routable` ascends in net ID). A proposed path was planned
        // blind to its batch peers; commits only add usage, so if its
        // cost under the live grid has risen above its planned cost, a
        // peer landed on its corridor and the plan is stale — reroute
        // that net against the live grid instead. The staleness test and
        // the retry depend only on the commit order, so the outcome is
        // identical for every thread count.
        for (&k, (full, planned_cost)) in batch.iter().zip(proposed) {
            let live_cost = path_cost(grid, &full, capacity, pressure);
            let full = if live_cost > planned_cost + 1e-9 {
                stitch(&chains[k], |a, b| astar(grid, a, b, capacity, pressure))
            } else {
                full
            };
            apply_path(grid, &full, 1);
            paths[routable[k].index()] = Some(full);
        }
    }
    rerouted_count
}

/// Fold this round's overflow into the persistent history costs.
/// Runs serially between rounds, so it is deterministic regardless of
/// how the round's reroutes were scheduled.
fn accumulate_history(grid: &mut Grid, cap: u32) {
    let capf = cap.max(1) as f64;
    for (usage, hist) in grid
        .h_usage
        .iter()
        .zip(grid.h_hist.iter_mut())
        .chain(grid.v_usage.iter().zip(grid.v_hist.iter_mut()))
    {
        if *usage > cap {
            *hist += HISTORY_GAIN * (*usage - cap) as f64 / capf;
        }
    }
}

/// Route a placed netlist.
pub fn route(
    nl: &Netlist,
    fp: &Floorplan,
    placement: &Placement,
    config: &RouteConfig,
) -> RouteResult {
    let nx = if config.gcells >= 2 {
        config.gcells
    } else {
        ((nl.num_instances() as f64).sqrt() as usize).clamp(24, 112)
    };
    let aspect = (fp.core.h / fp.core.w).max(0.05);
    let ny = ((nx as f64 * aspect).ceil() as usize).max(2);
    let gx = fp.core.w / nx as f64;
    let gy = fp.core.h / ny as f64;
    let capacity = if config.edge_capacity > 0 {
        config.edge_capacity
    } else {
        // scale applied before truncation: at exactly 1.0 the product
        // is the identity, so the default capacity is bit-identical to
        // the pre-`capacity_scale` derivation
        ((gx.min(gy) * TRACKS_PER_UM * config.capacity_scale) as u32).max(4)
    };
    let mut grid = Grid::new(nx, ny);

    let to_gcell = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x / gx) as usize).min(nx - 1),
            ((y / gy) as usize).min(ny - 1),
        )
    };

    // net pins: instance pins + macro pins + port pins
    let mut pins: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nl.num_nets()];
    for (id, inst) in nl.instances() {
        let g = to_gcell(placement.x[id.index()], placement.y[id.index()]);
        for &net in &inst.inputs {
            pins[net.index()].push(g);
        }
        pins[inst.output.index()].push(g);
        if let Some(c) = inst.clock {
            pins[c.index()].push(g);
        }
    }
    // macro pins spread along the macro's bottom edge (like a real
    // hard-macro pin row), not piled onto one gcell
    let macro_rect: HashMap<usize, crate::floorplan::Rect> =
        fp.macros.iter().map(|(id, r)| (id.index(), *r)).collect();
    for (mid, m) in nl.macros() {
        if let Some(rect) = macro_rect.get(&mid.index()) {
            let total = (m.inputs.len() + m.outputs.len()).max(1);
            for (j, &net) in m.inputs.iter().chain(&m.outputs).enumerate() {
                let px = rect.x + (j as f64 + 0.5) / total as f64 * rect.w;
                let g = to_gcell(
                    px.clamp(0.0, fp.core.w - 1e-6),
                    rect.y.clamp(0.0, fp.core.h - 1e-6),
                );
                pins[net.index()].push(g);
            }
        }
    }
    // ports spread around the core boundary, matching the placement
    // model's pin positions (funneling them all into one corner would
    // fabricate congestion that doesn't exist)
    let nports = nl.num_ports().max(1);
    for (i, (_, p)) in nl.ports().enumerate() {
        let t = i as f64 / nports as f64;
        let perim = 2.0 * (fp.core.w + fp.core.h);
        let d = t * perim;
        let (px, py) = if d < fp.core.w {
            (d, 0.0)
        } else if d < fp.core.w + fp.core.h {
            (fp.core.w, d - fp.core.w)
        } else if d < 2.0 * fp.core.w + fp.core.h {
            (2.0 * fp.core.w + fp.core.h - d, fp.core.h)
        } else {
            (0.0, perim - d)
        };
        pins[p.net.index()].push(to_gcell(
            px.min(fp.core.w - 1e-6).max(0.0),
            py.min(fp.core.h - 1e-6).max(0.0),
        ));
    }

    // canonical pin chain per routable net (pins sorted by x, deduped),
    // computed once — every (re)route of a net stitches the same chain
    let fanout_counts = nl.fanout_counts();
    let mut routable: Vec<NetId> = Vec::new(); // ascending net-ID order
    let mut chains: Vec<Vec<(usize, usize)>> = Vec::new();
    for (id, _) in nl.nets() {
        if fanout_counts[id.index()] > config.max_fanout_routed {
            continue; // clock/reset class: dedicated distribution
        }
        let mut p = pins[id.index()].clone();
        p.sort_unstable();
        p.dedup();
        if p.len() >= 2 {
            routable.push(id);
            chains.push(p);
        }
    }

    // initial L-routing
    let mut paths: Vec<Option<Path>> = vec![None; nl.num_nets()];
    for (k, &net) in routable.iter().enumerate() {
        let full = stitch(&chains[k], l_route);
        apply_path(&mut grid, &full, 1);
        paths[net.index()] = Some(full);
    }

    // PathFinder negotiation rounds with escalating pressure: rip up
    // every overflowing net in net-ID-ordered batches, freeze the
    // remainder's congestion, fan the reroutes over the worker pool,
    // commit in net-ID order with a deterministic staleness retry. See
    // the module docs for why this is thread-count independent.
    if config.rounds > 0 {
        for round in 0..config.rounds {
            let pressure = config.congestion_penalty * (round + 1) as f64;
            let rerouted = negotiate_sweep(
                &mut grid,
                &mut paths,
                &routable,
                &chains,
                capacity,
                pressure,
                REROUTE_BATCH,
                config.parallelism,
            );
            if rerouted == 0 {
                break;
            }
            // serial history update: edges that still overflow after this
            // round's commits get more repulsive for every later round
            accumulate_history(&mut grid, capacity);
        }
        // Serial polish sweeps: batch size 1 is exactly the classic
        // serial negotiator (each reroute sees every prior commit), so a
        // couple of sweeps recover the last few percent of quality the
        // batched rounds leave on the table. A deliberately small serial
        // tail — the parallel rounds above have already done the bulk of
        // the rip-up work by the time these run.
        for sweep in 0..POLISH_SWEEPS {
            let pressure =
                config.congestion_penalty * (config.rounds + sweep + 1) as f64;
            let rerouted = negotiate_sweep(
                &mut grid,
                &mut paths,
                &routable,
                &chains,
                capacity,
                pressure,
                1,
                Parallelism::Serial,
            );
            if rerouted == 0 {
                break;
            }
            accumulate_history(&mut grid, capacity);
        }
    }

    // accounting
    let seg_len = |a: (usize, usize), b: (usize, usize)| -> f64 {
        if a.1 == b.1 {
            gx
        } else {
            gy
        }
    };
    let mut net_length_um = vec![0.0; nl.num_nets()];
    let mut total = 0.0;
    for (i, p) in paths.iter().enumerate() {
        if let Some(p) = p {
            let len: f64 = p.windows(2).map(|w| seg_len(w[0], w[1])).sum();
            net_length_um[i] = len;
            total += len;
        }
    }
    let mut overflow = 0usize;
    let mut total_overflow = 0u64;
    let mut max_util = 0.0f64;
    for &u in grid.h_usage.iter().chain(&grid.v_usage) {
        let util = u as f64 / capacity.max(1) as f64;
        max_util = max_util.max(util);
        if u > capacity {
            overflow += 1;
            total_overflow += (u - capacity) as u64;
        }
    }
    let unrouted_nets = if total_overflow == 0 {
        0
    } else {
        routable
            .iter()
            .filter(|net| {
                paths[net.index()]
                    .as_ref()
                    .is_some_and(|p| path_crosses_overflow(&grid, p, capacity))
            })
            .count()
    };
    RouteResult {
        grid: (nx, ny),
        gcell_um: (gx, gy),
        net_length_um,
        total_wirelength_um: total,
        overflowed_edges: overflow,
        total_overflow,
        unrouted_nets,
        max_utilisation: max_util,
        threads_used: config.parallelism.threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlacementConfig, PlacementMode};
    use camsoc_netlist::generate::{self, IpBlockParams};
    use camsoc_netlist::tech::Technology;
    use camsoc_sta::Constraints;

    fn routed(gates: usize, cfg: &RouteConfig) -> (Netlist, RouteResult) {
        let nl = generate::ip_block(
            "blk",
            &IpBlockParams { target_gates: gates, seed: 3, ..Default::default() },
        )
        .unwrap();
        let tech = Technology::default();
        let fp = Floorplan::generate(&nl, &tech).unwrap();
        let constraints = Constraints::single_clock("clk", 7.5);
        let pcfg = PlacementConfig {
            mode: PlacementMode::Wirelength,
            iterations: 5_000,
            ..PlacementConfig::default()
        };
        let p = place(&nl, &tech, &fp, &constraints, &pcfg);
        let r = route(&nl, &fp, &p, cfg);
        (nl, r)
    }

    #[test]
    fn l_route_connects_endpoints() {
        let p = l_route((0, 0), (3, 2));
        assert_eq!(p.first(), Some(&(0, 0)));
        assert_eq!(p.last(), Some(&(3, 2)));
        assert_eq!(p.len(), 6); // 3 horizontal + 2 vertical + origin
        for w in p.windows(2) {
            let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1);
            assert_eq!(d, 1, "non-adjacent step");
        }
    }

    #[test]
    fn routing_produces_lengths_for_multi_pin_nets() {
        let (nl, r) = routed(400, &RouteConfig::default());
        assert!(r.total_wirelength_um > 0.0);
        let routed_nets = r.net_length_um.iter().filter(|&&l| l > 0.0).count();
        assert!(routed_nets > nl.num_nets() / 4, "{routed_nets} routed");
    }

    #[test]
    fn negotiation_reduces_total_overflow() {
        // Moderate shortage: negotiation should shed hot spots. The metric
        // is total overflow (demand above capacity summed over edges) —
        // spreading one saturated trunk across several near-capacity
        // edges is exactly what negotiation is for.
        let tight = RouteConfig { edge_capacity: 8, rounds: 0, ..RouteConfig::default() };
        let (_, r0) = routed(600, &tight);
        assert!(r0.total_overflow > 0, "test needs initial congestion");
        let negotiated =
            RouteConfig { edge_capacity: 8, rounds: 3, ..RouteConfig::default() };
        let (_, r3) = routed(600, &negotiated);
        assert!(
            r3.total_overflow <= r0.total_overflow,
            "negotiation made it worse: {} -> {}",
            r0.total_overflow,
            r3.total_overflow
        );
        assert!(r3.max_utilisation <= r0.max_utilisation + 1e-9);
    }

    #[test]
    fn generous_capacity_has_no_overflow() {
        let cfg = RouteConfig { edge_capacity: 10_000, ..RouteConfig::default() };
        let (_, r) = routed(300, &cfg);
        assert_eq!(r.overflowed_edges, 0);
        assert_eq!(r.unrouted_nets, 0);
        assert!(r.clean());
        assert!(r.max_utilisation < 1.0);
    }

    #[test]
    fn overflow_surfaces_unrouted_nets() {
        let tight = RouteConfig { edge_capacity: 4, rounds: 0, ..RouteConfig::default() };
        let (_, r) = routed(600, &tight);
        assert!(r.total_overflow > 0, "test needs congestion");
        assert!(!r.clean());
        assert!(r.unrouted_nets > 0, "overflow must name the nets stuck in it");
    }

    #[test]
    fn escalation_is_identity_at_level_zero_and_monotonic() {
        let base = RouteConfig::default();
        let e0 = base.escalated(0);
        assert_eq!(e0.rounds, base.rounds);
        assert_eq!(e0.congestion_penalty, base.congestion_penalty);
        let e1 = base.escalated(1);
        let e2 = base.escalated(2);
        assert!(e1.rounds > base.rounds);
        assert!(e2.rounds > e1.rounds);
        assert!(e1.congestion_penalty > base.congestion_penalty);
        assert!(e2.congestion_penalty > e1.congestion_penalty);
    }

    /// Final overflow of the *serial* negotiator on this exact workload
    /// (600-gate ip_block seed 3, Wirelength placement, capacity 8,
    /// default rounds), measured immediately before the negotiation loop
    /// was parallelized. The parallel negotiator must never be worse.
    const SEQUENTIAL_BASELINE_OVERFLOW: u64 = 180;

    #[test]
    fn parallel_negotiation_matches_sequential_quality() {
        let cfg = RouteConfig {
            edge_capacity: 8,
            parallelism: Parallelism::Threads(4),
            ..RouteConfig::default()
        };
        let (_, r) = routed(600, &cfg);
        assert!(
            r.total_overflow <= SEQUENTIAL_BASELINE_OVERFLOW,
            "parallel negotiation regressed routing quality: {} > {} (sequential baseline)",
            r.total_overflow,
            SEQUENTIAL_BASELINE_OVERFLOW
        );
        assert_eq!(r.threads_used, 4);
    }

    /// FNV-1a over the routed result: every net's length bits, then
    /// total overflow, overflowed edges and total wirelength bits.
    fn route_digest(r: &RouteResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = r.net_length_um.iter().map(|l| l.to_bits()).chain([
            r.total_overflow,
            r.overflowed_edges as u64,
            r.total_wirelength_um.to_bits(),
        ]);
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// [`route_digest`] of the congested fixture (600-gate ip_block
    /// seed 3, Wirelength placement, capacity 8, default rounds),
    /// recorded with the `HashMap`-bookkept A* that preceded
    /// [`SearchScratch`]: 167 total overflow on 140 edges, 47,013.882 µm.
    const PINNED_ROUTE_DIGEST: u64 = 0x7d28_8446_ec12_af76;

    #[test]
    fn congested_route_matches_pinned_digest() {
        for par in [Parallelism::Serial, Parallelism::Threads(2)] {
            let cfg = RouteConfig {
                edge_capacity: 8,
                parallelism: par,
                ..RouteConfig::default()
            };
            let (_, r) = routed(600, &cfg);
            assert_eq!(r.total_overflow, 167, "{par:?}");
            assert_eq!(r.overflowed_edges, 140, "{par:?}");
            assert_eq!(
                r.total_wirelength_um.to_bits(),
                47_013.882_105_329_33f64.to_bits(),
                "{par:?}"
            );
            assert_eq!(route_digest(&r), PINNED_ROUTE_DIGEST, "{par:?}");
        }
    }

    #[test]
    fn routed_result_is_thread_count_invariant() {
        let mk = |par: Parallelism| {
            let cfg = RouteConfig {
                edge_capacity: 8,
                rounds: 2,
                parallelism: par,
                ..RouteConfig::default()
            };
            routed(300, &cfg).1
        };
        let serial = mk(Parallelism::Serial);
        for t in [2usize, 3] {
            let par = mk(Parallelism::Threads(t));
            assert_eq!(par.net_length_um, serial.net_length_um, "t{t}");
            assert_eq!(par.total_overflow, serial.total_overflow, "t{t}");
            assert_eq!(par.overflowed_edges, serial.overflowed_edges, "t{t}");
            assert_eq!(par.total_wirelength_um, serial.total_wirelength_um, "t{t}");
            assert_eq!(par.threads_used, t, "t{t}");
        }
    }

    #[test]
    fn open_list_breaks_cost_ties_on_coordinates() {
        // equal f-scores must pop in ascending coordinate order — the
        // tie-break that keeps heap order (and so every A* path) a pure
        // function of the inputs on every platform
        let mut heap = BinaryHeap::new();
        heap.push(Node(2.0, (0, 0)));
        heap.push(Node(1.0, (5, 1)));
        heap.push(Node(1.0, (1, 9)));
        heap.push(Node(1.0, (1, 2)));
        let order: Vec<_> = std::iter::from_fn(|| heap.pop()).map(|n| n.1).collect();
        assert_eq!(order, vec![(1, 2), (1, 9), (5, 1), (0, 0)]);
        // total_cmp gives NaN a fixed place in the order instead of
        // collapsing every comparison against it to "equal"
        assert_eq!(Node(f64::NAN, (0, 0)).cmp(&Node(f64::NAN, (0, 0))), std::cmp::Ordering::Equal);
        assert_ne!(Node(f64::NAN, (0, 0)).cmp(&Node(1.0, (0, 0))), std::cmp::Ordering::Equal);
    }

    #[test]
    fn reused_search_scratch_matches_fresh_scratch() {
        use camsoc_netlist::generate::SplitMix64;
        // seeded usage/history grids; `hot = false` leaves every edge at
        // the same cost, so only the open list's coordinate tie-break
        // decides among the equal-length paths
        let grid = |nx: usize, ny: usize, hot: bool, rng: &mut SplitMix64| {
            let mut g = Grid::new(nx, ny);
            if hot {
                for u in g.h_usage.iter_mut().chain(g.v_usage.iter_mut()) {
                    *u = rng.below(16) as u32;
                }
                for h in g.h_hist.iter_mut().chain(g.v_hist.iter_mut()) {
                    *h = rng.below(4) as f64 * 0.25;
                }
            }
            g
        };
        let mut rng = SplitMix64::new(0x5ea5_c4a7);
        // small, large (forces a resize), small again (stale cells past
        // the small grid's end), and the uniform-cost tie-break grids
        let grids = [
            grid(7, 5, true, &mut rng),
            grid(23, 19, true, &mut rng),
            grid(7, 5, true, &mut rng),
            grid(23, 19, false, &mut rng),
            grid(7, 5, false, &mut rng),
        ];
        let fresh = |g: &Grid, a, b| astar_with(g, a, b, 8, 8.0, &mut SearchScratch::default());
        let mut shared = SearchScratch::default();
        for round in 0..2 {
            if round == 1 {
                // forced wrap: a search at epoch 1 leaves its stamps,
                // then the counter wraps back to 1. Those stamps must
                // read as unreached, or the reverse search finds its
                // target already "reached" at cost 0 and never gets there.
                let big = &grids[1];
                let (a, b) = ((0, 0), (big.nx - 1, big.ny - 1));
                shared.epoch = 0;
                astar_with(big, a, b, 8, 8.0, &mut shared);
                shared.epoch = u32::MAX;
                let wrapped = astar_with(big, b, a, 8, 8.0, &mut shared);
                assert_eq!(shared.epoch, 1, "epoch did not wrap");
                assert_eq!(wrapped, fresh(big, b, a), "after the epoch wrap");
            }
            for g in &grids {
                for _ in 0..12 {
                    let a = (rng.below(g.nx), rng.below(g.ny));
                    let b = (rng.below(g.nx), rng.below(g.ny));
                    let reused = astar_with(g, a, b, 8, 8.0, &mut shared);
                    let (nx, ny) = (g.nx, g.ny);
                    assert_eq!(reused, fresh(g, a, b), "{nx}x{ny} grid, {a:?} -> {b:?}");
                }
            }
        }
    }

    #[test]
    fn astar_prefers_uncongested_detour() {
        let mut grid = Grid::new(5, 5);
        // congest the straight corridor at y=0
        for x in 0..4 {
            let idx = grid.h_index(x, 0);
            grid.h_usage[idx] = 100;
        }
        let p = astar(&grid, (0, 0), (4, 0), 10, 8.0);
        assert_eq!(p.first(), Some(&(0, 0)));
        assert_eq!(p.last(), Some(&(4, 0)));
        // detour leaves row 0
        assert!(p.iter().any(|&(_, y)| y > 0), "no detour: {p:?}");
    }
}
