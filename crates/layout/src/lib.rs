//! # camsoc-layout
//!
//! Physical design: floorplanning, timing-driven placement, global
//! routing, clock-tree synthesis, parasitic extraction, DRC, LVS and
//! GDSII export.
//!
//! The paper's silicon phase — "the physical design of the chip was done
//! with timing-driven placement and routing, physical synthesis, formal
//! verification and STA QoR check", ending in a Netlist-to-GDSII
//! hand-off — is rebuilt here over the [`camsoc_netlist`] IR:
//!
//! * [`floorplan`] — die sizing from cell area, standard-cell rows,
//!   memory-macro placement.
//! * [`place`] — simulated-annealing placement, wirelength-driven or
//!   timing-driven (criticality-weighted via [`camsoc_sta`]).
//! * [`route`] — grid-based global routing with congestion negotiation.
//! * [`cts`] — recursive H-tree clock distribution with per-flop latency
//!   and skew accounting.
//! * [`extract`] — routed-length → per-net RC delay, feeding sign-off STA.
//! * [`si`] — signal integrity: crosstalk screening, dynamic IR-drop
//!   estimation and decap insertion (the conclusion's "next projects
//!   require" list).
//! * [`drc`] — placement/routing design-rule checks.
//! * [`lvs`] — layout-vs-schematic connectivity comparison.
//! * [`gdsii`] — binary GDSII stream writer (the tape-out artifact).
//!
//! The one-call driver is [`implement`], which runs the whole back end
//! and returns a [`LayoutResult`] with the sign-off artefacts. Its two
//! timing analyses (timing-driven placement's critical path and the
//! sign-off STA) share one compiled snapshot of the netlist.

pub mod codec;
pub mod cts;
pub mod drc;
pub mod extract;
pub mod floorplan;
pub mod gdsii;
pub mod lvs;
pub mod place;
pub mod route;
pub mod si;

use std::collections::HashMap;

use camsoc_netlist::compiled::CompiledNetlist;
use camsoc_netlist::graph::Netlist;
use camsoc_netlist::tech::Technology;
use camsoc_sta::{Constraints, MacroTiming, Sta, StaError, TimingReport};

/// Physical + timing view of pre-hardened macros, consumed by
/// [`implement_with`]: exact outlines for the floorplanner (macros
/// become fixed obstacles of their hardened size) and boundary timing
/// models for the sign-off STA. Keyed by macro instance name; macros
/// without entries keep the generic SRAM treatment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HardMacros {
    /// Hardened outline `(width, height)` in µm per macro instance.
    pub outlines_um: HashMap<String, (f64, f64)>,
    /// Boundary timing model per macro instance.
    pub timing: HashMap<String, MacroTiming>,
}

/// Options for the full back-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplementOptions {
    /// Placement effort and mode.
    pub placement: place::PlacementConfig,
    /// Routing grid resolution.
    pub routing: route::RouteConfig,
    /// Clock port name for CTS (must match a constraint clock).
    pub clock_port: String,
}

impl Default for ImplementOptions {
    fn default() -> Self {
        ImplementOptions {
            placement: place::PlacementConfig::default(),
            routing: route::RouteConfig::default(),
            clock_port: "clk".to_string(),
        }
    }
}

impl ImplementOptions {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the options unchanged; higher levels escalate placement
    /// (more annealing starts/moves) and routing (more rip-up rounds,
    /// higher congestion penalty) together. See
    /// [`place::PlacementConfig::escalated`] and
    /// [`route::RouteConfig::escalated`].
    pub fn escalated(&self, level: u32) -> ImplementOptions {
        ImplementOptions {
            placement: self.placement.escalated(level),
            routing: self.routing.escalated(level),
            ..self.clone()
        }
    }
}

/// Everything the back end produces.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutResult {
    /// The floorplan.
    pub floorplan: floorplan::Floorplan,
    /// Final placement.
    pub placement: place::Placement,
    /// Global-routing result.
    pub routing: route::RouteResult,
    /// Clock tree.
    pub clock_tree: cts::ClockTree,
    /// Extracted per-net wire delays (ns).
    pub wire_delays_ns: Vec<f64>,
    /// Post-route DRC report.
    pub drc: drc::DrcReport,
    /// Post-route sign-off timing.
    pub timing: TimingReport,
}

/// Error from the back-end driver.
#[derive(Debug)]
pub enum LayoutError {
    /// Floorplanning failed (die cannot fit the design).
    Floorplan(String),
    /// Timing analysis failed.
    Sta(camsoc_sta::StaError),
    /// Routing left more overflow than the caller's quality gate
    /// allows (the back end itself reports overflow and never fails on
    /// it; the flow supervisor's routing gate builds this error).
    Routing {
        /// Residual overflow in tracks (Σ max(0, usage − capacity)).
        total_overflow: u64,
        /// Nets whose final path crosses an over-capacity edge.
        unrouted: usize,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::Floorplan(m) => write!(f, "floorplan: {m}"),
            LayoutError::Sta(e) => write!(f, "sta: {e}"),
            LayoutError::Routing { total_overflow, unrouted } => write!(
                f,
                "routing: {total_overflow} tracks of residual overflow across \
                 {unrouted} unrouted nets"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

impl From<camsoc_sta::StaError> for LayoutError {
    fn from(e: camsoc_sta::StaError) -> Self {
        LayoutError::Sta(e)
    }
}

/// Run the full back end: floorplan → place → CTS → route → extract →
/// DRC → sign-off STA, over one compile of `nl`.
///
/// # Errors
///
/// [`LayoutError`] if the netlist does not compile (a combinational
/// cycle), or floorplanning or timing analysis fails. Residual routing
/// overflow is reported in the result, never an error here.
pub fn implement(
    nl: &Netlist,
    tech: &Technology,
    constraints: &Constraints,
    options: &ImplementOptions,
) -> Result<LayoutResult, LayoutError> {
    let compiled = nl.compile().map_err(StaError::from)?;
    implement_with(nl, &compiled, tech, constraints, options, None)
}

/// [`implement`] over `compiled`, a current snapshot of `nl` the caller
/// already holds, with pre-hardened macro knowledge: the floorplanner
/// places each hardened macro as a fixed obstacle of its exact
/// hardened outline (placement legalizes around it, routing avoids its
/// footprint via the shared floorplan), and the sign-off STA times
/// through the abstracts' boundary arcs instead of the generic memory
/// model. `None` (or an empty [`HardMacros`]) times every macro with the
/// generic model, as [`implement`] does.
///
/// # Errors
///
/// Same as [`implement`], except that nothing is compiled.
///
/// # Panics
///
/// Panics if the snapshot's instance or net count differs from the
/// netlist's.
pub fn implement_with(
    nl: &Netlist,
    compiled: &CompiledNetlist,
    tech: &Technology,
    constraints: &Constraints,
    options: &ImplementOptions,
    hard: Option<&HardMacros>,
) -> Result<LayoutResult, LayoutError> {
    let empty = HashMap::new();
    let outlines = hard.map_or(&empty, |h| &h.outlines_um);
    let floorplan = floorplan::Floorplan::generate_with(nl, tech, outlines)
        .map_err(LayoutError::Floorplan)?;
    let placement = place::place_with_compiled(
        nl,
        compiled,
        tech,
        &floorplan,
        constraints,
        &options.placement,
    );
    let clock_tree = cts::synthesize(nl, tech, &floorplan, &placement, &options.clock_port);
    let routing = route::route(nl, &floorplan, &placement, &options.routing);
    let wire_delays_ns = extract::wire_delays(nl, tech, &routing);
    let drc = drc::check(nl, &floorplan, &placement, &routing);
    let mut sta = Sta::new(nl, tech, constraints.clone())
        .with_compiled(compiled)
        .with_wire_delays(wire_delays_ns.clone())
        .with_clock_latency(clock_tree.latency_ns.clone());
    if let Some(h) = hard {
        sta = sta.with_macro_timing(h.timing.clone());
    }
    let timing = sta.analyze()?;
    Ok(LayoutResult {
        floorplan,
        placement,
        routing,
        clock_tree,
        wire_delays_ns,
        drc,
        timing,
    })
}
