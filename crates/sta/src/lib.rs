//! # camsoc-sta
//!
//! Static timing analysis over the [`camsoc_netlist`] IR.
//!
//! The paper's physical flow signs off with "timing-driven placement and
//! routing, physical synthesis, formal verification and STA QoR check",
//! and three of its ECOs exist purely to fix setup/hold violations. This
//! crate supplies that STA: single-cycle setup and hold checks against
//! declared clocks, arrival/required propagation over the combinational
//! logic, slack/WNS/TNS reporting, critical-path extraction, and corner
//! derating — with wire delays either estimated from fanout or injected
//! per-net by the layout crate's extractor.
//!
//! There is one timing engine: every pass walks a
//! [`CompiledNetlist`](camsoc_netlist::compiled::CompiledNetlist)
//! snapshot of the netlist. A caller that already holds one lends it
//! with [`Sta::with_compiled`]; otherwise each analysis compiles once.
//!
//! For ECO loops, [`IncrementalSta`] (module [`incremental`]) keeps the
//! per-net annotation from a baseline analysis alive and re-times only
//! the fanout/fanin cones of each edit, bit-identically to a full pass.
//!
//! For sign-off, [`multi_corner`] fans N corner analyses over
//! `camsoc-par` worker threads (sharing one snapshot) and
//! [`multi_corner::signoff`] folds the classic best/worst pair — setup
//! at the slow corner, hold at the fast corner — into one verdict.
//!
//! # Example
//!
//! ```
//! use camsoc_netlist::generate;
//! use camsoc_netlist::tech::{Technology, TechnologyNode};
//! use camsoc_sta::{Constraints, Sta};
//!
//! # fn main() -> Result<(), camsoc_sta::StaError> {
//! let nl = generate::fsm(6, 3, 2, 7);
//! let tech = Technology::node(TechnologyNode::Tsmc250);
//! let constraints = Constraints::single_clock("clk", 7.5); // 133 MHz
//! let report = Sta::new(&nl, &tech, constraints).analyze()?;
//! assert!(report.setup.wns_ns > 0.0); // small FSM easily makes 133 MHz
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod codec;
pub mod constraints;
pub mod derate;
pub mod incremental;
pub mod macro_model;
pub mod multi_corner;
#[cfg(test)]
mod oracle;
pub mod paths;

pub use analysis::{Annotation, Sta, StaError, TimingReport};
pub use incremental::{IncrementalSta, UpdateStats};
pub use constraints::Constraints;
pub use derate::Corner;
pub use macro_model::MacroTiming;
pub use multi_corner::{analyze_corners, CornerSignoff};
pub use paths::{PathStep, TimingPath};
