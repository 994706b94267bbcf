//! # camsoc-pinassign
//!
//! Package pin assignment and substrate-layer estimation.
//!
//! The paper: "Because there is no automation tool available, we manually
//! performed many version of pin assignments to reduce the number of
//! substrate layers from four to two resulting in packaging cost saving."
//! (And the schedule absorbed *13 versions* of pin assignments.)
//!
//! This crate is the automation tool that didn't exist in 2003:
//!
//! * [`package`] — the TFBGA256 ball grid and the die pad ring.
//! * [`assign`] — the assignment model: die pads connect to package
//!   balls through the substrate; two escape traces that cross cannot
//!   share a layer, and for chords between two concentric rings the
//!   minimum crossing-free partition is exactly the minimum number of
//!   increasing subsequences of the pad→ball permutation (Dilworth:
//!   the length of the longest decreasing subsequence). A simulated
//!   annealer permutes unlocked signals to minimise layers under
//!   customer-locked balls and bus-contiguity constraints. It evaluates
//!   every move on reused buffers and allocates nothing per move.
//! * [`cost`] — substrate layer count → package cost, and the
//!   mass-production saving.
//!
//! # Example
//!
//! ```
//! use camsoc_pinassign::package::Tfbga;
//! use camsoc_pinassign::assign::{naive_assignment, optimize, OptimizeConfig, Problem};
//!
//! let package = Tfbga::tfbga256();
//! let problem = Problem::synthesize(&package, 96, 0.15, 7);
//! let naive = naive_assignment(&problem);
//! let best = optimize(&problem, &OptimizeConfig::default());
//! assert!(best.quality.layers <= naive.quality.layers);
//! ```

pub mod assign;
pub mod cost;
pub mod package;

pub use assign::{naive_assignment, optimize, Assignment, OptimizeConfig, Problem};
pub use package::Tfbga;
