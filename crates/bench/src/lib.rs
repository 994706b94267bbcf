//! # camsoc-bench
//!
//! Experiment harnesses (one binary per paper claim, `e01`–`e13`) and
//! micro-benchmarks driven by the built-in [`timer`] harness (warmup +
//! median-of-N on the monotonic clock; no Criterion, so the workspace
//! builds offline). See `EXPERIMENTS.md` at the workspace root for
//! the claim → harness mapping and recorded results.
//!
//! The DSC design scale used by the heavier harnesses can be overridden
//! with the `CAMSOC_SCALE` environment variable (1.0 = the full
//! 240 K-gate chip; the default keeps harness runtimes in seconds).
//!
//! [`oracle`] holds naive reference versions of the fault-simulation and
//! equivalence traversals. The workspace's integration tests and
//! `perf_report` check the production engines against them; no
//! production crate depends on this one.

pub mod oracle;
pub mod timer;

/// Read the experiment design scale from `CAMSOC_SCALE` (default
/// `default_scale`).
pub fn scale_from_env(default_scale: f64) -> f64 {
    std::env::var("CAMSOC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(default_scale)
}

/// Print a table rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print an experiment header.
pub fn header(id: &str, claim: &str) {
    println!();
    println!("==== {id}: {claim} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        std::env::remove_var("CAMSOC_SCALE");
        assert_eq!(scale_from_env(0.1), 0.1);
        std::env::set_var("CAMSOC_SCALE", "0.5");
        assert_eq!(scale_from_env(0.1), 0.5);
        std::env::set_var("CAMSOC_SCALE", "banana");
        assert_eq!(scale_from_env(0.1), 0.1);
        std::env::set_var("CAMSOC_SCALE", "7.0");
        assert_eq!(scale_from_env(0.1), 0.1);
        std::env::remove_var("CAMSOC_SCALE");
    }
}
