//! The benchmark's metric catalogue.
//!
//! `END_TO_END` metrics are what a user of the design service sees and
//! are printed by every untraced run of every workload, so each is
//! defined for all four workloads. `LAYERS` are the per-layer metrics of
//! the traced run, each with the end-to-end metric and workload it is
//! predicted to move; a layer a workload never calls reads 0.
//! `BENCHMARK.json` declares exactly these names (checked by a test).

use crate::stats;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the metric is, or (for a layer) what it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "lower",
        "generate inputs, open directories, fill caches, warm up",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "peak resident memory of the run",
    ),
    m(
        "turnaround_p50_ms",
        "ms",
        "lower",
        "median request turnaround: tapeout_s, eco_p50_ms, job_p50_s, integrate_s",
    ),
    m(
        "throughput_per_h",
        "1/h",
        "higher",
        "completed requests per hour: tapeouts, changes, jobs_per_hour, integrations",
    ),
];

const FLOW: &str = "tapeout_s on tapeout_16k, job_p50_s on farm_mixed, integrate_s on hier_1m";
const ROUTE: &str = "tapeout_s on tapeout_16k (about 60%); none on eco_paper";
const PLACE: &str =
    "job_p50_s/jobs_per_hour on farm_mixed (about half a job), tapeout_s on tapeout_16k; none on eco_paper";
const LAYOUT: &str = "tapeout_s on tapeout_16k; none on eco_paper";
const STA: &str = "tapeout_s on tapeout_16k, eco_p50_ms on eco_paper: predicted within noise";
const DFT: &str = "tapeout_s and fault_coverage on tapeout_16k";
const NETLIST: &str = "tapeout_s on tapeout_16k (about 13%), eco_p95_ms on eco_paper";
const SERVE: &str = "job_p50_s, job_p95_s, jobs_per_hour on farm_mixed only";
const HIER: &str = "integrate_s on hier_1m only";

pub const LAYERS: &[Metric] = &[
    // core::flow: FlowSupervisor::advance per StageId
    m("flow.validate_ms", "ms", "lower", FLOW),
    m("flow.pre-sta_ms", "ms", "lower", FLOW),
    m("flow.scan_ms", "ms", "lower", FLOW),
    m("flow.atpg_ms", "ms", "lower", FLOW),
    m("flow.layout_ms", "ms", "lower", FLOW),
    m("flow.timing-fix_ms", "ms", "lower", FLOW),
    m("flow.equiv_ms", "ms", "lower", FLOW),
    m("flow.lvs_ms", "ms", "lower", FLOW),
    m("flow.stream-out_ms", "ms", "lower", FLOW),
    m("flow.attempts_per_stage", "count", "lower", FLOW),
    m(
        "flow.compiles",
        "count",
        "lower",
        "peak_rss_mb on every workload that runs the flow",
    ),
    // layout: the implement_with kernels, in order
    m("layout.floorplan_ms", "ms", "lower", LAYOUT),
    m("layout.place_ms", "ms", "lower", PLACE),
    m("layout.cts_ms", "ms", "lower", LAYOUT),
    m("layout.route_ms", "ms", "lower", ROUTE),
    m("layout.extract_ms", "ms", "lower", LAYOUT),
    m("layout.drc_ms", "ms", "lower", LAYOUT),
    m("layout.gdsii_ms", "ms", "lower", LAYOUT),
    m("layout.route_overflow", "count", "lower", ROUTE),
    m("layout.place_moves_accepted", "count", "lower", PLACE),
    m(
        "layout.wirelength_m",
        "m",
        "lower",
        "wirelength_m (routed QoR) on tapeout_16k",
    ),
    // sta
    m("sta.analyze_ms", "ms", "lower", STA),
    m("sta.corners_ms", "ms", "lower", STA),
    m("sta.update_ms", "ms", "lower", STA),
    m("sta.cone_fraction", "fraction", "lower", STA),
    m("sta.rebuilds", "count", "lower", STA),
    m(
        "sta.wns_ns",
        "ns",
        "higher",
        "wns_ns (post-ECO sign-off setup WNS) on tapeout_16k",
    ),
    // dft
    m("dft.scan_ms", "ms", "lower", DFT),
    m("dft.atpg_ms", "ms", "lower", DFT),
    m("dft.fsim_gate_evals", "count", "lower", DFT),
    m("dft.patterns", "count", "lower", DFT),
    m(
        "dft.fault_coverage",
        "fraction",
        "higher",
        "fault_coverage on tapeout_16k",
    ),
    // netlist
    m("netlist.compile_ms", "ms", "lower", NETLIST),
    m("netlist.equiv_ms", "ms", "lower", NETLIST),
    m("netlist.cones_proven", "count", "higher", NETLIST),
    m("netlist.vectors_applied", "count", "lower", NETLIST),
    // core::eco + pinassign: apply_change per change class
    m("eco.spec_ms", "ms", "lower", "eco_p50_ms on eco_paper"),
    m("eco.netlist_ms", "ms", "lower", "eco_p50_ms on eco_paper"),
    m("eco.timing_ms", "ms", "lower", "eco_p95_ms on eco_paper"),
    m("eco.pin_ms", "ms", "lower", "eco_p50_ms on eco_paper"),
    // core::persist + serve
    m(
        "persist.checkpoint_mb",
        "MB",
        "lower",
        "peak_rss_mb on tapeout_16k",
    ),
    m("serve.submit_ms", "ms", "lower", SERVE),
    m("serve.checkpoint_save_ms", "ms", "lower", SERVE),
    m("serve.checkpoint_load_ms", "ms", "lower", SERVE),
    m("serve.checkpoint_kb", "kB", "lower", SERVE),
    m("serve.ledger_update_ms", "ms", "lower", SERVE),
    m("serve.ledger_kb", "kB", "lower", SERVE),
    m("serve.wait_p50_s", "s", "lower", SERVE),
    m("serve.busy_frac", "fraction", "higher", SERVE),
    m("serve.stages_per_job", "count", "lower", SERVE),
    m("serve.preemptions", "count", "lower", SERVE),
    m("serve.retries", "count", "lower", SERVE),
    m("serve.quarantines", "count", "lower", SERVE),
    // core::hier
    m("hier.harden_ms", "ms", "lower", HIER),
    m("hier.cache_load_ms", "ms", "lower", HIER),
    m("hier.top_flow_ms", "ms", "lower", HIER),
    m("hier.hardened", "count", "lower", HIER),
    m("hier.cache_hits", "count", "higher", HIER),
];

/// One of a workload's own end-to-end figures (for
/// example `tapeout_s` or `eco_p95_ms`), printed with its unit,
/// direction and sample count.
pub struct Headline {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `None` when the run has too few samples for the figure.
    pub value: Option<f64>,
    pub n: usize,
    pub note: String,
}

impl Headline {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        value: f64,
        n: usize,
    ) -> Self {
        Headline {
            name,
            unit,
            better,
            value: Some(value),
            n,
            note: String::new(),
        }
    }

    /// Median of `samples` (already in `unit`).
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        Headline {
            name,
            unit,
            better: "lower",
            value: stats::median(samples),
            n: samples.len(),
            note: "median".into(),
        }
    }

    /// Percentile `p` of `samples`, reported only when at least ten
    /// samples lie beyond it; otherwise the highest percentile that
    /// qualifies is named in the note.
    pub fn tail(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Self {
        let n = samples.len();
        match stats::tail_at(samples, p) {
            Some(t) => Headline {
                name,
                unit,
                better: "lower",
                value: Some(t.value),
                n,
                note: format!("p{p} with {} samples beyond", t.beyond),
            },
            None => {
                let fallback = stats::tail(samples).map_or(
                    "no percentile has ten samples beyond it".to_string(),
                    |t| {
                        format!(
                            "highest qualifying: p{} = {:.4} {unit}",
                            t.percentile, t.value
                        )
                    },
                );
                Headline {
                    name,
                    unit,
                    better: "lower",
                    value: None,
                    n,
                    note: format!("p{p} needs ten samples beyond it; {fallback}"),
                }
            }
        }
    }

    pub fn line(&self, workload: &str) -> String {
        let value = self.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        format!(
            "e2e     {:<24} {:>14} {:<8} {:<7} n={} {workload} {}",
            self.name, value, self.unit, self.better, self.n, self.note
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` must declare the same metrics
    /// with the same units and directions.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.split_whitespace().collect();
        let declared = compact.matches("\"name\":").count();
        for metric in END_TO_END.iter().chain(LAYERS) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // the four workloads plus every metric, and nothing else
        assert_eq!(declared, 4 + END_TO_END.len() + LAYERS.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(LAYERS).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
