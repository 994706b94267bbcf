//! Testbench campaigns: clocks, stimulus, checkers and coverage.
//!
//! The paper's hardest verification lesson was "in-consistent and
//! in-sufficient test benches ... developing test bench as the project
//! goes is very important". A [`Testbench`] here is the unit of that
//! development: a clock definition, a stimulus program, a set of timed
//! expectations, and coverage accounting that tells the integration flow
//! how much of the design a campaign actually exercised.

use camsoc_netlist::graph::Netlist;

use crate::engine::{SimConfig, SimError, Simulator};
use crate::logic::Logic;

/// A clock driving an input port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSpec {
    /// Input port to drive.
    pub port: String,
    /// Period in picoseconds.
    pub period_ps: u64,
    /// First rising edge time (ps); the port is 0 before it.
    pub first_edge_ps: u64,
}

/// One timed stimulus action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    /// Time to apply (ps).
    pub time_ps: u64,
    /// Input port.
    pub port: String,
    /// Value to drive.
    pub value: Logic,
}

/// One timed expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Time to sample (ps).
    pub time_ps: u64,
    /// Port to sample.
    pub port: String,
    /// Expected value.
    pub expected: Logic,
}

/// A failed expectation, with what was actually observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// The expectation that failed.
    pub expectation: Expectation,
    /// The value observed.
    pub observed: Logic,
}

/// Result of running a [`Testbench`].
#[derive(Debug, Clone, PartialEq)]
pub struct TestbenchReport {
    /// Number of expectations evaluated.
    pub checks_run: usize,
    /// Failures (empty means the campaign passed).
    pub failures: Vec<CheckFailure>,
    /// Fraction of nets that toggled during the run.
    pub toggle_coverage: f64,
    /// Final simulation time (ps).
    pub end_time_ps: u64,
}

impl TestbenchReport {
    /// True when no expectation failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A declarative testbench: clocks + stimulus + expectations.
///
/// # Example
///
/// ```
/// use camsoc_netlist::builder::NetlistBuilder;
/// use camsoc_netlist::cell::CellFunction;
/// use camsoc_sim::{Logic, Testbench};
///
/// # fn main() -> Result<(), camsoc_sim::SimError> {
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.gate_auto(CellFunction::Inv, &[a]);
/// b.output("y", y);
/// let nl = b.finish();
///
/// let mut tb = Testbench::new();
/// tb.drive(0, "a", Logic::Zero);
/// tb.expect(1_000, "y", Logic::One);
/// let report = tb.run(&nl)?;
/// assert!(report.passed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Testbench {
    clocks: Vec<ClockSpec>,
    stimuli: Vec<Stimulus>,
    expectations: Vec<Expectation>,
    config: SimConfig,
    run_to_ps: u64,
}

impl Testbench {
    /// Create an empty testbench with the default simulator config.
    pub fn new() -> Self {
        Testbench {
            clocks: Vec::new(),
            stimuli: Vec::new(),
            expectations: Vec::new(),
            config: SimConfig::default(),
            run_to_ps: 0,
        }
    }

    /// Use a specific simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Add a clock on `port` with the given period, first rising edge at
    /// half a period.
    pub fn add_clock(&mut self, port: &str, period_ps: u64) {
        self.clocks.push(ClockSpec {
            port: port.to_string(),
            period_ps,
            first_edge_ps: period_ps / 2,
        });
    }

    /// Drive `port` to `value` at `time_ps`.
    pub fn drive(&mut self, time_ps: u64, port: &str, value: Logic) {
        self.run_to_ps = self.run_to_ps.max(time_ps);
        self.stimuli.push(Stimulus { time_ps, port: port.to_string(), value });
    }

    /// Drive a bus `stem[i]` from an integer at `time_ps`.
    pub fn drive_bus(&mut self, time_ps: u64, stem: &str, width: usize, value: u64) {
        for i in 0..width {
            self.drive(
                time_ps,
                &format!("{stem}[{i}]"),
                Logic::from_bool((value >> i) & 1 == 1),
            );
        }
    }

    /// Expect `port` to equal `expected` at `time_ps`.
    pub fn expect(&mut self, time_ps: u64, port: &str, expected: Logic) {
        self.run_to_ps = self.run_to_ps.max(time_ps);
        self.expectations.push(Expectation {
            time_ps,
            port: port.to_string(),
            expected,
        });
    }

    /// Expect a bus `stem[i]` to equal `value` at `time_ps`.
    pub fn expect_bus(&mut self, time_ps: u64, stem: &str, width: usize, value: u64) {
        for i in 0..width {
            self.expect(
                time_ps,
                &format!("{stem}[{i}]"),
                Logic::from_bool((value >> i) & 1 == 1),
            );
        }
    }

    /// Run the campaign on a netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine (unknown ports, instability).
    pub fn run(&self, nl: &Netlist) -> Result<TestbenchReport, SimError> {
        let mut sim = Simulator::new(nl, self.config.clone());
        self.run_with(&mut sim)
    }

    /// Run the campaign on a prepared simulator (lets callers install
    /// macro models first).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine.
    pub fn run_with(&self, sim: &mut Simulator<'_>) -> Result<TestbenchReport, SimError> {
        let end = self.run_to_ps + 1;
        // schedule clocks
        for clock in &self.clocks {
            sim.poke_at(&clock.port, Logic::Zero, 0)?;
            let mut t = clock.first_edge_ps;
            let mut high = true;
            while t <= end {
                sim.poke_at(&clock.port, Logic::from_bool(high), t)?;
                t += clock.period_ps / 2;
                high = !high;
            }
        }
        // schedule stimuli
        for s in &self.stimuli {
            sim.poke_at(&s.port, s.value, s.time_ps)?;
        }
        // run, sampling at each expectation time in order
        let mut expectations = self.expectations.clone();
        expectations.sort_by_key(|e| e.time_ps);
        let mut failures = Vec::new();
        for e in &expectations {
            sim.run_until(e.time_ps)?;
            let observed = sim
                .peek(&e.port)
                .ok_or_else(|| SimError::UnknownPort(e.port.clone()))?;
            if observed != e.expected {
                failures.push(CheckFailure { expectation: e.clone(), observed });
            }
        }
        sim.run_until(end)?;
        Ok(TestbenchReport {
            checks_run: expectations.len(),
            failures,
            toggle_coverage: sim.toggle_coverage(),
            end_time_ps: sim.time_ps(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::CellFunction;
    use camsoc_netlist::generate;

    #[test]
    fn adder_campaign_passes() {
        let nl = generate::ripple_adder(8).unwrap();
        let mut tb = Testbench::new();
        let cases = [(1u64, 2u64), (100, 55), (255, 1), (0, 0), (128, 127)];
        for (i, (a, b)) in cases.iter().enumerate() {
            let t = (i as u64 + 1) * 10_000;
            tb.drive_bus(t, "a", 8, *a);
            tb.drive_bus(t, "b", 8, *b);
            tb.drive(t, "cin", Logic::Zero);
            let sum = a + b;
            tb.expect_bus(t + 9_000, "sum", 8, sum & 0xFF);
            tb.expect(t + 9_000, "cout", Logic::from_bool(sum > 255));
        }
        let report = tb.run(&nl).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.checks_run, cases.len() * 9);
        assert!(report.toggle_coverage > 0.5);
    }

    #[test]
    fn failing_expectation_reported_with_observed_value() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.gate_auto(CellFunction::Inv, &[a]);
        b.output("y", y);
        let nl = b.finish();
        let mut tb = Testbench::new();
        tb.drive(0, "a", Logic::Zero);
        tb.expect(1_000, "y", Logic::Zero); // wrong on purpose
        let report = tb.run(&nl).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].observed, Logic::One);
    }

    #[test]
    fn clocked_counter_advances() {
        let mut b = NetlistBuilder::new("cnt");
        let clk = b.input("clk");
        let rn = b.input("rstn");
        let en = b.input("en");
        let q = generate::counter_into(&mut b, clk, rn, en, 4);
        b.output_bus("q", &q);
        let nl = b.finish();

        let mut tb = Testbench::new();
        tb.add_clock("clk", 10_000);
        tb.drive(0, "rstn", Logic::Zero);
        tb.drive(0, "en", Logic::One);
        tb.drive(2_000, "rstn", Logic::One);
        // rising edges at 5k, 15k, 25k ... after reset release the counter
        // increments each edge; sample mid-cycle after the 3rd edge.
        tb.expect_bus(28_000, "q", 4, 3);
        let report = tb.run(&nl).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn unknown_port_in_expectation_is_error() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        b.output("y", a);
        let nl = b.finish();
        let mut tb = Testbench::new();
        tb.expect(100, "nope", Logic::One);
        assert!(matches!(tb.run(&nl), Err(SimError::UnknownPort(_))));
    }
}
