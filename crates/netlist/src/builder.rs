//! Ergonomic netlist construction.
//!
//! [`NetlistBuilder`] wraps [`Netlist`] with auto-named nets, panic-free
//! internal bookkeeping and convenience methods for the common patterns
//! (gate with fresh output net, word-wide buses, flip-flop banks). The
//! generators in [`crate::generate`] and the IP models in `camsoc-core`
//! are written against this interface.

use crate::cell::{Cell, CellFunction, Drive};
use crate::graph::{InstanceId, NetId, Netlist, PortDir};

/// Builder for [`Netlist`].
///
/// Unlike the raw [`Netlist`] mutators, the builder auto-generates unique
/// names where convenient and panics on internal misuse rather than
/// returning errors — it is intended for *programmatic* construction where
/// name collisions indicate a generator bug.
///
/// # Example
///
/// ```
/// use camsoc_netlist::builder::NetlistBuilder;
/// use camsoc_netlist::cell::CellFunction;
///
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate_auto(CellFunction::Xor2, &[a, c]);
/// let carry = b.gate_auto(CellFunction::And2, &[a, c]);
/// b.output("sum", sum);
/// b.output("carry", carry);
/// let nl = b.finish();
/// assert_eq!(nl.num_instances(), 2);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    nl: Netlist,
    counter: usize,
    block: String,
}

impl NetlistBuilder {
    /// Start building a netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            nl: Netlist::new(name),
            counter: 0,
            block: "top".to_string(),
        }
    }

    /// Resume building on an existing netlist (used by integration to
    /// add glue after absorbing IP blocks).
    pub fn from_netlist(nl: Netlist) -> Self {
        let counter = nl.num_nets() + nl.num_instances();
        NetlistBuilder { nl, counter, block: "top".to_string() }
    }

    /// Set the block tag applied to subsequently created instances.
    pub fn set_block(&mut self, block: impl Into<String>) {
        self.block = block.into();
    }

    fn unique(&mut self, stem: &str) -> String {
        loop {
            let name = format!("{stem}_{}", self.counter);
            self.counter += 1;
            if self.nl.find_net(&name).is_none() && self.nl.find_instance(&name).is_none() {
                return name;
            }
        }
    }

    /// Create a named net.
    ///
    /// # Panics
    ///
    /// Panics if the name already exists.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.nl.add_net(name).expect("builder: duplicate net name")
    }

    /// Create a fresh anonymous net (named `n_<k>`).
    pub fn fresh_net(&mut self) -> NetId {
        let name = self.unique("n");
        self.nl.add_net(name).expect("builder: fresh net collision")
    }

    /// Create a primary input port (and its net) with the given name.
    pub fn input(&mut self, name: &str) -> NetId {
        let net = self.net(name);
        self.nl.add_port(name, PortDir::Input, net).expect("builder: duplicate port");
        net
    }

    /// Create a bus of primary inputs `name[0..width]`.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width).map(|i| self.input(&format!("{name}[{i}]"))).collect()
    }

    /// Declare `net` as a primary output named `name`.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.nl.add_port(name, PortDir::Output, net).expect("builder: duplicate port");
    }

    /// Declare a bus of primary outputs `name[0..width]`.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(&format!("{name}[{i}]"), n);
        }
    }

    /// Add a named gate driving a fresh net; returns the output net.
    pub fn gate(
        &mut self,
        function: CellFunction,
        drive: Drive,
        name: &str,
        inputs: &[NetId],
    ) -> NetId {
        let out = self.fresh_net();
        self.nl
            .add_instance(name, Cell::new(function, drive), inputs, out, None, self.block.clone())
            .expect("builder: gate");
        out
    }

    /// Add an auto-named gate at drive X1; returns the output net.
    pub fn gate_auto(&mut self, function: CellFunction, inputs: &[NetId]) -> NetId {
        let name = self.unique(&format!("u_{}", function.name().to_lowercase()));
        self.gate(function, Drive::X1, &name, inputs)
    }

    /// Add an auto-named gate at drive X1 whose output is the given
    /// pre-created net.
    pub fn gate_into(&mut self, function: CellFunction, inputs: &[NetId], out: NetId) {
        let name = self.unique(&format!("u_{}", function.name().to_lowercase()));
        self.nl
            .add_instance(
                name,
                Cell::new(function, Drive::X1),
                inputs,
                out,
                None,
                self.block.clone(),
            )
            .expect("builder: gate_into");
    }

    /// Add a D flip-flop clocked by `clk`; returns the Q net.
    pub fn dff(&mut self, name: &str, d: NetId, clk: NetId) -> NetId {
        let q = self.fresh_net();
        self.nl
            .add_instance(
                name,
                Cell::new(CellFunction::Dff, Drive::X1),
                &[d],
                q,
                Some(clk),
                self.block.clone(),
            )
            .expect("builder: dff");
        q
    }

    /// Add an auto-named D flip-flop; returns the Q net.
    pub fn dff_auto(&mut self, d: NetId, clk: NetId) -> NetId {
        let name = self.unique("u_dff");
        self.dff(&name, d, clk)
    }

    /// Add a resettable D flip-flop (active-low `rn`); returns the Q net.
    pub fn dffr_auto(&mut self, d: NetId, rn: NetId, clk: NetId) -> NetId {
        let name = self.unique("u_dffr");
        let q = self.fresh_net();
        self.nl
            .add_instance(
                name,
                Cell::new(CellFunction::Dffr, Drive::X1),
                &[d, rn],
                q,
                Some(clk),
                self.block.clone(),
            )
            .expect("builder: dffr");
        q
    }

    /// Add an auto-named D flip-flop whose D net was pre-created by the
    /// caller (for feedback structures like counters and FSMs); returns
    /// the Q net.
    pub fn dff_feedback(&mut self, d: NetId, clk: NetId) -> NetId {
        let name = self.unique("u_dff");
        let q = self.fresh_net();
        self.nl
            .add_instance(
                name,
                Cell::new(CellFunction::Dff, Drive::X1),
                &[d],
                q,
                Some(clk),
                self.block.clone(),
            )
            .expect("builder: dff_feedback");
        q
    }

    /// Add an auto-named resettable D flip-flop whose D net was
    /// pre-created by the caller; returns the Q net.
    pub fn dffr_feedback(&mut self, d: NetId, rn: NetId, clk: NetId) -> NetId {
        let name = self.unique("u_dffr");
        let q = self.fresh_net();
        self.nl
            .add_instance(
                name,
                Cell::new(CellFunction::Dffr, Drive::X1),
                &[d, rn],
                q,
                Some(clk),
                self.block.clone(),
            )
            .expect("builder: dffr_feedback");
        q
    }

    /// Register a bus of nets through flip-flops; returns the Q nets.
    pub fn register_bus(&mut self, data: &[NetId], clk: NetId) -> Vec<NetId> {
        data.iter().map(|&d| self.dff_auto(d, clk)).collect()
    }

    /// Add a tie cell of the given constant; returns its output net.
    pub fn tie(&mut self, value: bool) -> NetId {
        let f = if value { CellFunction::Tie1 } else { CellFunction::Tie0 };
        self.gate_auto(f, &[])
    }

    /// Add a spare cell: a gate of `function` with all inputs tied low and
    /// output unconnected, flagged spare (available for metal-only ECO).
    pub fn spare(&mut self, function: CellFunction) -> InstanceId {
        let tie = self.tie(false);
        let inputs = vec![tie; function.num_inputs()];
        let out = self.fresh_net();
        let name = self.unique("u_spare");
        let id = self
            .nl
            .add_instance(
                name,
                Cell::new(function, Drive::X2),
                &inputs,
                out,
                None,
                self.block.clone(),
            )
            .expect("builder: spare");
        self.nl.instance_mut(id).spare = true;
        id
    }

    /// Add a memory macro with address/data/control pins as opaque nets.
    pub fn memory(
        &mut self,
        name: &str,
        words: usize,
        bits: usize,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) {
        self.nl
            .add_macro(name, words, bits, inputs, outputs, self.block.clone())
            .expect("builder: memory");
    }

    /// Access the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Finish and return the netlist.
    pub fn finish(self) -> Netlist {
        self.nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_adder() {
        let mut b = NetlistBuilder::new("ha");
        let a = b.input("a");
        let c = b.input("b");
        let s = b.gate_auto(CellFunction::Xor2, &[a, c]);
        let cy = b.gate_auto(CellFunction::And2, &[a, c]);
        b.output("s", s);
        b.output("co", cy);
        let nl = b.finish();
        nl.validate().unwrap();
        assert_eq!(nl.num_instances(), 2);
        assert_eq!(nl.num_ports(), 4);
    }

    #[test]
    fn buses_and_registers() {
        let mut b = NetlistBuilder::new("reg");
        let clk = b.input("clk");
        let d = b.input_bus("d", 8);
        let q = b.register_bus(&d, clk);
        b.output_bus("q", &q);
        let nl = b.finish();
        nl.validate().unwrap();
        assert_eq!(nl.flops().count(), 8);
        assert!(nl.find_port("d[7]").is_some());
        assert!(nl.find_port("q[0]").is_some());
    }

    #[test]
    fn spare_cells_are_flagged_and_tied() {
        let mut b = NetlistBuilder::new("sp");
        let id = b.spare(CellFunction::Nand2);
        let nl = b.finish();
        nl.validate().unwrap();
        let inst = nl.instance(id);
        assert!(inst.spare);
        assert_eq!(inst.inputs.len(), 2);
        assert_eq!(nl.spares().count(), 1);
    }

    #[test]
    fn ties_have_constant_function() {
        let mut b = NetlistBuilder::new("t");
        let one = b.tie(true);
        b.output("y", one);
        let nl = b.finish();
        nl.validate().unwrap();
        assert_eq!(
            nl.instances().filter(|(_, i)| i.function() == CellFunction::Tie1).count(),
            1
        );
    }

    #[test]
    fn dffr_has_two_inputs() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let rn = b.input("rstn");
        let d = b.input("d");
        let q = b.dffr_auto(d, rn, clk);
        b.output("q", q);
        let nl = b.finish();
        nl.validate().unwrap();
        let (_, ff) = nl.flops().next().unwrap();
        assert_eq!(ff.function(), CellFunction::Dffr);
        assert_eq!(ff.inputs.len(), 2);
        assert_eq!(ff.clock, nl.find_net("clk"));
    }

    #[test]
    fn gate_into_drives_precreated_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let out = b.net("y");
        b.gate_into(CellFunction::Inv, &[a], out);
        b.output("y", out);
        let nl = b.finish();
        nl.validate().unwrap();
    }
}
