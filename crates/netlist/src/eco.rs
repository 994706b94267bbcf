//! Engineering-change-order (ECO) operations with an audit trail.
//!
//! The paper's implementation phase absorbed, during three months: 3 spec
//! changes (re-synthesis plus flip-flop modification), 10 netlist changes
//! (combinational ECO), 3 ECOs fixing setup/hold violations, and a
//! post-production metal-only fix that rewired spare cells to strengthen
//! a weak output buffer. This module provides each of those edit classes
//! as a first-class operation that records what it did and whether it
//! preserves logical function — so the flow can re-run formal equivalence
//! and STA with the right expectations after every change.

use std::collections::BTreeSet;

use crate::cell::{Cell, CellFunction, Drive};
use crate::error::NetlistError;
use crate::graph::{InstanceId, NetId, Netlist};

/// Classification of an ECO edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcoKind {
    /// Re-connect an input pin to a different net (combinational ECO).
    Rewire,
    /// Insert a buffer after a driver (timing/hold fix).
    InsertBuffer,
    /// Insert an inverter in front of one pin (functional fix).
    InsertInverter,
    /// Increase a cell's drive strength (setup fix).
    Upsize,
    /// Decrease a cell's drive strength (hold fix / power).
    Downsize,
    /// Change a gate's logic function in place (functional fix).
    ChangeFunction,
    /// Wire up a spare cell (metal-only fix).
    SpareFix,
    /// Insert a pipeline flip-flop on a net (spec change).
    AddFlop,
}

impl EcoKind {
    /// Whether edits of this kind preserve combinational function
    /// (`true` means the pre/post netlists must prove equivalent).
    pub fn preserves_function(self) -> bool {
        matches!(
            self,
            EcoKind::InsertBuffer | EcoKind::Upsize | EcoKind::Downsize
        )
    }

    /// Whether edits of this kind can be implemented in metal layers only
    /// (no base-layer change — crucial after tapeout, when only metal
    /// masks can be respun cheaply).
    pub fn metal_only(self) -> bool {
        matches!(self, EcoKind::SpareFix | EcoKind::Rewire)
    }
}

/// One connectivity-changing primitive, recorded in application order.
///
/// The journal lets [`CompiledNetlist::patch`](crate::compiled::CompiledNetlist::patch)
/// bring a compiled snapshot's fanout rows and logic levels up to date
/// in O(edit) instead of recompiling in O(netlist). Drive/function
/// changes are deliberately absent: they do not move any pin, so no
/// derived connectivity structure changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectivityEdit {
    /// Input pin `pin` of `inst` moved from net `from` to net `to`.
    RewireInput {
        /// Instance whose pin moved.
        inst: InstanceId,
        /// Input pin index.
        pin: usize,
        /// Net the pin used to read.
        from: NetId,
        /// Net the pin reads now.
        to: NetId,
    },
    /// The output of `inst` moved from net `from` to net `to`
    /// (the loads of both nets are untouched).
    MoveOutput {
        /// Instance whose output moved.
        inst: InstanceId,
        /// Net it used to drive.
        from: NetId,
        /// Net it drives now.
        to: NetId,
    },
    /// A new instance was appended. Its pin connections follow as
    /// [`ConnectivityEdit::Connect`] entries (one per input, plus one
    /// with `pin == usize::MAX` for a clock pin), so replay never has to
    /// consult post-journal netlist state.
    AddInstance {
        /// The appended instance.
        inst: InstanceId,
    },
    /// A pin of a newly added instance was connected to `net`.
    /// `pin == usize::MAX` denotes the clock pin (the same convention
    /// [`Netlist::fanout_map`] uses).
    Connect {
        /// The reading instance.
        inst: InstanceId,
        /// Input pin index, or `usize::MAX` for the clock pin.
        pin: usize,
        /// Net being read.
        net: NetId,
    },
    /// A new net was appended (initially undriven and unread).
    AddNet {
        /// The appended net.
        net: NetId,
    },
}

/// The set of nets and instances touched by ECO edits — the "patch
/// description" an incremental analysis consumes to know which cones to
/// recompute. Ordered sets so iteration (and hence any downstream
/// floating-point accumulation) is deterministic.
///
/// Every [`EcoSession`] operation adds the instances whose connectivity,
/// drive or function it changed, plus every net whose driver, load set
/// or delay could have moved — a conservative superset of the true
/// frontier. Connectivity-changing primitives additionally append to the
/// `edits` journal in chronological order, which is what makes O(edit)
/// patching of derived structures possible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditDelta {
    /// Nets whose driver, load set or delay may have changed.
    pub nets: BTreeSet<NetId>,
    /// Instances whose connectivity, drive or function changed (includes
    /// newly created instances).
    pub instances: BTreeSet<InstanceId>,
    /// Chronological journal of connectivity-changing primitives.
    pub edits: Vec<ConnectivityEdit>,
}

impl EditDelta {
    /// True when no edits have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty() && self.instances.is_empty() && self.edits.is_empty()
    }

    /// Fold another delta into this one. `other` must describe edits made
    /// *after* the edits already in `self`; the journal is concatenated
    /// in that order, and replaying it against a baseline older than
    /// `self` is only sound under that chronology.
    pub fn merge(&mut self, other: &EditDelta) {
        self.nets.extend(other.nets.iter().copied());
        self.instances.extend(other.instances.iter().copied());
        self.edits.extend(other.edits.iter().copied());
    }

    /// Number of nets the journal appends.
    pub fn added_nets(&self) -> usize {
        self.edits.iter().filter(|e| matches!(e, ConnectivityEdit::AddNet { .. })).count()
    }

    /// Number of instances the journal appends.
    pub fn added_instances(&self) -> usize {
        self.edits.iter().filter(|e| matches!(e, ConnectivityEdit::AddInstance { .. })).count()
    }
}

/// One recorded ECO edit.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoRecord {
    /// Edit class.
    pub kind: EcoKind,
    /// Human-readable description of what changed.
    pub description: String,
}

/// An ECO session: a netlist under edit plus the audit trail.
///
/// # Example
///
/// ```
/// use camsoc_netlist::builder::NetlistBuilder;
/// use camsoc_netlist::cell::CellFunction;
/// use camsoc_netlist::eco::EcoSession;
///
/// # fn main() -> Result<(), camsoc_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("d");
/// let a = b.input("a");
/// let y = b.gate_auto(CellFunction::Inv, &[a]);
/// b.output("y", y);
/// let nl = b.finish();
///
/// let mut eco = EcoSession::new(nl);
/// let inst = eco.netlist().find_instance("u_inv_0").unwrap();
/// eco.upsize(inst)?;
/// assert_eq!(eco.records().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EcoSession {
    nl: Netlist,
    records: Vec<EcoRecord>,
    delta: EditDelta,
}

impl EcoSession {
    /// Start an ECO session on a netlist.
    pub fn new(nl: Netlist) -> Self {
        EcoSession { nl, records: Vec::new(), delta: EditDelta::default() }
    }

    /// The netlist in its current state.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The audit trail so far.
    pub fn records(&self) -> &[EcoRecord] {
        &self.records
    }

    /// Nets and instances touched since the session started (or since
    /// the last [`EcoSession::take_delta`]).
    pub fn delta(&self) -> &EditDelta {
        &self.delta
    }

    /// Drain the accumulated edit delta, resetting it to empty — call
    /// after handing the delta to an incremental analysis so the next
    /// call only reports subsequent edits.
    pub fn take_delta(&mut self) -> EditDelta {
        std::mem::take(&mut self.delta)
    }

    /// Finish the session, returning the edited netlist and the trail.
    pub fn finish(self) -> (Netlist, Vec<EcoRecord>) {
        (self.nl, self.records)
    }

    /// True if every recorded edit preserves combinational function.
    pub fn function_preserving(&self) -> bool {
        self.records.iter().all(|r| r.kind.preserves_function())
    }

    /// Re-connect input pin `pin` of `inst` to `net`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadPinIndex`] if the pin does not exist.
    pub fn rewire(&mut self, inst: InstanceId, pin: usize, net: NetId) -> Result<(), NetlistError> {
        let old = self.nl.rewire_input(inst, pin, net)?;
        self.delta.instances.insert(inst);
        self.delta.nets.insert(old);
        self.delta.nets.insert(net);
        self.delta.nets.insert(self.nl.instance(inst).output);
        self.delta.edits.push(ConnectivityEdit::RewireInput { inst, pin, from: old, to: net });
        self.records.push(EcoRecord {
            kind: EcoKind::Rewire,
            description: format!(
                "rewire {}.{} from {} to {}",
                self.nl.instance(inst).name,
                pin,
                self.nl.net(old).name,
                self.nl.net(net).name
            ),
        });
        Ok(())
    }

    /// Insert a buffer between the driver of `net` and all its loads.
    ///
    /// For an instance-driven net, the original driver is moved onto a
    /// fresh net feeding the new buffer, whose output is `net` (sinks
    /// untouched). For a port- or macro-driven net, the buffer is placed
    /// on the *sink* side instead: a fresh net carries the buffered copy
    /// and every gate input pin reading `net` is rewired to it (macro
    /// pins and output ports keep the direct connection).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Undriven`] if `net` has no driver at all.
    pub fn insert_buffer(&mut self, net: NetId, drive: Drive) -> Result<InstanceId, NetlistError> {
        use crate::graph::NetDriver;
        match self.nl.net(net).driver {
            Some(NetDriver::Instance(driver)) => {
                let mid_name = self.nl.fresh_net_name("eco_buf_n");
                let mid = self.nl.add_net(mid_name)?;
                self.delta.edits.push(ConnectivityEdit::AddNet { net: mid });
                // Move driver's output onto the fresh net; it leaves
                // `net` undriven until the buffer takes over.
                self.nl.move_output(driver, mid)?;
                self.delta.edits.push(ConnectivityEdit::MoveOutput {
                    inst: driver,
                    from: net,
                    to: mid,
                });
                let buf_name = self.nl.fresh_instance_name("u_eco_buf");
                let block = self.nl.instance(driver).block.clone();
                let id = self.nl.add_instance(
                    buf_name,
                    Cell::new(CellFunction::Buf, drive),
                    &[mid],
                    net,
                    None,
                    block,
                )?;
                self.delta.edits.push(ConnectivityEdit::AddInstance { inst: id });
                self.delta.edits.push(ConnectivityEdit::Connect { inst: id, pin: 0, net: mid });
                self.delta.instances.insert(driver);
                self.delta.instances.insert(id);
                self.delta.nets.insert(mid);
                self.delta.nets.insert(net);
                self.records.push(EcoRecord {
                    kind: EcoKind::InsertBuffer,
                    description: format!(
                        "buffer {} inserted on {}",
                        drive,
                        self.nl.net(net).name
                    ),
                });
                Ok(id)
            }
            Some(_) => {
                // port/macro driven: buffer the sink side
                let mid_name = self.nl.fresh_net_name("eco_buf_n");
                let mid = self.nl.add_net(mid_name)?;
                self.delta.edits.push(ConnectivityEdit::AddNet { net: mid });
                let buf_name = self.nl.fresh_instance_name("u_eco_buf");
                let id = self.nl.add_instance(
                    buf_name,
                    Cell::new(CellFunction::Buf, drive),
                    &[net],
                    mid,
                    None,
                    "top",
                )?;
                self.delta.edits.push(ConnectivityEdit::AddInstance { inst: id });
                self.delta.edits.push(ConnectivityEdit::Connect { inst: id, pin: 0, net });
                let sinks: Vec<(InstanceId, usize)> = self
                    .nl
                    .instances()
                    .flat_map(|(sid, inst)| {
                        inst.inputs
                            .iter()
                            .enumerate()
                            .filter(|&(_, &n)| n == net)
                            .map(move |(pin, _)| (sid, pin))
                            .collect::<Vec<_>>()
                    })
                    .filter(|&(sid, _)| sid != id)
                    .collect();
                for (sid, pin) in sinks {
                    self.nl.rewire_input(sid, pin, mid)?;
                    self.delta.instances.insert(sid);
                    self.delta.edits.push(ConnectivityEdit::RewireInput {
                        inst: sid,
                        pin,
                        from: net,
                        to: mid,
                    });
                }
                self.delta.instances.insert(id);
                self.delta.nets.insert(mid);
                self.delta.nets.insert(net);
                self.records.push(EcoRecord {
                    kind: EcoKind::InsertBuffer,
                    description: format!(
                        "sink-side buffer {} inserted on {}",
                        drive,
                        self.nl.net(net).name
                    ),
                });
                Ok(id)
            }
            None => Err(NetlistError::Undriven { net: self.nl.net(net).name.clone() }),
        }
    }

    /// Insert an inverter in front of input pin `pin` of `inst`
    /// (a classic one-gate functional fix).
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadPinIndex`] if the pin does not exist.
    pub fn insert_inverter(
        &mut self,
        inst: InstanceId,
        pin: usize,
    ) -> Result<InstanceId, NetlistError> {
        if pin >= self.nl.instance(inst).inputs.len() {
            return Err(NetlistError::BadPinIndex {
                instance: self.nl.instance(inst).name.clone(),
                pin,
            });
        }
        let src = self.nl.instance(inst).inputs[pin];
        let out_name = self.nl.fresh_net_name("eco_inv_n");
        let out = self.nl.add_net(out_name)?;
        self.delta.edits.push(ConnectivityEdit::AddNet { net: out });
        let inv_name = self.nl.fresh_instance_name("u_eco_inv");
        let block = self.nl.instance(inst).block.clone();
        let id = self.nl.add_instance(
            inv_name,
            Cell::new(CellFunction::Inv, Drive::X1),
            &[src],
            out,
            None,
            block,
        )?;
        self.delta.edits.push(ConnectivityEdit::AddInstance { inst: id });
        self.delta.edits.push(ConnectivityEdit::Connect { inst: id, pin: 0, net: src });
        self.nl.rewire_input(inst, pin, out)?;
        self.delta.edits.push(ConnectivityEdit::RewireInput { inst, pin, from: src, to: out });
        self.delta.instances.insert(id);
        self.delta.instances.insert(inst);
        self.delta.nets.insert(src);
        self.delta.nets.insert(out);
        self.delta.nets.insert(self.nl.instance(inst).output);
        self.records.push(EcoRecord {
            kind: EcoKind::InsertInverter,
            description: format!("inverter inserted on {}.{pin}", self.nl.instance(inst).name),
        });
        Ok(id)
    }

    /// Increase the drive strength of `inst` by one step (setup fix).
    ///
    /// # Errors
    ///
    /// [`NetlistError::WrongCellClass`] if the cell is already at maximum
    /// drive or is a tie cell.
    pub fn upsize(&mut self, inst: InstanceId) -> Result<(), NetlistError> {
        let i = self.nl.instance(inst);
        if i.function().is_tie() {
            return Err(NetlistError::WrongCellClass {
                instance: i.name.clone(),
                expected: "sizable cell",
            });
        }
        let up = i.drive().upsized().ok_or_else(|| NetlistError::WrongCellClass {
            instance: i.name.clone(),
            expected: "cell below maximum drive",
        })?;
        let name = i.name.clone();
        self.nl.instance_mut(inst).cell.drive = up;
        self.delta.instances.insert(inst);
        self.delta.nets.insert(self.nl.instance(inst).output);
        self.records.push(EcoRecord {
            kind: EcoKind::Upsize,
            description: format!("upsize {name} to {up}"),
        });
        Ok(())
    }

    /// Decrease the drive strength of `inst` by one step (hold fix).
    ///
    /// # Errors
    ///
    /// [`NetlistError::WrongCellClass`] if the cell is already at minimum
    /// drive or is a tie cell.
    pub fn downsize(&mut self, inst: InstanceId) -> Result<(), NetlistError> {
        let i = self.nl.instance(inst);
        if i.function().is_tie() {
            return Err(NetlistError::WrongCellClass {
                instance: i.name.clone(),
                expected: "sizable cell",
            });
        }
        let down = i.drive().downsized().ok_or_else(|| NetlistError::WrongCellClass {
            instance: i.name.clone(),
            expected: "cell above minimum drive",
        })?;
        let name = i.name.clone();
        self.nl.instance_mut(inst).cell.drive = down;
        self.delta.instances.insert(inst);
        self.delta.nets.insert(self.nl.instance(inst).output);
        self.records.push(EcoRecord {
            kind: EcoKind::Downsize,
            description: format!("downsize {name} to {down}"),
        });
        Ok(())
    }

    /// Change the logic function of `inst` in place. The new function
    /// must take the same number of inputs.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadPinIndex`] on arity mismatch;
    /// [`NetlistError::WrongCellClass`] when changing to/from a
    /// sequential cell.
    pub fn change_function(
        &mut self,
        inst: InstanceId,
        function: CellFunction,
    ) -> Result<(), NetlistError> {
        let i = self.nl.instance(inst);
        if i.function().is_sequential() || function.is_sequential() {
            return Err(NetlistError::WrongCellClass {
                instance: i.name.clone(),
                expected: "combinational cell",
            });
        }
        if function.num_inputs() != i.inputs.len() {
            return Err(NetlistError::BadPinIndex {
                instance: i.name.clone(),
                pin: function.num_inputs(),
            });
        }
        let name = i.name.clone();
        let old = i.function();
        let drive = i.drive();
        self.nl.instance_mut(inst).cell = Cell::new(function, drive);
        self.delta.instances.insert(inst);
        self.delta.nets.insert(self.nl.instance(inst).output);
        self.records.push(EcoRecord {
            kind: EcoKind::ChangeFunction,
            description: format!("{name}: {old} -> {function}"),
        });
        Ok(())
    }

    /// Implement a function on a spare cell (metal-only fix): find an
    /// unused spare with the requested function, connect its inputs to
    /// `inputs`, and rewire input pin `sink_pin` of `sink` to the spare's
    /// output. The spare stops being spare.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSpareCell`] if no spare of that function remains;
    /// [`NetlistError::BadPinIndex`] on arity mismatch.
    pub fn spare_fix(
        &mut self,
        function: CellFunction,
        inputs: &[NetId],
        sink: InstanceId,
        sink_pin: usize,
    ) -> Result<InstanceId, NetlistError> {
        if inputs.len() != function.num_inputs() {
            return Err(NetlistError::InvalidParameter(format!(
                "spare {function} needs {} inputs, got {}",
                function.num_inputs(),
                inputs.len()
            )));
        }
        let spare = self
            .nl
            .instances()
            .find(|(_, i)| i.spare && i.function() == function)
            .map(|(id, _)| id)
            .ok_or_else(|| NetlistError::NoSpareCell { function: function.name().to_string() })?;
        for (pin, &net) in inputs.iter().enumerate() {
            let old = self.nl.rewire_input(spare, pin, net)?;
            self.delta.edits.push(ConnectivityEdit::RewireInput {
                inst: spare,
                pin,
                from: old,
                to: net,
            });
        }
        let old_sink_net = self.nl.instance(sink).inputs[sink_pin];
        let spare_out = self.nl.instance(spare).output;
        self.nl.rewire_input(sink, sink_pin, spare_out)?;
        self.delta.edits.push(ConnectivityEdit::RewireInput {
            inst: sink,
            pin: sink_pin,
            from: old_sink_net,
            to: spare_out,
        });
        self.nl.instance_mut(spare).spare = false;
        self.delta.instances.insert(spare);
        self.delta.instances.insert(sink);
        self.delta.nets.extend(inputs.iter().copied());
        self.delta.nets.insert(old_sink_net);
        self.delta.nets.insert(spare_out);
        self.delta.nets.insert(self.nl.instance(sink).output);
        self.records.push(EcoRecord {
            kind: EcoKind::SpareFix,
            description: format!(
                "spare {} wired as {} feeding {}.{sink_pin}",
                self.nl.instance(spare).name,
                function,
                self.nl.instance(sink).name
            ),
        });
        Ok(spare)
    }

    /// Insert a pipeline flip-flop on `net` (spec change: adds a cycle of
    /// latency on that path). The original driver feeds the new flop; the
    /// flop's Q becomes `net`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Undriven`] if `net` is not instance-driven.
    pub fn add_pipeline_flop(
        &mut self,
        net: NetId,
        clk: NetId,
    ) -> Result<InstanceId, NetlistError> {
        use crate::graph::NetDriver;
        let driver = match self.nl.net(net).driver {
            Some(NetDriver::Instance(i)) => i,
            _ => {
                return Err(NetlistError::Undriven { net: self.nl.net(net).name.clone() });
            }
        };
        let mid_name = self.nl.fresh_net_name("eco_ff_n");
        let mid = self.nl.add_net(mid_name)?;
        self.delta.edits.push(ConnectivityEdit::AddNet { net: mid });
        self.nl.move_output(driver, mid)?;
        self.delta.edits.push(ConnectivityEdit::MoveOutput { inst: driver, from: net, to: mid });
        let ff_name = self.nl.fresh_instance_name("u_eco_ff");
        let block = self.nl.instance(driver).block.clone();
        let id = self.nl.add_instance(
            ff_name,
            Cell::new(CellFunction::Dff, Drive::X1),
            &[mid],
            net,
            Some(clk),
            block,
        )?;
        self.delta.edits.push(ConnectivityEdit::AddInstance { inst: id });
        self.delta.edits.push(ConnectivityEdit::Connect { inst: id, pin: 0, net: mid });
        self.delta.edits.push(ConnectivityEdit::Connect { inst: id, pin: usize::MAX, net: clk });
        self.delta.instances.insert(driver);
        self.delta.instances.insert(id);
        self.delta.nets.insert(mid);
        self.delta.nets.insert(net);
        self.delta.nets.insert(clk);
        self.records.push(EcoRecord {
            kind: EcoKind::AddFlop,
            description: format!("pipeline flop inserted on {}", self.nl.net(net).name),
        });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn small() -> Netlist {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(CellFunction::Nand2, Drive::X1, "u_g", &[a, c]);
        b.output("y", y);
        b.spare(CellFunction::Nand2);
        b.spare(CellFunction::Inv);
        b.finish()
    }

    #[test]
    fn rewire_records_and_applies() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let a = nl.find_net("a").unwrap();
        let mut eco = EcoSession::new(nl);
        eco.rewire(g, 1, a).unwrap();
        assert_eq!(eco.netlist().instance(g).inputs[1], a);
        assert_eq!(eco.records()[0].kind, EcoKind::Rewire);
        assert!(!eco.function_preserving());
    }

    #[test]
    fn buffer_insertion_preserves_structure() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let y = nl.instance(g).output;
        let n_before = nl.num_instances();
        let mut eco = EcoSession::new(nl);
        eco.insert_buffer(y, Drive::X4).unwrap();
        let nl = eco.netlist();
        assert_eq!(nl.num_instances(), n_before + 1);
        nl.validate().unwrap();
        // the output port net is now driven by the buffer
        use crate::graph::NetDriver;
        match nl.net(y).driver {
            Some(NetDriver::Instance(i)) => {
                assert_eq!(nl.instance(i).function(), CellFunction::Buf);
                assert_eq!(nl.instance(i).drive(), Drive::X4);
            }
            other => panic!("unexpected driver {other:?}"),
        }
        assert!(eco.function_preserving());
    }

    #[test]
    fn buffer_on_port_driven_net_buffers_the_sinks() {
        let nl = small();
        let a = nl.find_net("a").unwrap();
        let g = nl.find_instance("u_g").unwrap();
        let mut eco = EcoSession::new(nl);
        let buf = eco.insert_buffer(a, Drive::X1).unwrap();
        let nl = eco.netlist();
        nl.validate().unwrap();
        // the gate's A pin now reads the buffered copy, not the port net
        let buffered = nl.instance(buf).output;
        assert_eq!(nl.instance(g).inputs[0], buffered);
        // the buffer itself reads the port net
        assert_eq!(nl.instance(buf).inputs[0], a);
        // truly undriven nets still error
        let mut nl2 = camsoc_netlist_for_test();
        let floating = nl2.add_net("floating").unwrap();
        let mut eco2 = EcoSession::new(nl2);
        assert!(eco2.insert_buffer(floating, Drive::X1).is_err());
    }

    fn camsoc_netlist_for_test() -> Netlist {
        Netlist::new("t")
    }

    #[test]
    fn inverter_insertion() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let mut eco = EcoSession::new(nl);
        eco.insert_inverter(g, 0).unwrap();
        eco.netlist().validate().unwrap();
        let pin0 = eco.netlist().instance(g).inputs[0];
        use crate::graph::NetDriver;
        match eco.netlist().net(pin0).driver {
            Some(NetDriver::Instance(i)) => {
                assert_eq!(eco.netlist().instance(i).function(), CellFunction::Inv)
            }
            other => panic!("unexpected driver {other:?}"),
        }
        assert!(eco.insert_inverter(g, 9).is_err());
    }

    #[test]
    fn sizing_ladder_limits() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let mut eco = EcoSession::new(nl);
        eco.upsize(g).unwrap();
        eco.upsize(g).unwrap();
        eco.upsize(g).unwrap();
        assert_eq!(eco.netlist().instance(g).drive(), Drive::X8);
        assert!(eco.upsize(g).is_err());
        eco.downsize(g).unwrap();
        assert_eq!(eco.netlist().instance(g).drive(), Drive::X4);
        assert!(eco.function_preserving());
    }

    #[test]
    fn change_function_guards() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let mut eco = EcoSession::new(nl);
        eco.change_function(g, CellFunction::Xor2).unwrap();
        assert_eq!(eco.netlist().instance(g).function(), CellFunction::Xor2);
        // arity mismatch
        assert!(eco.change_function(g, CellFunction::Inv).is_err());
        // sequential rejected
        assert!(eco.change_function(g, CellFunction::Dffr).is_err());
    }

    #[test]
    fn spare_fix_consumes_spare() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let a = nl.find_net("a").unwrap();
        let b_net = nl.find_net("b").unwrap();
        let mut eco = EcoSession::new(nl);
        assert_eq!(eco.netlist().spares().count(), 2);
        let spare = eco.spare_fix(CellFunction::Nand2, &[a, b_net], g, 0).unwrap();
        assert!(!eco.netlist().instance(spare).spare);
        assert_eq!(eco.netlist().spares().count(), 1);
        assert_eq!(eco.netlist().instance(g).inputs[0], eco.netlist().instance(spare).output);
        // no second NAND2 spare
        assert!(matches!(
            eco.spare_fix(CellFunction::Nand2, &[a, b_net], g, 1),
            Err(NetlistError::NoSpareCell { .. })
        ));
        // wrong arity
        assert!(eco.spare_fix(CellFunction::Inv, &[a, b_net], g, 1).is_err());
        assert!(eco.records().iter().any(|r| r.kind == EcoKind::SpareFix));
        assert!(EcoKind::SpareFix.metal_only());
    }

    #[test]
    fn delta_tracks_touched_nets_and_instances() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let a = nl.find_net("a").unwrap();
        let mut eco = EcoSession::new(nl);
        assert!(eco.delta().is_empty());
        eco.upsize(g).unwrap();
        assert!(eco.delta().instances.contains(&g));
        assert!(eco.delta().nets.contains(&eco.netlist().instance(g).output));
        let first = eco.take_delta();
        assert!(eco.delta().is_empty());
        eco.rewire(g, 1, a).unwrap();
        assert!(eco.delta().nets.contains(&a));
        let mut merged = eco.take_delta();
        merged.merge(&first);
        assert!(merged.instances.contains(&g));
        assert!(merged.nets.contains(&a));
    }

    #[test]
    fn journal_patches_fanout_structures() {
        // One of every journaled op, then replay the journal against the
        // pre-edit compiled snapshot and require exact agreement with a
        // fresh compile (fanout rows compare as sets).
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let a = nl.find_net("a").unwrap();
        let y = nl.instance(g).output;
        let mut snapshot = nl.compile().unwrap();
        let mut eco = EcoSession::new(nl);
        eco.insert_inverter(g, 0).unwrap();
        eco.insert_buffer(y, Drive::X4).unwrap();
        eco.insert_buffer(a, Drive::X1).unwrap();
        eco.rewire(g, 1, a).unwrap();
        eco.spare_fix(CellFunction::Inv, &[a], g, 0).unwrap();
        eco.add_pipeline_flop(y, a).unwrap();
        let delta = eco.take_delta();
        assert!(!delta.edits.is_empty());
        let stats = snapshot.patch(eco.netlist(), &delta).unwrap();
        assert!(stats.fanout_entries_patched > 0);
        assert_eq!(snapshot, eco.netlist().compile().unwrap());
        // Replaying the same journal a second time is a chronology
        // violation; the dimension check rejects it without panicking.
        assert!(snapshot.patch(eco.netlist(), &delta).is_none());
    }

    #[test]
    fn pipeline_flop_insertion() {
        let nl = small();
        let g = nl.find_instance("u_g").unwrap();
        let y = nl.instance(g).output;
        let clk_nl = {
            let mut b = NetlistBuilder::new("x");
            b.input("clk");
            b.finish()
        };
        let _ = clk_nl;
        let mut eco = EcoSession::new(nl);
        // use net 'a' as a stand-in clock
        let clk = eco.netlist().find_net("a").unwrap();
        eco.add_pipeline_flop(y, clk).unwrap();
        eco.netlist().validate().unwrap();
        assert_eq!(eco.netlist().flops().count(), 1);
        assert!(!eco.function_preserving());
    }
}
