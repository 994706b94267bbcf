//! Naive reference versions of the combinational kernels, for tests and
//! `perf_report` to check the production engines against.
//!
//! Each is the obvious walk over [`Netlist`] structs: no compiled
//! snapshot, cone index, scratch or early exit, and no code shared with
//! the engines they check. They are slow on purpose; only their answers
//! matter.

use std::collections::{HashMap, HashSet};

use camsoc_dft::faults::StuckAtFault;
use camsoc_netlist::graph::{Driver, NetId, Netlist};

fn forced(stuck_one: bool) -> u64 {
    if stuck_one {
        !0
    } else {
        0
    }
}

/// Every net's value in 64 parallel lanes. `sources` assigns its nets,
/// every other net starts at 0, and the combinational gates are
/// evaluated in [`Netlist::combinational_topo_order`] order. A net
/// `fault` forces its net; a pin fault forces one input of one
/// combinational gate, and changes nothing on a sequential instance.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle.
pub fn comb_values(
    nl: &Netlist,
    sources: &[(NetId, u64)],
    fault: Option<StuckAtFault>,
) -> Vec<u64> {
    let mut values = vec![0u64; nl.num_nets()];
    for &(net, value) in sources {
        values[net.index()] = value;
    }
    if let Some(StuckAtFault::Net { net, stuck_one }) = fault {
        values[net.index()] = forced(stuck_one);
    }
    for id in nl.combinational_topo_order().expect("acyclic netlist") {
        let inst = nl.instance(id);
        let mut ins: Vec<u64> = inst.inputs.iter().map(|n| values[n.index()]).collect();
        match fault {
            Some(StuckAtFault::Net { net, .. }) if net == inst.output => continue,
            Some(StuckAtFault::Pin { inst: at, pin, stuck_one }) if at == id => {
                ins[pin] = forced(stuck_one);
            }
            _ => {}
        }
        values[inst.output.index()] = inst.function().eval(&ins);
    }
    values
}

/// The full-scan view's sink nets: primary outputs, the inputs of
/// sequential instances and macro inputs.
fn sink_nets(nl: &Netlist) -> HashSet<NetId> {
    let mut sinks: HashSet<NetId> = nl.output_ports().map(|(_, p)| p.net).collect();
    for (_, inst) in nl.instances().filter(|(_, i)| i.function().is_sequential()) {
        sinks.extend(&inst.inputs);
    }
    for (_, m) in nl.macros() {
        sinks.extend(&m.inputs);
    }
    sinks
}

/// The lanes in which `fault` is detected: the OR, over every sink, of
/// the good value (`good`, from [`comb_values`] without a fault) XOR the
/// faulty value.
pub fn fault_lanes(
    nl: &Netlist,
    sources: &[(NetId, u64)],
    good: &[u64],
    fault: StuckAtFault,
) -> u64 {
    let bad = comb_values(nl, sources, Some(fault));
    sink_nets(nl).iter().fold(0, |lanes, n| lanes | (good[n.index()] ^ bad[n.index()]))
}

/// The sorted indices into `sources` of the sources in the transitive
/// fanin of `sink`: a depth-first walk back through combinational
/// gates that stops at sources; sequential instances end the walk too.
pub fn cone_support(nl: &Netlist, sources: &[NetId], sink: NetId) -> Vec<usize> {
    let index: HashMap<NetId, usize> = sources.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut seen = HashSet::new();
    let mut support = Vec::new();
    let mut stack = vec![sink];
    while let Some(net) = stack.pop() {
        if !seen.insert(net) {
            continue;
        }
        if let Some(&i) = index.get(&net) {
            support.push(i);
        } else if let Some(Driver::Instance(id)) = nl.net(net).driver {
            let inst = nl.instance(id);
            if !inst.function().is_sequential() {
                stack.extend(&inst.inputs);
            }
        }
    }
    support.sort_unstable();
    support
}
