//! The graph-walking timing pass, kept only as the test oracle for the
//! compiled pass every caller runs.
//!
//! It levelizes with [`Netlist::combinational_topo_order`] (Kahn order)
//! and reads `Instance`/`Net` structs and [`Netlist::fanout_map`]
//! instead of the snapshot's flat arrays. It shares nothing with the
//! compiled pass but the launch-point seeding, the endpoint
//! requirements and the report, so a fault in the compiled per-gate
//! kernels, delays or traversal order shows up as a difference.

use std::collections::HashMap;

use camsoc_netlist::graph::{InstanceId, NetId};

use crate::analysis::{Annotation, Sta, StaError, TimingReport, NEG, POS};

impl Sta<'_> {
    /// Stage delay of `id` under the late derate, from the graph.
    fn late_delay(&self, id: InstanceId, fanout_out: usize) -> f64 {
        let inst = self.nl.instance(id);
        self.tech.cell_delay_ns(inst.cell, fanout_out) * self.corner.late
            + self.wire_delay(inst.output, fanout_out) * self.corner.late
    }

    /// Stage delay of `id` under the early derate, from the graph.
    fn early_delay(&self, id: InstanceId, fanout_out: usize) -> f64 {
        let inst = self.nl.instance(id);
        self.tech.cell_delay_ns(inst.cell, fanout_out) * self.corner.early
            + self.wire_delay(inst.output, fanout_out) * self.corner.early
    }

    /// Forward evaluation of one gate over `Instance::inputs`.
    fn eval_forward(
        &self,
        id: InstanceId,
        fanout: &[usize],
        at_max: &mut [f64],
        at_min: &mut [f64],
        pred: &mut [Option<(InstanceId, NetId)>],
    ) -> bool {
        let inst = self.nl.instance(id);
        if inst.function().is_tie() {
            return false;
        }
        let o = inst.output.index();
        at_max[o] = NEG;
        at_min[o] = POS;
        pred[o] = None;
        let cell_late = self.late_delay(id, fanout[o]);
        let cell_early = self.early_delay(id, fanout[o]);
        let mut best_max = NEG;
        let mut best_net = None;
        let mut best_min = POS;
        for &i in &inst.inputs {
            if at_max[i.index()] > best_max {
                best_max = at_max[i.index()];
                best_net = Some(i);
            }
            best_min = best_min.min(at_min[i.index()]);
        }
        if best_max > NEG {
            let v = best_max + cell_late;
            if v > at_max[o] {
                at_max[o] = v;
                pred[o] = Some((id, best_net.expect("max input")));
            }
        }
        if best_min < POS {
            at_min[o] = at_min[o].min(best_min + cell_early);
        }
        true
    }

    /// Setup required time of `net` over the graph's fanout map.
    fn eval_required(
        &self,
        net: NetId,
        fanout_map: &[Vec<(InstanceId, usize)>],
        fanout: &[usize],
        endpoint_req: &[f64],
        req_max: &[f64],
    ) -> f64 {
        let mut req = endpoint_req[net.index()];
        for &(reader, pin) in &fanout_map[net.index()] {
            if pin == usize::MAX {
                continue; // clock pin
            }
            let inst = self.nl.instance(reader);
            if inst.function().is_sequential() || inst.function().is_tie() {
                continue;
            }
            let out = inst.output.index();
            if req_max[out] == POS {
                continue;
            }
            req = req.min(req_max[out] - self.late_delay(reader, fanout[out]));
        }
        req
    }

    /// [`Sta::annotate`] by the graph pass: Kahn levelization, then the
    /// same seeding and the same forward and backward sweeps.
    pub(crate) fn annotate_graph(&self) -> Result<Annotation, StaError> {
        let order = self.nl.combinational_topo_order()?;
        let flop_clock = self.flop_clock_map()?;
        Ok(self.annotate_with(order, flop_clock))
    }

    fn annotate_with(
        &self,
        order: Vec<InstanceId>,
        flop_clock: HashMap<InstanceId, f64>,
    ) -> Annotation {
        let fanout = self.nl.fanout_counts();
        let default_period =
            self.constraints.fastest_clock().map(|c| c.period_ns).unwrap_or(POS);
        let n = self.nl.num_nets();
        let mut at_max = vec![NEG; n];
        let mut at_min = vec![POS; n];
        let mut pred: Vec<Option<(InstanceId, NetId)>> = vec![None; n];
        let mut start_label: Vec<Option<String>> = vec![None; n];

        let io_reference_ns = self.io_reference_ns();
        let clock_ports = self.clock_port_nets();
        let launch_nets = self
            .nl
            .input_ports()
            .map(|(_, p)| p.net)
            .chain(self.nl.flops().map(|(_, inst)| inst.output))
            .chain(self.nl.macros().flat_map(|(_, m)| m.outputs.iter().copied()));
        for net in launch_nets {
            self.seed_net(
                net,
                &clock_ports,
                io_reference_ns,
                &mut at_max,
                &mut at_min,
                &mut pred,
                &mut start_label,
            );
        }

        let mut evaluated = 0usize;
        for &id in &order {
            if self.eval_forward(id, &fanout, &mut at_max, &mut at_min, &mut pred) {
                evaluated += 1;
            }
        }

        let fanout_map = self.nl.fanout_map();
        let endpoint_req = self.endpoint_required(&flop_clock, default_period);
        let mut req_max = vec![POS; n];
        let mut req_done = vec![false; n];
        for &id in order.iter().rev() {
            let out = self.nl.instance(id).output;
            req_max[out.index()] =
                self.eval_required(out, &fanout_map, &fanout, &endpoint_req, &req_max);
            req_done[out.index()] = true;
            evaluated += 1;
        }
        for i in 0..n {
            if !req_done[i] {
                let net = NetId(i as u32);
                req_max[i] =
                    self.eval_required(net, &fanout_map, &fanout, &endpoint_req, &req_max);
                evaluated += 1;
            }
        }

        Annotation {
            at_max,
            at_min,
            req_max,
            pred,
            start_label,
            order,
            flop_clock,
            default_period,
            evaluated,
        }
    }

    /// [`Sta::analyze`] by the graph pass.
    pub(crate) fn analyze_graph(&self) -> Result<TimingReport, StaError> {
        Ok(self.report_from(&self.annotate_graph()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use crate::derate::Corner;
    use crate::macro_model::MacroTiming;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::CellFunction;
    use camsoc_netlist::generate::{ip_block, IpBlockParams, SplitMix64};
    use camsoc_netlist::graph::Netlist;
    use camsoc_netlist::tech::Technology;

    /// Random clocked logic around two memory macros: `u_hard` is timed
    /// through a hardened abstract (one output launches late, one input
    /// pin is unconstrained, one carries a high hold floor), `u_soft`
    /// keeps the generic memory arcs. Every third capture flop reads a
    /// launch flop directly, so skewed clock latencies break hold.
    fn macro_design(seed: u64) -> (Netlist, HashMap<String, MacroTiming>) {
        let mut rng = SplitMix64::new(seed);
        let mut b = NetlistBuilder::new("mac");
        let clk = b.input("clk");
        let mut pool: Vec<NetId> = (0..8).map(|i| b.input(&format!("din{i}"))).collect();
        let mut launch = Vec::new();
        for i in 0..12 {
            let d = pool[rng.below(pool.len())];
            let q = b.dff(&format!("u_l{i}"), d, clk);
            launch.push(q);
            pool.push(q);
        }
        let hard_out: Vec<NetId> = (0..3).map(|_| b.fresh_net()).collect();
        let soft_out: Vec<NetId> = (0..2).map(|_| b.fresh_net()).collect();
        pool.extend(&hard_out);
        pool.extend(&soft_out);
        let functions = [
            CellFunction::Nand2,
            CellFunction::Nor2,
            CellFunction::Xor2,
            CellFunction::Inv,
            CellFunction::Buf,
            CellFunction::Maj3,
        ];
        for _ in 0..160 {
            let f = functions[rng.below(functions.len())];
            let inputs: Vec<NetId> =
                (0..f.num_inputs()).map(|_| pool[rng.below(pool.len())]).collect();
            let y = b.gate_auto(f, &inputs);
            pool.push(y);
        }
        let late = |rng: &mut SplitMix64| pool[pool.len() - 1 - rng.below(48)];
        let hard_in: Vec<NetId> = (0..4).map(|_| late(&mut rng)).collect();
        let soft_in: Vec<NetId> = (0..3).map(|_| late(&mut rng)).collect();
        let captures: Vec<NetId> = (0..12)
            .map(|i| if i % 3 == 0 { launch[i] } else { late(&mut rng) })
            .collect();
        b.memory("u_hard", 64, 8, hard_in, hard_out);
        b.memory("u_soft", 64, 8, soft_in, soft_out);
        for (i, d) in captures.into_iter().enumerate() {
            let q = b.dff(&format!("u_c{i}"), d, clk);
            b.output(&format!("dout{i}"), q);
        }
        let hard = MacroTiming {
            output_arrival_max_ns: vec![0.9, 1.4, 0.6],
            output_arrival_min_ns: vec![0.3, 0.5, 0.2],
            input_margin_ns: vec![1.2, f64::NEG_INFINITY, 0.8, 2.0],
            input_hold_ns: vec![0.08, f64::NEG_INFINITY, 0.9, 0.08],
            pessimism_ns: 0.05,
        };
        (b.finish(), HashMap::from([("u_hard".to_string(), hard)]))
    }

    /// What sign-off adds to a pre-layout analysis: extracted per-net
    /// wire delays, per-flop CTS latencies and hardened-macro models.
    struct SignoffView {
        wires: Vec<f64>,
        latency: HashMap<InstanceId, f64>,
        macros: HashMap<String, MacroTiming>,
    }

    /// Seeded wire delays of up to 0.3 ns and latencies of up to 0.8 ns.
    fn signoff_view(nl: &Netlist, macros: &HashMap<String, MacroTiming>, seed: u64) -> SignoffView {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |scale: f64| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * scale;
        let wires = (0..nl.num_nets()).map(|_| draw(0.3)).collect();
        let latency = nl.flops().map(|(id, _)| (id, draw(0.8))).collect();
        SignoffView { wires, latency, macros: macros.clone() }
    }

    #[test]
    fn sta_reports_on_compiled_core_match_graph_engine() {
        let tech = Technology::default();
        let mut designs: Vec<(String, Netlist, HashMap<String, MacroTiming>)> = [9u64, 23]
            .into_iter()
            .map(|seed| {
                let params = IpBlockParams { target_gates: 600, seed, ..Default::default() };
                (format!("ip_block seed {seed}"), ip_block("blk", &params).unwrap(), HashMap::new())
            })
            .collect();
        for seed in [3u64, 4] {
            let (nl, macros) = macro_design(seed);
            designs.push((format!("macro design seed {seed}"), nl, macros));
        }
        let mut hold_violations = 0usize;
        for (name, nl, macros) in &designs {
            let cn = nl.compile().unwrap();
            let signoff = signoff_view(nl, macros, cn.num_nets() as u64);
            for (view, setup) in [("pre-layout", None), ("sign-off", Some(&signoff))] {
                for corner in [Corner::typical(), Corner::worst(), Corner::best()] {
                    let context = format!("{name}, {view}, {} corner", corner.name);
                    let make = || {
                        let sta = Sta::new(nl, &tech, Constraints::single_clock("clk", 7.5))
                            .with_corner(corner);
                        match setup {
                            None => sta,
                            Some(v) => sta
                                .with_wire_delays(v.wires.clone())
                                .with_clock_latency(v.latency.clone())
                                .with_macro_timing(v.macros.clone()),
                        }
                    };
                    let graph = make().annotate_graph().unwrap();
                    let graph_report = make().analyze_graph().unwrap();
                    hold_violations += graph_report.hold.violations;
                    // compiling its own snapshot, then over a lent one
                    for sta in [make(), make().with_compiled(&cn)] {
                        let ann = sta.annotate().unwrap();
                        assert_eq!(ann.topo_order(), cn.topo_order(), "{context}: order");
                        // Kahn order differs from (level, id) order;
                        // no value may
                        let mut same_order = ann.clone();
                        same_order.order = graph.order.clone();
                        assert_eq!(same_order, graph, "{context}: annotation");
                        assert_eq!(sta.analyze().unwrap(), graph_report, "{context}: report");
                    }
                }
            }
        }
        assert!(hold_violations > 0, "the fixtures must break hold somewhere");
    }
}
