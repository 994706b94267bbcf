//! [`Codec`] impls for physical-design products and configs.
//!
//! `LayoutResult` is the heaviest stage product in a flow checkpoint
//! (per-instance coordinates, per-net lengths, clock latencies); every
//! coordinate and delay is stored as a raw `f64` bit pattern so a
//! resumed job continues from *exactly* the layout the killed process
//! computed. `ClockTree.latency_ns` is a `HashMap` in memory; it is
//! written as a vector of `(InstanceId, f64)` pairs sorted by id, so
//! the same tree always produces the same bytes regardless of hash
//! iteration order. `LvsMismatch.side` is `&'static str`; decode maps
//! it back onto the two strings the checker uses and rejects anything
//! else as corrupt.

use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};
use camsoc_netlist::graph::{InstanceId, MacroId};
use camsoc_par::Parallelism;
use camsoc_sta::TimingReport;

use crate::cts::ClockTree;
use crate::drc::{DrcReport, DrcViolation};
use crate::floorplan::{Floorplan, Rect, Row};
use crate::lvs::{LvsMismatch, LvsReport};
use crate::place::{Placement, PlacementConfig, PlacementMode};
use crate::route::{RouteConfig, RouteResult};
use crate::{ImplementOptions, LayoutResult};

impl Codec for Rect {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(self.x);
        e.put_f64(self.y);
        e.put_f64(self.w);
        e.put_f64(self.h);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Rect { x: d.get_f64()?, y: d.get_f64()?, w: d.get_f64()?, h: d.get_f64()? })
    }
}

impl Codec for Row {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(self.y);
        e.put_f64(self.height);
        e.put_f64(self.x);
        e.put_f64(self.width);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Row { y: d.get_f64()?, height: d.get_f64()?, x: d.get_f64()?, width: d.get_f64()? })
    }
}

impl Codec for Floorplan {
    fn encode(&self, e: &mut Encoder) {
        self.core.encode(e);
        self.die.encode(e);
        self.rows.encode(e);
        self.macros.encode(e);
        e.put_f64(self.site_um);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Floorplan {
            core: Rect::decode(d)?,
            die: Rect::decode(d)?,
            rows: Vec::<Row>::decode(d)?,
            macros: Vec::<(MacroId, Rect)>::decode(d)?,
            site_um: d.get_f64()?,
        })
    }
}

impl Codec for PlacementMode {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            PlacementMode::Wirelength => 0,
            PlacementMode::TimingDriven => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(PlacementMode::Wirelength),
            1 => Ok(PlacementMode::TimingDriven),
            t => Err(CodecError::Corrupt(format!("placement mode tag {t:#04x}"))),
        }
    }
}

impl Codec for PlacementConfig {
    fn encode(&self, e: &mut Encoder) {
        self.mode.encode(e);
        e.put_usize(self.iterations);
        e.put_u64(self.seed);
        e.put_f64(self.critical_weight);
        e.put_usize(self.starts);
        self.parallelism.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PlacementConfig {
            mode: PlacementMode::decode(d)?,
            iterations: d.get_usize()?,
            seed: d.get_u64()?,
            critical_weight: d.get_f64()?,
            starts: d.get_usize()?,
            parallelism: Parallelism::decode(d)?,
        })
    }
}

impl Codec for Placement {
    fn encode(&self, e: &mut Encoder) {
        self.x.encode(e);
        self.y.encode(e);
        self.row.encode(e);
        e.put_f64(self.hpwl_um);
        e.put_f64(self.initial_hpwl_um);
        e.put_usize(self.accepted_moves);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let p = Placement {
            x: Vec::<f64>::decode(d)?,
            y: Vec::<f64>::decode(d)?,
            row: Vec::<usize>::decode(d)?,
            hpwl_um: d.get_f64()?,
            initial_hpwl_um: d.get_f64()?,
            accepted_moves: d.get_usize()?,
        };
        if p.x.len() != p.y.len() || p.x.len() != p.row.len() {
            return Err(CodecError::Corrupt(format!(
                "placement arrays disagree: {} x, {} y, {} row",
                p.x.len(),
                p.y.len(),
                p.row.len()
            )));
        }
        Ok(p)
    }
}

impl Codec for RouteConfig {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.gcells);
        e.put_u32(self.edge_capacity);
        e.put_f64(self.capacity_scale);
        e.put_usize(self.rounds);
        e.put_f64(self.congestion_penalty);
        e.put_usize(self.max_fanout_routed);
        self.parallelism.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RouteConfig {
            gcells: d.get_usize()?,
            edge_capacity: d.get_u32()?,
            capacity_scale: d.get_f64()?,
            rounds: d.get_usize()?,
            congestion_penalty: d.get_f64()?,
            max_fanout_routed: d.get_usize()?,
            parallelism: Parallelism::decode(d)?,
        })
    }
}

impl Codec for RouteResult {
    fn encode(&self, e: &mut Encoder) {
        self.grid.encode(e);
        self.gcell_um.encode(e);
        self.net_length_um.encode(e);
        e.put_f64(self.total_wirelength_um);
        e.put_usize(self.overflowed_edges);
        e.put_u64(self.total_overflow);
        e.put_usize(self.unrouted_nets);
        e.put_f64(self.max_utilisation);
        e.put_usize(self.threads_used);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RouteResult {
            grid: <(usize, usize)>::decode(d)?,
            gcell_um: <(f64, f64)>::decode(d)?,
            net_length_um: Vec::<f64>::decode(d)?,
            total_wirelength_um: d.get_f64()?,
            overflowed_edges: d.get_usize()?,
            total_overflow: d.get_u64()?,
            unrouted_nets: d.get_usize()?,
            max_utilisation: d.get_f64()?,
            threads_used: d.get_usize()?,
        })
    }
}

impl Codec for ClockTree {
    fn encode(&self, e: &mut Encoder) {
        // Sorted by instance id for byte-stable output.
        let mut pairs: Vec<(InstanceId, f64)> =
            self.latency_ns.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_by_key(|&(k, _)| k);
        pairs.encode(e);
        e.put_usize(self.buffers);
        e.put_usize(self.levels);
        e.put_f64(self.skew_ns);
        e.put_f64(self.max_latency_ns);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let pairs = Vec::<(InstanceId, f64)>::decode(d)?;
        let mut latency_ns = std::collections::HashMap::with_capacity(pairs.len());
        for (k, v) in pairs {
            if latency_ns.insert(k, v).is_some() {
                return Err(CodecError::Corrupt(format!(
                    "duplicate clock latency for instance {}",
                    k.0
                )));
            }
        }
        Ok(ClockTree {
            latency_ns,
            buffers: d.get_usize()?,
            levels: d.get_usize()?,
            skew_ns: d.get_f64()?,
            max_latency_ns: d.get_f64()?,
        })
    }
}

impl Codec for DrcViolation {
    fn encode(&self, e: &mut Encoder) {
        match self {
            DrcViolation::CellOutsideCore { instance } => {
                e.put_u8(0);
                e.put_str(instance);
            }
            DrcViolation::CellOverlap { a, b } => {
                e.put_u8(1);
                e.put_str(a);
                e.put_str(b);
            }
            DrcViolation::MacroOverlap { a, b } => {
                e.put_u8(2);
                e.put_str(a);
                e.put_str(b);
            }
            DrcViolation::RoutingOverflow { edges } => {
                e.put_u8(3);
                e.put_usize(*edges);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(DrcViolation::CellOutsideCore { instance: d.get_str()? }),
            1 => Ok(DrcViolation::CellOverlap { a: d.get_str()?, b: d.get_str()? }),
            2 => Ok(DrcViolation::MacroOverlap { a: d.get_str()?, b: d.get_str()? }),
            3 => Ok(DrcViolation::RoutingOverflow { edges: d.get_usize()? }),
            t => Err(CodecError::Corrupt(format!("drc violation tag {t:#04x}"))),
        }
    }
}

impl Codec for DrcReport {
    fn encode(&self, e: &mut Encoder) {
        self.violations.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(DrcReport { violations: Vec::<DrcViolation>::decode(d)? })
    }
}

/// Map a decoded LVS side back onto its `&'static str`.
fn lvs_side_from(s: &str) -> Result<&'static str, CodecError> {
    match s {
        "schematic" => Ok("schematic"),
        "layout" => Ok("layout"),
        other => Err(CodecError::Corrupt(format!("unknown lvs side `{other}`"))),
    }
}

impl Codec for LvsMismatch {
    fn encode(&self, e: &mut Encoder) {
        match self {
            LvsMismatch::InstanceOnlyIn { side, name } => {
                e.put_u8(0);
                e.put_str(side);
                e.put_str(name);
            }
            LvsMismatch::CellDiffers { name, schematic, layout } => {
                e.put_u8(1);
                e.put_str(name);
                e.put_str(schematic);
                e.put_str(layout);
            }
            LvsMismatch::ConnectivityDiffers { name } => {
                e.put_u8(2);
                e.put_str(name);
            }
            LvsMismatch::PortDiffers { name } => {
                e.put_u8(3);
                e.put_str(name);
            }
            LvsMismatch::MacroDiffers { name } => {
                e.put_u8(4);
                e.put_str(name);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(LvsMismatch::InstanceOnlyIn {
                side: lvs_side_from(&d.get_str()?)?,
                name: d.get_str()?,
            }),
            1 => Ok(LvsMismatch::CellDiffers {
                name: d.get_str()?,
                schematic: d.get_str()?,
                layout: d.get_str()?,
            }),
            2 => Ok(LvsMismatch::ConnectivityDiffers { name: d.get_str()? }),
            3 => Ok(LvsMismatch::PortDiffers { name: d.get_str()? }),
            4 => Ok(LvsMismatch::MacroDiffers { name: d.get_str()? }),
            t => Err(CodecError::Corrupt(format!("lvs mismatch tag {t:#04x}"))),
        }
    }
}

impl Codec for LvsReport {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.matched);
        self.mismatches.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(LvsReport { matched: d.get_usize()?, mismatches: Vec::<LvsMismatch>::decode(d)? })
    }
}

impl Codec for ImplementOptions {
    fn encode(&self, e: &mut Encoder) {
        self.placement.encode(e);
        self.routing.encode(e);
        e.put_str(&self.clock_port);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ImplementOptions {
            placement: PlacementConfig::decode(d)?,
            routing: RouteConfig::decode(d)?,
            clock_port: d.get_str()?,
        })
    }
}

impl Codec for LayoutResult {
    fn encode(&self, e: &mut Encoder) {
        self.floorplan.encode(e);
        self.placement.encode(e);
        self.routing.encode(e);
        self.clock_tree.encode(e);
        self.wire_delays_ns.encode(e);
        self.drc.encode(e);
        self.timing.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(LayoutResult {
            floorplan: Floorplan::decode(d)?,
            placement: Placement::decode(d)?,
            routing: RouteResult::decode(d)?,
            clock_tree: ClockTree::decode(d)?,
            wire_delays_ns: Vec::<f64>::decode(d)?,
            drc: DrcReport::decode(d)?,
            timing: TimingReport::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = T::decode(&mut d).expect("decode");
        d.expect_end().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn configs_round_trip() {
        round_trip(&ImplementOptions::default());
        round_trip(&PlacementConfig {
            mode: PlacementMode::TimingDriven,
            iterations: 77,
            seed: u64::MAX,
            critical_weight: 2.5,
            starts: 3,
            parallelism: Parallelism::Auto,
        });
        round_trip(&RouteConfig { max_fanout_routed: 0, ..RouteConfig::default() });
    }

    #[test]
    fn clock_tree_bytes_are_hash_order_independent() {
        let mut t = ClockTree {
            latency_ns: std::collections::HashMap::new(),
            buffers: 12,
            levels: 3,
            skew_ns: 0.07,
            max_latency_ns: 0.31,
        };
        for i in 0..50u32 {
            t.latency_ns.insert(InstanceId(i), f64::from(i) * 0.01);
        }
        let mut e1 = Encoder::new();
        t.encode(&mut e1);
        // rebuild the map in a different insertion order
        let mut t2 = t.clone();
        t2.latency_ns.clear();
        for i in (0..50u32).rev() {
            t2.latency_ns.insert(InstanceId(i), f64::from(i) * 0.01);
        }
        let mut e2 = Encoder::new();
        t2.encode(&mut e2);
        assert_eq!(e1.into_bytes(), e2.into_bytes());
        round_trip(&t);
    }

    #[test]
    fn drc_and_lvs_round_trip_every_variant() {
        round_trip(&DrcReport {
            violations: vec![
                DrcViolation::CellOutsideCore { instance: "u_π".into() },
                DrcViolation::CellOverlap { a: "u0".into(), b: "u1".into() },
                DrcViolation::MacroOverlap { a: "m0".into(), b: "m1".into() },
                DrcViolation::RoutingOverflow { edges: 9 },
            ],
        });
        round_trip(&LvsReport {
            matched: 4,
            mismatches: vec![
                LvsMismatch::InstanceOnlyIn { side: "schematic", name: "u0".into() },
                LvsMismatch::InstanceOnlyIn { side: "layout", name: "u1".into() },
                LvsMismatch::CellDiffers {
                    name: "u2".into(),
                    schematic: "ND2X1".into(),
                    layout: "NR2X1".into(),
                },
                LvsMismatch::ConnectivityDiffers { name: "u3".into() },
                LvsMismatch::PortDiffers { name: "dout".into() },
                LvsMismatch::MacroDiffers { name: "m".into() },
            ],
        });
        // unknown side is corruption
        let mut e = Encoder::new();
        e.put_u8(0);
        e.put_str("gds"); // not a valid side
        e.put_str("u0");
        let b = e.into_bytes();
        assert!(matches!(
            LvsMismatch::decode(&mut Decoder::new(&b)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn mismatched_placement_arrays_are_corrupt() {
        let p = Placement {
            x: vec![1.0, 2.0],
            y: vec![1.0],
            row: vec![0, 0],
            hpwl_um: 3.0,
            initial_hpwl_um: 4.0,
            accepted_moves: 5,
        };
        let mut e = Encoder::new();
        p.encode(&mut e);
        let b = e.into_bytes();
        assert!(matches!(
            Placement::decode(&mut Decoder::new(&b)),
            Err(CodecError::Corrupt(_))
        ));
    }
}
