//! Hierarchical bottom-up hardening.
//!
//! The paper's team hardened the DSC's big IP blocks bottom-up: each
//! macro ran the full implementation flow on its own, was abstracted to
//! a boundary timing model plus a physical outline, and the top level
//! then integrated those abstracts as opaque placed blocks instead of
//! re-flattening a million gates. This module rebuilds that flow over
//! the supervised engine in [`crate::flow`]:
//!
//! * [`harden_one`] runs the full supervised flow
//!   ([`FlowSupervisor::run`]) on a macro's netlist and distils the
//!   result into a [`MacroAbstract`]: per-pin boundary timing arcs
//!   (a [`MacroTiming`] extracted from the hardened netlist's sign-off
//!   view), the hardened die outline, the interface pin names, and the
//!   internal sign-off verdict (WNS figures the top level cannot see
//!   through the abstract).
//! * Every abstract is keyed by [`content_hash`] — a fingerprint of the
//!   macro netlist *and* the exact [`FlowOptions`] it was hardened
//!   under — so [`harden_macros`] dedupes identical tiles before
//!   fanning the unique hardens over `camsoc-par` workers, and an
//!   [`AbstractCache`] on disk makes an unchanged macro free on the
//!   next run ([`HardenReport`] proves it: zero re-hardens warm).
//! * [`hard_macros`] folds abstracts into the [`HardMacros`] view the
//!   flow consumes: [`FlowSupervisor::with_hier`] makes the top-level
//!   floorplanner place each macro as a fixed obstacle of its exact
//!   hardened outline while every STA times through the abstract's
//!   boundary arcs.
//! * [`build_tiled_flat`] / [`build_tiled_hier`] generate the same
//!   design both ways — M instances of a small IP-block library, bus-
//!   chained under a thin glue top — at any scale up to millions of
//!   gates, which is what the `hier` perf row and the fidelity tests
//!   drive.
//!
//! Abstract files use the same versioned-container discipline as flow
//! checkpoints (`"MABS"` magic, format version, trailing bytes
//! rejected) and the same atomic write-temp-then-rename, so a crashed
//! harden can never leave a torn abstract for the next run to trust.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;

use camsoc_layout::HardMacros;
use camsoc_netlist::builder::NetlistBuilder;
use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};
use camsoc_netlist::generate::{self, counter_into, IpBlockParams};
use camsoc_netlist::graph::{NetId, Netlist};
use camsoc_netlist::NetlistError;
use camsoc_par::Parallelism;
use camsoc_sta::{Constraints, MacroTiming, Sta};

use crate::flow::{FlowError, FlowOptions, FlowSupervisor};
use crate::persist::write_atomic;

/// First four bytes of every abstract file: `"MABS"` little-endian.
pub const ABSTRACT_MAGIC: u32 = u32::from_le_bytes(*b"MABS");

/// Newest abstract format this build reads and writes.
pub const ABSTRACT_VERSION: u32 = 1;

/// Default pessimism folded into every boundary arc (ns). The abstract
/// is derived from the hardened netlist without the macro's internal
/// wire/clock annotations, so a small guard band keeps the hierarchical
/// sign-off conservative rather than optimistic against flat.
pub const DEFAULT_PESSIMISM_NS: f64 = 0.05;

/// The deterministic abstract of one hardened macro: everything the
/// top level needs to integrate it as an opaque placed block.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroAbstract {
    /// Design name of the macro netlist (not the instance name — one
    /// abstract serves every instance with the same content hash).
    pub name: String,
    /// [`content_hash`] of the macro netlist + hardening options; the
    /// cache key.
    pub content_hash: u64,
    /// Instance count of the macro netlist as submitted (pre-scan).
    pub gate_count: usize,
    /// Hardened die width in µm (the top-level obstacle outline).
    pub width_um: f64,
    /// Hardened die height in µm.
    pub height_um: f64,
    /// Input pin names, in the macro's port order (the order top-level
    /// instances must wire them in).
    pub inputs: Vec<String>,
    /// Output pin names, in port order.
    pub outputs: Vec<String>,
    /// Per-pin boundary timing arcs for the top-level STA.
    pub timing: MacroTiming,
    /// Whether the macro's own flow reached tape-out cleanly.
    pub signed_off: bool,
    /// The macro-internal sign-off setup WNS (ns) — invisible through
    /// the boundary model, so hierarchical sign-off folds it back in.
    pub setup_wns_ns: f64,
    /// The macro-internal sign-off hold WNS (ns).
    pub hold_wns_ns: f64,
}

impl Codec for MacroAbstract {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u64(self.content_hash);
        e.put_usize(self.gate_count);
        e.put_f64(self.width_um);
        e.put_f64(self.height_um);
        self.inputs.encode(e);
        self.outputs.encode(e);
        self.timing.output_arrival_max_ns.encode(e);
        self.timing.output_arrival_min_ns.encode(e);
        self.timing.input_margin_ns.encode(e);
        self.timing.input_hold_ns.encode(e);
        e.put_f64(self.timing.pessimism_ns);
        e.put_bool(self.signed_off);
        e.put_f64(self.setup_wns_ns);
        e.put_f64(self.hold_wns_ns);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MacroAbstract {
            name: d.get_str()?,
            content_hash: d.get_u64()?,
            gate_count: d.get_usize()?,
            width_um: d.get_f64()?,
            height_um: d.get_f64()?,
            inputs: Vec::<String>::decode(d)?,
            outputs: Vec::<String>::decode(d)?,
            timing: MacroTiming {
                output_arrival_max_ns: Vec::<f64>::decode(d)?,
                output_arrival_min_ns: Vec::<f64>::decode(d)?,
                input_margin_ns: Vec::<f64>::decode(d)?,
                input_hold_ns: Vec::<f64>::decode(d)?,
                pessimism_ns: d.get_f64()?,
            },
            signed_off: d.get_bool()?,
            setup_wns_ns: d.get_f64()?,
            hold_wns_ns: d.get_f64()?,
        })
    }
}

impl MacroAbstract {
    /// Deterministic boundary pin placement over the hardened outline,
    /// in µm relative to the macro's lower-left corner: input pins
    /// evenly spaced up the left edge, output pins up the right edge,
    /// indexed as `inputs` followed by `outputs`. A pure function of
    /// the stored outline and pin lists, so every consumer of the same
    /// abstract derives the same positions.
    pub fn pin_positions_um(&self) -> Vec<(f64, f64)> {
        let edge = |n: usize, x: f64| {
            (0..n).map(move |i| (x, self.height_um * (i as f64 + 0.5) / n as f64))
        };
        edge(self.inputs.len(), 0.0)
            .chain(edge(self.outputs.len(), self.width_um))
            .collect()
    }

    /// Serialize into a self-describing byte stream (magic + format
    /// version + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(ABSTRACT_MAGIC);
        e.put_u32(ABSTRACT_VERSION);
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Decode a stream written by [`MacroAbstract::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on bad magic or trailing bytes,
    /// [`CodecError::Version`] on an unsupported format version, and
    /// any payload decode error (truncation at *every* prefix included).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let magic = d.get_u32()?;
        if magic != ABSTRACT_MAGIC {
            return Err(CodecError::Corrupt(format!("bad abstract magic {magic:#010x}")));
        }
        let version = d.get_u32()?;
        if version != ABSTRACT_VERSION {
            return Err(CodecError::Version { found: version, supported: ABSTRACT_VERSION });
        }
        let abs = MacroAbstract::decode(&mut d)?;
        d.expect_end()?;
        Ok(abs)
    }
}

/// Fingerprint a macro netlist together with the exact flow options it
/// will be hardened under. Two macros with the same hash produce the
/// same abstract (the whole flow is deterministic in its inputs), so
/// the hash is both the dedupe key and the disk-cache key. FNV-1a over
/// the canonical codec bytes — dependency-free, stable across runs and
/// processes.
pub fn content_hash(netlist: &Netlist, options: &FlowOptions) -> u64 {
    let mut e = Encoder::new();
    netlist.encode(&mut e);
    options.encode(&mut e);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &e.into_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Harden one macro: run the full supervised flow on its netlist and
/// abstract the result.
///
/// The boundary [`MacroTiming`] is extracted from the hardened (scan +
/// ECO) netlist at the typical corner *without* the macro's internal
/// wire-delay and clock-latency annotations — that keeps the model a
/// pure function of the netlist (deterministic and cheap to re-derive),
/// with `pessimism_ns` guarding the coarseness. Scan insertion appends
/// its ports after the original interface, so the first pins of the
/// extracted model line up with the macro's original port order — the
/// order top-level instances wire.
///
/// # Errors
///
/// Any [`FlowError`] from the macro's own flow, or an STA error from
/// the boundary extraction.
pub fn harden_one(
    netlist: &Netlist,
    options: &FlowOptions,
    pessimism_ns: f64,
) -> Result<MacroAbstract, FlowError> {
    let hash = content_hash(netlist, options);
    let inputs: Vec<String> =
        netlist.input_ports().map(|(_, p)| p.name.clone()).collect();
    let outputs: Vec<String> =
        netlist.output_ports().map(|(_, p)| p.name.clone()).collect();
    let gate_count = netlist.num_instances();
    let result = FlowSupervisor::new(options.clone()).run(netlist.clone())?;
    let die = result.layout.floorplan.die;
    let constraints =
        Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let annotation = Sta::new(&result.netlist, &options.tech, constraints).annotate()?;
    let timing = MacroTiming::extract(&result.netlist, &annotation, &options.tech, pessimism_ns);
    Ok(MacroAbstract {
        name: netlist.name.clone(),
        content_hash: hash,
        gate_count,
        width_um: die.w,
        height_um: die.h,
        inputs,
        outputs,
        timing,
        signed_off: result.tapeout_ready(),
        setup_wns_ns: result.signoff_timing.setup.wns_ns,
        hold_wns_ns: result.signoff_timing.hold.wns_ns,
    })
}

/// Disk cache of hardened abstracts, one `<content-hash>.mabs` file
/// per abstract. Writes are atomic (temp + rename), loads are
/// fail-open: a missing, torn or stale file is simply a cache miss.
#[derive(Debug, Clone)]
pub struct AbstractCache {
    dir: PathBuf,
}

impl AbstractCache {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(AbstractCache { dir })
    }

    /// The file a given content hash lives at.
    pub fn path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.mabs"))
    }

    /// Load the abstract for a content hash, or `None` on any miss
    /// (absent file, undecodable bytes, or a hash mismatch inside the
    /// file — a renamed foreign abstract never masquerades as a hit).
    pub fn load(&self, hash: u64) -> Option<MacroAbstract> {
        let bytes = fs::read(self.path(hash)).ok()?;
        let abs = MacroAbstract::from_bytes(&bytes).ok()?;
        (abs.content_hash == hash).then_some(abs)
    }

    /// Store an abstract under its own content hash, atomically.
    ///
    /// # Errors
    ///
    /// Any filesystem error from the write or the rename.
    pub fn store(&self, abs: &MacroAbstract) -> io::Result<()> {
        write_atomic(&self.path(abs.content_hash), &abs.to_bytes())
    }
}

/// What [`harden_macros`] actually did: the warm-cache invariant is
/// `hardened == 0` on a re-run with nothing changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenReport {
    /// Macro netlists submitted.
    pub requested: usize,
    /// Distinct content hashes among them (identical tiles dedupe).
    pub unique: usize,
    /// Uniques served straight from the [`AbstractCache`].
    pub cache_hits: usize,
    /// Uniques that actually ran the hardening flow this call.
    pub hardened: usize,
}

/// Harden a set of macros bottom-up: dedupe by [`content_hash`], serve
/// unchanged macros from the cache, and fan the remaining hardens over
/// `camsoc-par` workers. The result is keyed by content hash and is
/// bit-identical for every `par` value (worker fan-out only changes
/// wall-clock time).
///
/// # Errors
///
/// The first failing macro's [`FlowError`], in submission order.
pub fn harden_macros(
    blocks: &[Netlist],
    options: &FlowOptions,
    pessimism_ns: f64,
    cache: Option<&AbstractCache>,
    par: Parallelism,
) -> Result<(HashMap<u64, MacroAbstract>, HardenReport), FlowError> {
    let mut report = HardenReport { requested: blocks.len(), ..HardenReport::default() };
    let mut abstracts: HashMap<u64, MacroAbstract> = HashMap::new();
    let mut misses: Vec<(u64, &Netlist)> = Vec::new();
    for nl in blocks {
        let hash = content_hash(nl, options);
        if abstracts.contains_key(&hash) || misses.iter().any(|&(h, _)| h == hash) {
            continue; // an identical tile: one harden serves them all
        }
        report.unique += 1;
        match cache.and_then(|c| c.load(hash)) {
            Some(hit) => {
                report.cache_hits += 1;
                abstracts.insert(hash, hit);
            }
            None => misses.push((hash, nl)),
        }
    }
    report.hardened = misses.len();
    let hardened =
        camsoc_par::map(par, &misses, |&(_, nl)| harden_one(nl, options, pessimism_ns));
    for done in hardened {
        let abs = done?;
        if let Some(c) = cache {
            // best-effort: a failed store only costs a re-harden later
            let _ = c.store(&abs);
        }
        abstracts.insert(abs.content_hash, abs);
    }
    Ok((abstracts, report))
}

/// Fold hardened abstracts into the [`HardMacros`] view the flow
/// consumes ([`FlowSupervisor::with_hier`]): `binding` maps each
/// top-level macro *instance* name to the content hash of the abstract
/// that implements it. Instances whose hash has no abstract are left
/// out (they keep the generic memory treatment).
pub fn hard_macros(
    binding: &[(String, u64)],
    abstracts: &HashMap<u64, MacroAbstract>,
) -> HardMacros {
    let mut hard = HardMacros::default();
    for (instance, hash) in binding {
        if let Some(a) = abstracts.get(hash) {
            hard.outlines_um.insert(instance.clone(), (a.width_um, a.height_um));
            hard.timing.insert(instance.clone(), a.timing.clone());
        }
    }
    hard
}

/// The hierarchical sign-off verdict: the top-level flow result only
/// sees boundary arcs, so fold the macro-internal WNS figures back in.
/// Returns `(setup_wns_ns, hold_wns_ns, signed_off)` across the whole
/// hierarchy.
pub fn fold_signoff(
    top_setup_wns_ns: f64,
    top_hold_wns_ns: f64,
    top_signed_off: bool,
    used: &[&MacroAbstract],
) -> (f64, f64, bool) {
    let mut setup = top_setup_wns_ns;
    let mut hold = top_hold_wns_ns;
    let mut ok = top_signed_off;
    for a in used {
        setup = setup.min(a.setup_wns_ns);
        hold = hold.min(a.hold_wns_ns);
        ok &= a.signed_off;
    }
    (setup, hold, ok)
}

/// Parameters for the tiled procedural generator: `tiles` instances
/// drawn round-robin from a library of `kinds` distinct IP blocks of
/// `tile_gates` instances each, bus-chained din→dout under a thin glue
/// top. Total size ≈ `tiles × tile_gates` gates — 250 × 4000 passes a
/// million.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledParams {
    /// Macro instances at top level.
    pub tiles: usize,
    /// Distinct block kinds in the library (tiles dedupe to this many
    /// unique hardens).
    pub kinds: usize,
    /// Target gate count per tile.
    pub tile_gates: usize,
    /// Bus width chained between tiles.
    pub data_width: usize,
    /// Seed for the tile generators (kind `k` uses `seed + k`).
    pub seed: u64,
}

impl Default for TiledParams {
    fn default() -> Self {
        TiledParams { tiles: 4, kinds: 2, tile_gates: 400, data_width: 8, seed: 1 }
    }
}

/// Generate the tile library: `kinds` distinct IP-block netlists, each
/// with the interface `clk, rstn, din[w], ctl[4] → dout[w]`.
///
/// # Errors
///
/// Generator parameter errors from [`generate::ip_block`].
pub fn tile_kinds(p: &TiledParams) -> Result<Vec<Netlist>, NetlistError> {
    (0..p.kinds)
        .map(|k| {
            generate::ip_block(
                &format!("tile_kind{k}"),
                &IpBlockParams {
                    target_gates: p.tile_gates,
                    data_width: p.data_width,
                    seed: p.seed + k as u64,
                    ..IpBlockParams::default()
                },
            )
        })
        .collect()
}

/// The shared top shell of both tiled forms: clk/rstn/din ports plus a
/// small glue counter whose low bits drive every tile's `ctl` pins.
fn tiled_shell(
    p: &TiledParams,
    name: &str,
) -> (Netlist, NetId, NetId, Vec<NetId>, Vec<NetId>) {
    let mut b = NetlistBuilder::new(name);
    b.set_block("top");
    let clk = b.input("clk");
    let rn = b.input("rstn");
    let din = b.input_bus("din", p.data_width);
    b.set_block("u_glue");
    let en = b.tie(true);
    let ctl = counter_into(&mut b, clk, rn, en, 4);
    (b.finish(), clk, rn, din, ctl)
}

/// The tiled design, flattened: every tile's gates absorbed into one
/// netlist (the baseline the hierarchical form is checked against).
///
/// # Errors
///
/// Netlist construction errors (a generator bug).
pub fn build_tiled_flat(p: &TiledParams) -> Result<Netlist, NetlistError> {
    let kinds = tile_kinds(p)?;
    let (mut top, clk, rn, din, ctl) = tiled_shell(p, "tiled_flat");
    let w = p.data_width;
    let mut chain = din;
    for t in 0..p.tiles {
        let mut block = kinds[t % p.kinds].clone();
        block.apply_block_prefix(&format!("t{t}"));
        let mut bind: HashMap<String, NetId> = HashMap::new();
        bind.insert("clk".into(), clk);
        bind.insert("rstn".into(), rn);
        for (i, &net) in chain.iter().enumerate() {
            bind.insert(format!("din[{i}]"), net);
        }
        for (i, &net) in ctl.iter().take(4).enumerate() {
            bind.insert(format!("ctl[{i}]"), net);
        }
        let mut next = Vec::with_capacity(w);
        for i in 0..w {
            let net = top.add_net(format!("t{t}/bus_out[{i}]"))?;
            bind.insert(format!("dout[{i}]"), net);
            next.push(net);
        }
        top.absorb(block, &bind)?;
        chain = next;
    }
    let mut b = NetlistBuilder::from_netlist(top);
    b.set_block("u_glue");
    let outs: Vec<NetId> = chain.iter().map(|&c| b.dff_auto(c, clk)).collect();
    b.output_bus("dout", &outs);
    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

/// The tiled design, hierarchical: every tile an opaque macro instance
/// (`t0`, `t1`, …) whose pins wire the library interface in port order.
/// Returns the top netlist plus each instance's kind index into
/// [`tile_kinds`] (turn that into a hash binding for [`hard_macros`]
/// with [`content_hash`] of the kind under the hardening options).
///
/// # Errors
///
/// Netlist construction errors (a generator bug).
pub fn build_tiled_hier(
    p: &TiledParams,
) -> Result<(Netlist, Vec<(String, usize)>), NetlistError> {
    let (top, clk, rn, din, ctl) = tiled_shell(p, "tiled_hier");
    let w = p.data_width;
    let mut b = NetlistBuilder::from_netlist(top);
    b.set_block("top");
    let mut chain = din;
    let mut instance_kind = Vec::with_capacity(p.tiles);
    for t in 0..p.tiles {
        // pin order = the library block's port order:
        // clk, rstn, din[0..w], ctl[0..4] → dout[0..w]
        let mut ins = vec![clk, rn];
        ins.extend_from_slice(&chain);
        ins.extend(ctl.iter().take(4).copied());
        let outs: Vec<NetId> = (0..w).map(|_| b.fresh_net()).collect();
        b.memory(&format!("t{t}"), p.tile_gates, 1, ins, outs.clone());
        instance_kind.push((format!("t{t}"), t % p.kinds));
        chain = outs;
    }
    b.set_block("u_glue");
    let outs: Vec<NetId> = chain.iter().map(|&c| b.dff_auto(c, clk)).collect();
    b.output_bus("dout", &outs);
    let nl = b.finish();
    nl.validate()?;
    Ok((nl, instance_kind))
}

/// Everything [`harden_tiled`] produces: the hierarchical top ready to
/// run under [`FlowSupervisor::with_hier`], plus the audit trail.
#[derive(Debug)]
pub struct HardenedTiled {
    /// The hierarchical top netlist (tiles as opaque macro instances).
    pub top: Netlist,
    /// The physical + timing view for [`FlowSupervisor::with_hier`].
    pub hard: HardMacros,
    /// Hardened abstracts by content hash.
    pub abstracts: HashMap<u64, MacroAbstract>,
    /// Macro instance name → content hash.
    pub binding: Vec<(String, u64)>,
    /// Dedupe/cache/harden accounting.
    pub report: HardenReport,
}

/// One call from [`TiledParams`] to an integration-ready hierarchy:
/// generate the tile library, harden its unique kinds (cache-aware,
/// fanned over `par`), build the hierarchical top, and bind every
/// instance to its abstract.
///
/// # Errors
///
/// Generator or hardening errors.
pub fn harden_tiled(
    p: &TiledParams,
    options: &FlowOptions,
    pessimism_ns: f64,
    cache: Option<&AbstractCache>,
    par: Parallelism,
) -> Result<HardenedTiled, FlowError> {
    let kinds = tile_kinds(p)?;
    let hashes: Vec<u64> = kinds.iter().map(|k| content_hash(k, options)).collect();
    let (abstracts, report) = harden_macros(&kinds, options, pessimism_ns, cache, par)?;
    let (top, instance_kind) = build_tiled_hier(p)?;
    let binding: Vec<(String, u64)> =
        instance_kind.into_iter().map(|(name, k)| (name, hashes[k])).collect();
    let hard = hard_macros(&binding, &abstracts);
    Ok(HardenedTiled { top, hard, abstracts, binding, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_abstract() -> MacroAbstract {
        MacroAbstract {
            name: "tile_kind0".to_string(),
            content_hash: 0xDEAD_BEEF_CAFE_F00D,
            gate_count: 412,
            width_um: 321.5,
            height_um: 123.25,
            inputs: vec!["clk".into(), "rstn".into(), "din[0]".into()],
            outputs: vec!["dout[0]".into()],
            timing: MacroTiming {
                output_arrival_max_ns: vec![1.25],
                output_arrival_min_ns: vec![0.5],
                input_margin_ns: vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 3.0],
                input_hold_ns: vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 0.25],
                pessimism_ns: 0.05,
            },
            signed_off: true,
            setup_wns_ns: 2.75,
            hold_wns_ns: 0.4,
        }
    }

    #[test]
    fn pin_positions_are_deterministic_edge_spread() {
        let a = sample_abstract();
        let pins = a.pin_positions_um();
        assert_eq!(pins.len(), a.inputs.len() + a.outputs.len());
        // inputs climb the left edge, outputs the right edge
        for (x, y) in &pins[..a.inputs.len()] {
            assert_eq!(*x, 0.0);
            assert!(*y > 0.0 && *y < a.height_um);
        }
        for (x, y) in &pins[a.inputs.len()..] {
            assert_eq!(*x, a.width_um);
            assert!(*y > 0.0 && *y < a.height_um);
        }
        assert!(pins[0].1 < pins[1].1 && pins[1].1 < pins[2].1);
        // a pure function of the abstract: identical on recompute
        assert_eq!(pins, a.pin_positions_um());
    }

    #[test]
    fn abstract_round_trips_and_rejects_damage() {
        let a = sample_abstract();
        let bytes = a.to_bytes();
        assert_eq!(MacroAbstract::from_bytes(&bytes).unwrap(), a);
        // magic damage
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            MacroAbstract::from_bytes(&bad),
            Err(CodecError::Corrupt(_))
        ));
        // future version
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            MacroAbstract::from_bytes(&bad),
            Err(CodecError::Version { found: 9, supported: ABSTRACT_VERSION })
        ));
        // trailing garbage
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(MacroAbstract::from_bytes(&bad).is_err());
    }

    #[test]
    fn content_hash_tracks_netlist_and_options() {
        let p = TiledParams::default();
        let kinds = tile_kinds(&p).unwrap();
        let opts = FlowOptions::default();
        let h0 = content_hash(&kinds[0], &opts);
        assert_eq!(h0, content_hash(&kinds[0], &opts), "hash must be stable");
        assert_ne!(h0, content_hash(&kinds[1], &opts), "different netlists differ");
        let mut fast = opts.clone();
        fast.clock_period_ns = 5.0;
        assert_ne!(h0, content_hash(&kinds[0], &fast), "different options differ");
    }

    #[test]
    fn tiled_generators_agree_on_interface() {
        let p = TiledParams::default();
        let flat = build_tiled_flat(&p).unwrap();
        let (hier, instance_kind) = build_tiled_hier(&p).unwrap();
        assert_eq!(instance_kind.len(), p.tiles);
        assert_eq!(hier.num_macros(), p.tiles);
        assert_eq!(flat.num_macros(), 0);
        // identical external interfaces
        let ports = |nl: &Netlist| -> Vec<(String, camsoc_netlist::graph::PortDir)> {
            nl.ports().map(|(_, p)| (p.name.clone(), p.dir)).collect()
        };
        assert_eq!(ports(&flat), ports(&hier));
        // flat actually contains the tile gates
        assert!(flat.num_instances() > p.tiles * p.tile_gates / 2);
        assert!(hier.num_instances() < flat.num_instances() / 4);
    }

    #[test]
    fn cache_round_trip_and_stale_rejection() {
        let dir = std::env::temp_dir()
            .join(format!("camsoc-abs-cache-{}", std::process::id()));
        let cache = AbstractCache::open(&dir).unwrap();
        let a = sample_abstract();
        assert!(cache.load(a.content_hash).is_none());
        cache.store(&a).unwrap();
        assert_eq!(cache.load(a.content_hash).unwrap(), a);
        // a file renamed to the wrong hash never masquerades as a hit
        std::fs::rename(cache.path(a.content_hash), cache.path(1)).unwrap();
        assert!(cache.load(1).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fold_signoff_takes_worst_of_hierarchy() {
        let mut a = sample_abstract();
        a.setup_wns_ns = -0.5;
        a.hold_wns_ns = 0.1;
        a.signed_off = false;
        let (s, h, ok) = fold_signoff(1.0, 0.3, true, &[&a]);
        assert_eq!(s, -0.5);
        assert_eq!(h, 0.1);
        assert!(!ok);
        let (s, h, ok) = fold_signoff(1.0, 0.3, true, &[]);
        assert_eq!((s, h, ok), (1.0, 0.3, true));
    }

    /// The top of a 12 × 300-gate tiled hierarchy places its 20 glue
    /// cells among the tiles' fixed macro pins exactly as recorded with
    /// the annealer that re-folded every fixed pin of every touched net
    /// on every move: FNV-1a over each cell's x, y and row, then the
    /// final and initial HPWL bits and the accepted-move count.
    #[test]
    fn hier_top_placement_among_macro_pins_is_pinned() {
        use camsoc_layout::floorplan::Floorplan;
        use camsoc_layout::place::{place, PlacementConfig};
        use camsoc_netlist::tech::{Technology, TechnologyNode};
        use camsoc_sta::Constraints;

        let p = TiledParams { tiles: 12, tile_gates: 300, ..TiledParams::default() };
        let (top, _) = build_tiled_hier(&p).unwrap();
        let tech = Technology::node(TechnologyNode::Tsmc250);
        let fp = Floorplan::generate(&top, &tech).unwrap();
        let constraints = Constraints::single_clock("clk", 7.5);
        let pl = place(&top, &tech, &fp, &constraints, &PlacementConfig::default());
        assert_eq!((top.num_instances(), top.num_macros()), (20, 12));
        assert_eq!(pl.accepted_moves, 1_929);
        assert_eq!(pl.hpwl_um.to_bits(), 18_414.486_444_760_103f64.to_bits());
        assert_eq!(pl.initial_hpwl_um.to_bits(), 18_736.219_504_502_78f64.to_bits());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = pl
            .x
            .iter()
            .zip(&pl.y)
            .zip(&pl.row)
            .flat_map(|((x, y), &r)| [x.to_bits(), y.to_bits(), r as u64])
            .chain([pl.hpwl_um.to_bits(), pl.initial_hpwl_um.to_bits(), pl.accepted_moves as u64]);
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x8f45_9e01_f2d5_1ab9);
    }
}
