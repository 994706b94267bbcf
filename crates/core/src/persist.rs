//! Durable flow checkpoints: versioned binary serialization plus
//! atomic on-disk save/load.
//!
//! The design-service farm (`camsoc-serve`) writes a checkpoint after
//! **every completed stage**, so a killed process resumes each
//! in-flight job from its last good stage. Two disciplines make that
//! safe:
//!
//! * **Versioned container.** A checkpoint file starts with a magic
//!   word and a format version. Wrong magic is [`CodecError::Corrupt`];
//!   a version from a newer build is [`CodecError::Version`] — never a
//!   silent misparse. Trailing bytes after the payload are rejected.
//! * **Atomic replace.** [`write_atomic`] writes a sibling temp file
//!   and `rename`s it over the target. A crash mid-write leaves the
//!   previous good file untouched; readers see either the old complete
//!   file or the new complete file, never a torn one. Checkpoints,
//!   request files, exported GDSII, abstracts and the farm ledger are
//!   all written through it.
//!
//! Bit-identity is the contract throughout: every `f64` is stored as
//! its raw bit pattern, and decode rebuilds by-name indexes and
//! re-audits structural invariants (see `camsoc_netlist::codec`), so a
//! resumed job's remaining stages see *exactly* the products the killed
//! process computed — `tests/serve_farm.rs` asserts the final
//! [`FlowResult`](crate::flow::FlowResult) fingerprints match an
//! uninterrupted run for a kill after every one of the nine stages.
//!
//! Compiled netlist snapshots are never encoded: decode re-derives the
//! scanned and final netlists' snapshots by compiling them (a netlist
//! that does not compile is [`CodecError::Corrupt`]). A fresh compile
//! equals a journal-patched snapshot in everything the stages read, so
//! a resumed job's results do not change.
//!
//! [`FlowOptions`] is also `Codec`: a durable job spec must pin the
//! *exact* options, or a restarted farm could resume a job under
//! different knobs and break bit-identity.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

use camsoc_dft::fsim::FsimMode;
use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};
use camsoc_netlist::compiled::CompiledNetlist;
use camsoc_netlist::graph::Netlist;

use crate::flow::{FlowCheckpoint, FlowOptions, FlowState, TimingFixOutcome};
use crate::resilience::{AttemptOutcome, FlowTrace, StageAttempt, StageId};

/// First four bytes of every checkpoint file: `"CKPT"` little-endian.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"CKPT");

/// The only checkpoint format this build reads and writes. Version 2
/// added [`RouteConfig::capacity_scale`](camsoc_layout::route::RouteConfig)
/// to the embedded flow options; version 3 dropped their fault-simulation
/// and equivalence engine tags, since each kernel has one engine.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A checkpoint load failure: the file was unreadable or its bytes
/// don't decode.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// The bytes are not a valid checkpoint (truncated, corrupt, or a
    /// newer format version).
    Codec(CodecError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint io: {e}"),
            PersistError::Codec(e) => write!(f, "checkpoint format: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

impl Codec for StageId {
    fn encode(&self, e: &mut Encoder) {
        // index() is < 9, always a byte
        e.put_u8(self.index() as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let idx = usize::from(d.get_u8()?);
        StageId::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| CodecError::Corrupt(format!("stage index {idx}")))
    }
}

impl Codec for AttemptOutcome {
    fn encode(&self, e: &mut Encoder) {
        match self {
            AttemptOutcome::Success => e.put_u8(0),
            AttemptOutcome::GateFailed { reason } => {
                e.put_u8(1);
                e.put_str(reason);
            }
            AttemptOutcome::Error { message } => {
                e.put_u8(2);
                e.put_str(message);
            }
            AttemptOutcome::Panicked { payload } => {
                e.put_u8(3);
                e.put_str(payload);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(AttemptOutcome::Success),
            1 => Ok(AttemptOutcome::GateFailed { reason: d.get_str()? }),
            2 => Ok(AttemptOutcome::Error { message: d.get_str()? }),
            3 => Ok(AttemptOutcome::Panicked { payload: d.get_str()? }),
            t => Err(CodecError::Corrupt(format!("attempt outcome tag {t:#04x}"))),
        }
    }
}

impl Codec for StageAttempt {
    fn encode(&self, e: &mut Encoder) {
        self.stage.encode(e);
        e.put_usize(self.attempt);
        e.put_u32(self.effort);
        self.escalations.encode(e);
        self.duration.encode(e);
        self.outcome.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StageAttempt {
            stage: StageId::decode(d)?,
            attempt: d.get_usize()?,
            effort: d.get_u32()?,
            escalations: Vec::<String>::decode(d)?,
            duration: Duration::decode(d)?,
            outcome: AttemptOutcome::decode(d)?,
        })
    }
}

impl Codec for FlowTrace {
    fn encode(&self, e: &mut Encoder) {
        self.attempts.encode(e);
        e.put_bool(self.resumed);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(FlowTrace { attempts: Vec::<StageAttempt>::decode(d)?, resumed: d.get_bool()? })
    }
}

impl Codec for FlowOptions {
    fn encode(&self, e: &mut Encoder) {
        self.tech.encode(e);
        e.put_str(&self.clock_port);
        e.put_f64(self.clock_period_ns);
        self.scan.encode(e);
        self.atpg.encode(e);
        self.layout.encode(e);
        e.put_usize(self.max_timing_fixes);
        e.put_f64(self.sta_cone_fraction);
        self.equiv.encode(e);
        self.parallelism.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(FlowOptions {
            tech: Codec::decode(d)?,
            clock_port: d.get_str()?,
            clock_period_ns: d.get_f64()?,
            scan: Codec::decode(d)?,
            atpg: Codec::decode(d)?,
            layout: Codec::decode(d)?,
            max_timing_fixes: d.get_usize()?,
            sta_cone_fraction: d.get_f64()?,
            equiv: Codec::decode(d)?,
            parallelism: Codec::decode(d)?,
            fsim_mode: FsimMode::default(),
        })
    }
}

/// Re-derive the snapshot of a decoded `what` netlist.
fn snapshot_of(nl: &Netlist, what: &str) -> Result<CompiledNetlist, CodecError> {
    nl.compile()
        .map_err(|e| CodecError::Corrupt(format!("{what} netlist does not compile: {e}")))
}

impl Codec for TimingFixOutcome {
    fn encode(&self, e: &mut Encoder) {
        self.netlist.encode(e);
        self.signoff_timing.encode(e);
        self.corner_signoff.encode(e);
        e.put_usize(self.timing_ecos);
        e.put_usize(self.sta_incremental_evals);
        e.put_usize(self.sta_full_evals);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let netlist = Netlist::decode(d)?;
        Ok(TimingFixOutcome {
            compiled: snapshot_of(&netlist, "final")?,
            netlist,
            signoff_timing: Codec::decode(d)?,
            corner_signoff: Codec::decode(d)?,
            timing_ecos: d.get_usize()?,
            sta_incremental_evals: d.get_usize()?,
            sta_full_evals: d.get_usize()?,
        })
    }
}

impl Codec for FlowState {
    fn encode(&self, e: &mut Encoder) {
        self.input.encode(e);
        e.put_bool(self.validated);
        self.pre_layout_timing.encode(e);
        self.scanned.encode(e);
        self.scan.encode(e);
        self.atpg.encode(e);
        self.layout.encode(e);
        self.fix.encode(e);
        self.equivalence.encode(e);
        self.lvs.encode(e);
        match &self.gds {
            None => e.put_u8(0),
            Some(g) => {
                e.put_u8(1);
                e.put_bytes(g);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut state = FlowState {
            input: Codec::decode(d)?,
            validated: d.get_bool()?,
            pre_layout_timing: Codec::decode(d)?,
            scanned: Codec::decode(d)?,
            scanned_compiled: None,
            scan: Codec::decode(d)?,
            atpg: Codec::decode(d)?,
            layout: Codec::decode(d)?,
            fix: Codec::decode(d)?,
            equivalence: Codec::decode(d)?,
            lvs: Codec::decode(d)?,
            gds: match d.get_u8()? {
                0 => None,
                1 => Some(d.get_bytes()?),
                t => Err(CodecError::Corrupt(format!("gds option tag {t:#04x}")))?,
            },
        };
        state.scanned_compiled =
            state.scanned.as_ref().map(|nl| snapshot_of(nl, "scanned")).transpose()?;
        Ok(state)
    }
}

impl Codec for FlowCheckpoint {
    fn encode(&self, e: &mut Encoder) {
        self.state.encode(e);
        self.trace.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(FlowCheckpoint {
            state: FlowState::decode(d)?,
            trace: FlowTrace::decode(d)?,
            // per-process audit, deliberately not persisted
            compile_stats: Default::default(),
        })
    }
}

impl FlowCheckpoint {
    /// Serialize into a self-describing byte stream (magic + format
    /// version + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(CHECKPOINT_MAGIC);
        e.put_u32(CHECKPOINT_VERSION);
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Decode a stream written by [`FlowCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on bad magic or trailing bytes,
    /// [`CodecError::Version`] on an unsupported format version, and
    /// any payload decode error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let magic = d.get_u32()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CodecError::Corrupt(format!(
                "bad checkpoint magic {magic:#010x}"
            )));
        }
        let version = d.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::Version { found: version, supported: CHECKPOINT_VERSION });
        }
        let ckpt = FlowCheckpoint::decode(&mut d)?;
        d.expect_end()?;
        Ok(ckpt)
    }

    /// Load a checkpoint whose [`FlowCheckpoint::to_bytes`] were written
    /// to `path`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the file is unreadable,
    /// [`PersistError::Codec`] if its bytes don't decode.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Ok(FlowCheckpoint::from_bytes(&fs::read(path)?)?)
    }
}

/// Replace `path` with `bytes` atomically: write `<file>.tmp` next to
/// the target (same filesystem, so the rename is atomic), then rename it
/// over the target. A process killed at any instant leaves the old file
/// or the new one, never a torn one.
///
/// # Errors
///
/// Any filesystem error from the write or the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling_tmp(path);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn sibling_tmp(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowOptions, FlowSupervisor};
    use camsoc_netlist::generate::{self, IpBlockParams};

    fn block(seed: u64) -> Netlist {
        generate::ip_block(
            "blk",
            &IpBlockParams { target_gates: 250, seed, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let ckpt = FlowCheckpoint::new(block(1));
        let back = FlowCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
        assert!(back.completed_stages().is_empty());
    }

    #[test]
    fn partially_run_checkpoint_round_trips_and_resumes() {
        let supervisor = FlowSupervisor::new(FlowOptions::default());
        let mut ckpt = FlowCheckpoint::new(block(2));
        // run three stages, checkpoint, reload, finish both copies
        for _ in 0..3 {
            supervisor.advance(&mut ckpt).unwrap();
        }
        let mut reloaded = FlowCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(reloaded, ckpt);
        let a = supervisor.resume(&mut ckpt).unwrap();
        let b = supervisor.resume(&mut reloaded).unwrap();
        assert_eq!(a.gds, b.gds);
        assert_eq!(
            a.signoff_timing.setup.wns_ns.to_bits(),
            b.signoff_timing.setup.wns_ns.to_bits()
        );
    }

    #[test]
    fn bad_magic_and_future_version_are_typed_errors() {
        let ckpt = FlowCheckpoint::new(block(3));
        let mut bytes = ckpt.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            FlowCheckpoint::from_bytes(&bytes),
            Err(CodecError::Corrupt(_))
        ));
        let mut bytes = ckpt.to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            FlowCheckpoint::from_bytes(&bytes),
            Err(CodecError::Version { found: 99, supported: CHECKPOINT_VERSION })
        ));
        // trailing garbage is rejected too
        let mut bytes = ckpt.to_bytes();
        bytes.push(0);
        assert!(matches!(
            FlowCheckpoint::from_bytes(&bytes),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir()
            .join(format!("camsoc-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        let a = FlowCheckpoint::new(block(4));
        write_atomic(&path, &a.to_bytes()).unwrap();
        let b = FlowCheckpoint::new(block(5));
        write_atomic(&path, &b.to_bytes()).unwrap();
        assert_eq!(FlowCheckpoint::load(&path).unwrap(), b);
        assert!(!sibling_tmp(&path).exists(), "temp file must not survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Two inverters driving each other: decodes as a netlist, but does
    /// not compile.
    fn ring() -> Netlist {
        use camsoc_netlist::cell::{Cell, CellFunction, Drive};
        let mut nl = Netlist::new("ring");
        let a = nl.add_net("a").unwrap();
        let b = nl.add_net("b").unwrap();
        let inv = Cell::new(CellFunction::Inv, Drive::X1);
        nl.add_instance("u0", inv, &[a], b, None, "top").unwrap();
        nl.add_instance("u1", inv, &[b], a, None, "top").unwrap();
        nl
    }

    #[test]
    fn decoding_a_netlist_with_a_loop_is_a_typed_error() {
        // snapshots are not encoded, so either state encodes without one
        let scanned = FlowCheckpoint {
            state: FlowState { scanned: Some(ring()), ..FlowState::default() },
            ..FlowCheckpoint::default()
        };
        // the final netlist's slot carries a real outcome of another design
        use camsoc_par::Parallelism;
        use camsoc_sta::{multi_corner, Constraints, Corner, Sta};
        let good = block(6);
        let tech = camsoc_netlist::tech::Technology::default();
        let sta = Sta::new(&good, &tech, Constraints::single_clock("clk", 7.5));
        let fix = FlowCheckpoint {
            state: FlowState {
                fix: Some(TimingFixOutcome {
                    netlist: ring(),
                    compiled: good.compile().unwrap(),
                    signoff_timing: sta.analyze().unwrap(),
                    corner_signoff: multi_corner::signoff(
                        &sta,
                        Corner::worst(),
                        Corner::best(),
                        Parallelism::Serial,
                    )
                    .unwrap(),
                    timing_ecos: 0,
                    sta_incremental_evals: 0,
                    sta_full_evals: 0,
                }),
                ..FlowState::default()
            },
            ..FlowCheckpoint::default()
        };
        for (ckpt, what) in [(scanned, "scanned"), (fix, "final")] {
            match FlowCheckpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CodecError::Corrupt(m)) => {
                    assert!(m.contains(&format!("{what} netlist does not compile")), "{m}")
                }
                other => panic!("{what}: expected a corrupt-checkpoint error, got {other:?}"),
            }
        }
    }

    #[test]
    fn options_round_trip() {
        let mut e = Encoder::new();
        let opts = FlowOptions::default();
        opts.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = FlowOptions::decode(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(back, opts);
    }
}
