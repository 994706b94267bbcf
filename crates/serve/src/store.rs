//! Per-job durable artifacts: request files and flow checkpoints.
//!
//! Each farm directory holds, per job, a `job-NNNNNN.req` (the
//! [`JobRequest`] under its own magic/version header) and — once the
//! first stage completes — a `job-NNNNNN.ckpt` ([`FlowCheckpoint`] via
//! [`camsoc_core::persist`]). Both are written atomically by
//! [`write_atomic`] (write-temp-then-rename), so a kill at any instant
//! leaves either the previous good file or the new good file, never a
//! torn one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use camsoc_core::persist::{write_atomic, PersistError};
use camsoc_core::FlowCheckpoint;
use camsoc_netlist::codec::{Codec, CodecError, Decoder, Encoder};

use crate::job::{JobId, JobRequest};

/// Magic prefix of a request file: `"CREQ"` little-endian.
pub const REQUEST_MAGIC: u32 = u32::from_le_bytes(*b"CREQ");
/// The only request-file format version this build reads and writes.
/// Request files embed [`FlowOptions`](camsoc_core::flow::FlowOptions),
/// so the version moves with
/// [`CHECKPOINT_VERSION`](camsoc_core::persist::CHECKPOINT_VERSION):
/// version 3 was the first whose options carry
/// `RouteConfig::capacity_scale`, and version 4 dropped their
/// fault-simulation and equivalence engine tags. Older files are refused
/// with [`CodecError::Version`].
pub const REQUEST_VERSION: u32 = 4;

/// Durable per-job storage rooted at a farm directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The farm directory this store writes under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of `job`'s request file.
    pub fn request_path(&self, job: JobId) -> PathBuf {
        self.dir.join(format!("{job}.req"))
    }

    /// Path of `job`'s checkpoint file.
    pub fn checkpoint_path(&self, job: JobId) -> PathBuf {
        self.dir.join(format!("{job}.ckpt"))
    }

    /// Path of `job`'s exported GDSII stream (written only when the
    /// farm has GDS export enabled).
    pub fn gds_path(&self, job: JobId) -> PathBuf {
        self.dir.join(format!("{job}.gds"))
    }

    /// Persist `job`'s request atomically.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure.
    pub fn save_request(&self, job: JobId, request: &JobRequest) -> io::Result<()> {
        let mut e = Encoder::new();
        e.put_u32(REQUEST_MAGIC);
        e.put_u32(REQUEST_VERSION);
        request.encode(&mut e);
        write_atomic(&self.request_path(job), &e.into_bytes())
    }

    /// Load `job`'s request back from disk.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on I/O failure, [`CodecError::Version`] for any
    /// version other than [`REQUEST_VERSION`], or a decode error if the
    /// file is not a valid request.
    pub fn load_request(&self, job: JobId) -> Result<JobRequest, PersistError> {
        let bytes = fs::read(self.request_path(job))?;
        let mut d = Decoder::new(&bytes);
        let magic = d.get_u32()?;
        if magic != REQUEST_MAGIC {
            return Err(CodecError::Corrupt(format!("bad request magic {magic:#010x}")).into());
        }
        let found = d.get_u32()?;
        if found != REQUEST_VERSION {
            return Err(CodecError::Version { found, supported: REQUEST_VERSION }.into());
        }
        let request = JobRequest::decode(&mut d)?;
        d.expect_end()?;
        Ok(request)
    }

    /// Remove `job`'s request file (retention pruning).
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure other than the file already
    /// being gone.
    pub fn remove_request(&self, job: JobId) -> io::Result<()> {
        remove_if_present(&self.request_path(job))
    }

    /// Persist `job`'s checkpoint atomically.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure.
    pub fn save_checkpoint(&self, job: JobId, checkpoint: &FlowCheckpoint) -> io::Result<()> {
        write_atomic(&self.checkpoint_path(job), &checkpoint.to_bytes())
    }

    /// Load `job`'s checkpoint if one was ever written.
    ///
    /// `Ok(None)` means no checkpoint exists yet (the job never
    /// finished a stage) — a fresh start, not an error.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on I/O failure or a corrupt/incompatible file.
    pub fn load_checkpoint(&self, job: JobId) -> Result<Option<FlowCheckpoint>, PersistError> {
        match FlowCheckpoint::load(&self.checkpoint_path(job)) {
            Ok(ckpt) => Ok(Some(ckpt)),
            Err(PersistError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Remove `job`'s checkpoint (after its result is drained).
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure other than the file already
    /// being gone.
    pub fn remove_checkpoint(&self, job: JobId) -> io::Result<()> {
        remove_if_present(&self.checkpoint_path(job))
    }

    /// Persist `job`'s GDSII stream atomically.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure.
    pub fn save_gds(&self, job: JobId, gds: &[u8]) -> io::Result<()> {
        write_atomic(&self.gds_path(job), gds)
    }

    /// Remove `job`'s exported GDSII (retention pruning).
    ///
    /// # Errors
    ///
    /// [`io::Error`] on filesystem failure other than the file already
    /// being gone.
    pub fn remove_gds(&self, job: JobId) -> io::Result<()> {
        remove_if_present(&self.gds_path(job))
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DesignSpec;
    use camsoc_core::flow::FlowOptions;

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("camsoc-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    #[test]
    fn requests_round_trip_through_disk() {
        let store = tmp_store("req");
        let req = JobRequest::new(
            DesignSpec::IpBlock { name: "b".into(), target_gates: 250, seed: 11 },
            FlowOptions::default(),
        );
        store.save_request(JobId(4), &req).unwrap();
        assert_eq!(store.load_request(JobId(4)).unwrap(), req);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_checkpoint_is_none_but_corrupt_is_error() {
        let store = tmp_store("ckpt");
        assert!(store.load_checkpoint(JobId(0)).unwrap().is_none());
        fs::write(store.checkpoint_path(JobId(0)), b"garbage").unwrap();
        assert!(store.load_checkpoint(JobId(0)).is_err());
        store.remove_checkpoint(JobId(0)).unwrap();
        store.remove_checkpoint(JobId(0)).unwrap();
        assert!(store.load_checkpoint(JobId(0)).unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn older_request_versions_are_refused() {
        let store = tmp_store("oldreq");
        let req = JobRequest::new(
            DesignSpec::IpBlock { name: "old".into(), target_gates: 300, seed: 9 },
            FlowOptions::default(),
        );
        // Versions 1 and 2 embed flow options without
        // `capacity_scale`, version 3 with the engine tags; a future
        // version is unknown. Each is refused at the header, with a
        // typed version error.
        for found in [1u32, 2, 3, 99] {
            let mut e = Encoder::new();
            e.put_u32(REQUEST_MAGIC);
            e.put_u32(found);
            req.encode(&mut e);
            fs::write(store.request_path(JobId(3)), e.into_bytes()).unwrap();
            match store.load_request(JobId(3)) {
                Err(PersistError::Codec(CodecError::Version { found: f, supported })) => {
                    assert_eq!((f, supported), (found, REQUEST_VERSION));
                }
                other => panic!("version {found} should be refused, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flow_options_encoding_is_pinned_to_the_file_versions() {
        // Request files and checkpoints both embed `FlowOptions`. If
        // this digest moves, the options codec changed: bump
        // REQUEST_VERSION and CHECKPOINT_VERSION, then re-pin all three.
        let mut e = Encoder::new();
        FlowOptions::default().encode(&mut e);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
        for b in e.into_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            (REQUEST_VERSION, camsoc_core::persist::CHECKPOINT_VERSION, digest),
            (4, 3, 0xb023_f51d_5655_5df6),
            "the FlowOptions encoding changed: bump REQUEST_VERSION and \
             CHECKPOINT_VERSION, then re-pin this digest"
        );
    }

    #[test]
    fn gds_artifacts_save_and_prune() {
        let store = tmp_store("gds");
        store.save_gds(JobId(2), b"GDSII-bytes").unwrap();
        assert_eq!(fs::read(store.gds_path(JobId(2))).unwrap(), b"GDSII-bytes");
        store.remove_gds(JobId(2)).unwrap();
        store.remove_gds(JobId(2)).unwrap(); // idempotent
        assert!(!store.gds_path(JobId(2)).exists());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn request_header_is_enforced() {
        let store = tmp_store("hdr");
        let req = JobRequest::new(DesignSpec::Dsc { scale: 0.25 }, FlowOptions::default());
        store.save_request(JobId(1), &req).unwrap();
        let path = store.request_path(JobId(1));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_request(JobId(1)).is_err());
        let _ = fs::remove_dir_all(store.dir());
    }
}
