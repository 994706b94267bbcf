//! The on-disk job ledger: the single source of truth for scheduling.
//!
//! A small, human-readable, versioned text file recording the last
//! known [`JobState`] of every job a farm directory has ever accepted —
//! plus the job's lease (owner id + monotonically renewed heartbeat
//! stamp), scheduling priority, and transient-failure count.
//! Every transition rewrites the whole file atomically
//! (write-temp-then-rename), so the ledger on disk is always a
//! complete snapshot.
//!
//! Because two farms (threads or processes) may share one directory,
//! every read-modify-write goes through [`JobLedger::update`]: acquire
//! the sibling advisory file lock, reload the file, run the caller's
//! transaction on the fresh snapshot, rewrite atomically, release. The
//! in-memory map is only a mirror of the last transaction's view.
//!
//! Format (tab-separated, one job per line, sorted by id; `-`
//! encodes an empty owner/detail column):
//!
//! ```text
//! camsoc-ledger v2
//! 0<TAB>done<TAB>normal<TAB>-<TAB>14<TAB>0<TAB>-
//! 1<TAB>running<TAB>critical<TAB>farm-4211-0<TAB>3<TAB>1<TAB>-
//! ```
//!
//! **Torn-tail recovery.** The atomic rewrite protects the rename
//! target, but a crash inside a *non-atomic* writer (or a torn copy of
//! the directory) can leave a truncated final line. Because each
//! snapshot is whole-file, losing the final line only makes that one
//! job *absent from the snapshot* — it cannot revert to an older state
//! — so an unparseable or duplicate FINAL line is dropped and reported
//! via [`JobLedger::recovered_tail`] instead of refusing the file.
//! Damage anywhere earlier (mid-file garbage, a bad header) still means
//! outside interference and is refused as [`LedgerError::Malformed`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use camsoc_core::persist::write_atomic;

use crate::job::{JobId, JobState, Priority};
use crate::lock::FileLock;

/// Header line of a ledger file (the only format read or written).
const LEDGER_HEADER_V2: &str = "camsoc-ledger v2";

/// Errors opening or persisting a ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file exists but is not a well-formed ledger (damage beyond
    /// the recoverable torn-final-line case).
    Malformed(String),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::Malformed(m) => write!(f, "malformed ledger: {m}"),
        }
    }
}

impl std::error::Error for LedgerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LedgerError::Io(e) => Some(e),
            LedgerError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for LedgerError {
    fn from(e: io::Error) -> Self {
        LedgerError::Io(e)
    }
}

/// One ledger entry: state plus lease and scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Last recorded state.
    pub state: JobState,
    /// Scheduling class.
    pub priority: Priority,
    /// Owner id of the current lease (empty = unowned). Meaningful
    /// while `state` is `running`; a running entry whose owner's
    /// liveness lock is acquirable is *provably stale* and may be
    /// reclaimed.
    pub owner: String,
    /// Heartbeat stamp: bumped on claim and at every stage boundary the
    /// owner completes. Monotonic per job; diagnostic only (staleness
    /// is proven by the owner lock, never by comparing stamps).
    pub beat: u64,
    /// Transient failures booked so far (drives retry backoff and the
    /// quarantine threshold).
    pub attempts: u32,
    /// Free-text detail (failure cause, park reason); `"-"` when empty.
    pub detail: String,
}

impl LedgerEntry {
    /// A fresh, unowned entry in `state` at `priority`.
    pub fn new(state: JobState, priority: Priority) -> Self {
        LedgerEntry {
            state,
            priority,
            owner: String::new(),
            beat: 0,
            attempts: 0,
            detail: String::new(),
        }
    }
}

/// Result of parsing one file image.
struct Parsed {
    entries: BTreeMap<JobId, LedgerEntry>,
    recovered_tail: Option<String>,
}

/// A locked read-modify-write transaction on the ledger. Obtained via
/// [`JobLedger::update`]; every mutation marks the transaction dirty so
/// the file is rewritten exactly when something changed.
#[derive(Debug)]
pub struct LedgerTxn<'a> {
    entries: &'a mut BTreeMap<JobId, LedgerEntry>,
    dirty: &'a mut bool,
}

impl LedgerTxn<'_> {
    /// Entry for `job` in the locked snapshot.
    pub fn get(&self, job: JobId) -> Option<&LedgerEntry> {
        self.entries.get(&job)
    }

    /// All entries in the locked snapshot, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &LedgerEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// Highest id in the locked snapshot (id assignment must happen
    /// inside a transaction, or two farms could mint the same id).
    pub fn max_id(&self) -> Option<JobId> {
        self.entries.keys().next_back().copied()
    }

    /// Insert or replace the entry for `job`. Separator characters in
    /// the owner and detail columns are stripped to keep the file
    /// line-per-job.
    pub fn set(&mut self, job: JobId, mut entry: LedgerEntry) {
        entry.detail.retain(|c| c != '\n' && c != '\r' && c != '\t');
        entry.owner.retain(|c| c != '\n' && c != '\r' && c != '\t');
        *self.dirty = true;
        self.entries.insert(job, entry);
    }
}

/// The on-disk ledger: a map from job id to its last recorded entry,
/// reloaded under lock at every transaction and rewritten atomically.
#[derive(Debug)]
pub struct JobLedger {
    path: PathBuf,
    lock_path: PathBuf,
    entries: BTreeMap<JobId, LedgerEntry>,
    recovered_tail: Option<String>,
}

impl JobLedger {
    /// Open the ledger at `path`, parsing it if it exists or starting
    /// empty if it does not.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Io`] on filesystem failure, or
    /// [`LedgerError::Malformed`] if an existing file has damage beyond
    /// a torn final line (which is dropped and reported via
    /// [`JobLedger::recovered_tail`] instead).
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, LedgerError> {
        let path = path.into();
        let lock_path = sibling_with_suffix(&path, ".lock");
        let parsed = Self::load(&path)?;
        Ok(JobLedger {
            path,
            lock_path,
            entries: parsed.entries,
            recovered_tail: parsed.recovered_tail,
        })
    }

    fn load(path: &Path) -> Result<Parsed, LedgerError> {
        match fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                Ok(Parsed { entries: BTreeMap::new(), recovered_tail: None })
            }
            Err(e) => Err(e.into()),
        }
    }

    fn parse(text: &str) -> Result<Parsed, LedgerError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(LEDGER_HEADER_V2) => {}
            Some(other) => {
                return Err(LedgerError::Malformed(format!("bad header {other:?}")));
            }
            None => return Err(LedgerError::Malformed("empty file".into())),
        }
        let data: Vec<(usize, &str)> =
            lines.enumerate().filter(|(_, line)| !line.is_empty()).collect();
        let last = data.len().checked_sub(1);
        let mut entries = BTreeMap::new();
        let mut recovered_tail = None;
        for (pos, (n, line)) in data.iter().enumerate() {
            let lineno = n + 2; // 1-based, counting the header
            let fail = match Self::parse_line(line) {
                Ok((id, entry)) => {
                    if entries.insert(id, entry).is_some() {
                        entries.remove(&id); // don't keep EITHER copy of an ambiguous pair
                        Some(format!("duplicate id {}", id.0))
                    } else {
                        None
                    }
                }
                Err(why) => Some(why),
            };
            if let Some(why) = fail {
                if Some(pos) == last {
                    // Torn tail: each snapshot is whole-file, so the
                    // lost line means this job is absent (never
                    // claimable), not reverted — safe to drop.
                    recovered_tail = Some(format!("dropped torn final line {lineno}: {why}"));
                } else {
                    return Err(LedgerError::Malformed(format!("line {lineno}: {why}")));
                }
            }
        }
        Ok(Parsed { entries, recovered_tail })
    }

    fn parse_line(line: &str) -> Result<(JobId, LedgerEntry), String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 7 {
            return Err(format!("{} columns, expected 7", cols.len()));
        }
        let id = cols[0].parse::<u64>().map_err(|_| format!("bad id {:?}", cols[0]))?;
        let state =
            JobState::from_token(cols[1]).ok_or_else(|| format!("bad state {:?}", cols[1]))?;
        let uncol = |s: &str| if s == "-" { String::new() } else { s.to_string() };
        let priority =
            Priority::from_token(cols[2]).ok_or_else(|| format!("bad priority {:?}", cols[2]))?;
        let beat = cols[4].parse::<u64>().map_err(|_| format!("bad beat {:?}", cols[4]))?;
        let attempts = cols[5].parse::<u32>().map_err(|_| format!("bad attempts {:?}", cols[5]))?;
        let entry = LedgerEntry {
            state,
            priority,
            owner: uncol(cols[3]),
            beat,
            attempts,
            detail: uncol(cols[6]),
        };
        Ok((JobId(id), entry))
    }

    /// Run a locked read-modify-write transaction: acquire the sibling
    /// file lock, reload the file (so the closure sees every other
    /// farm's committed transitions), apply the closure, and — if it
    /// mutated anything — rewrite the file atomically before releasing
    /// the lock. The in-memory mirror is refreshed either way.
    ///
    /// # Errors
    ///
    /// [`LedgerError`] if the lock, reload, or rewrite fails. A failed
    /// rewrite may leave the mirror ahead of disk; the next transaction
    /// reloads and heals.
    pub fn update<R>(
        &mut self,
        f: impl FnOnce(&mut LedgerTxn<'_>) -> R,
    ) -> Result<R, LedgerError> {
        let _lock = FileLock::acquire(&self.lock_path)?;
        let parsed = Self::load(&self.path)?;
        self.entries = parsed.entries;
        if parsed.recovered_tail.is_some() {
            self.recovered_tail = parsed.recovered_tail;
        }
        let mut dirty = false;
        let r = f(&mut LedgerTxn { entries: &mut self.entries, dirty: &mut dirty });
        if dirty {
            self.persist()?;
        }
        Ok(r)
    }

    /// Reload the mirror from disk without taking the lock (a read-only
    /// peek at the latest committed snapshot).
    ///
    /// # Errors
    ///
    /// [`LedgerError`] if the file cannot be read or parsed.
    pub fn refresh(&mut self) -> Result<(), LedgerError> {
        let parsed = Self::load(&self.path)?;
        self.entries = parsed.entries;
        if parsed.recovered_tail.is_some() {
            self.recovered_tail = parsed.recovered_tail;
        }
        Ok(())
    }

    /// Record `state` for `job` as a single locked transaction,
    /// preserving the entry's lease/priority/attempt metadata (or
    /// creating a fresh `Normal` entry if the job is new).
    ///
    /// # Errors
    ///
    /// [`LedgerError`] if the transaction fails.
    pub fn record(
        &mut self,
        job: JobId,
        state: JobState,
        detail: impl Into<String>,
    ) -> Result<(), LedgerError> {
        let detail = detail.into();
        self.update(|t| {
            let mut entry = t
                .get(job)
                .cloned()
                .unwrap_or_else(|| LedgerEntry::new(state, Priority::Normal));
            entry.state = state;
            entry.detail = detail;
            t.set(job, entry);
        })
    }

    fn persist(&self) -> Result<(), io::Error> {
        let mut text = String::with_capacity(64 + self.entries.len() * 48);
        text.push_str(LEDGER_HEADER_V2);
        text.push('\n');
        for (id, entry) in &self.entries {
            fn col(s: &str) -> &str {
                if s.is_empty() {
                    "-"
                } else {
                    s
                }
            }
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                id.0,
                entry.state.token(),
                entry.priority.token(),
                col(&entry.owner),
                entry.beat,
                entry.attempts,
                col(&entry.detail),
            );
        }
        write_atomic(&self.path, text.as_bytes())
    }

    /// Last recorded state of `job`, if it was ever recorded.
    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.entries.get(&job).map(|e| e.state)
    }

    /// Full entry for `job`.
    pub fn entry(&self, job: JobId) -> Option<&LedgerEntry> {
        self.entries.get(&job)
    }

    /// All entries, sorted by job id.
    pub fn entries(&self) -> impl Iterator<Item = (JobId, &LedgerEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// Job ids in `state`, ascending (= FIFO submission order).
    pub fn jobs_in(&self, state: JobState) -> Vec<JobId> {
        self.entries.iter().filter(|(_, e)| e.state == state).map(|(id, _)| *id).collect()
    }

    /// Highest id ever recorded, for id assignment after reopen.
    pub fn max_id(&self) -> Option<JobId> {
        self.entries.keys().next_back().copied()
    }

    /// Number of jobs ever recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no job was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The note left by torn-final-line recovery, if the last (re)load
    /// had to drop a tail line.
    pub fn recovered_tail(&self) -> Option<&str> {
        self.recovered_tail.as_deref()
    }
}

/// Lock-file sibling: the lock lives next to the data it guards.
fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("camsoc-ledger-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn transitions_survive_reopen() {
        let dir = tmp_dir("reopen");
        let path = dir.join("ledger.txt");
        let mut ledger = JobLedger::open(&path).unwrap();
        ledger.record(JobId(0), JobState::Queued, "").unwrap();
        ledger.record(JobId(1), JobState::Queued, "").unwrap();
        ledger.record(JobId(0), JobState::Running, "").unwrap();
        ledger.record(JobId(2), JobState::Parked, "deadline").unwrap();
        drop(ledger);

        let back = JobLedger::open(&path).unwrap();
        assert_eq!(back.state(JobId(0)), Some(JobState::Running));
        assert_eq!(back.state(JobId(1)), Some(JobState::Queued));
        assert_eq!(back.state(JobId(2)), Some(JobState::Parked));
        assert_eq!(back.entry(JobId(2)).unwrap().detail, "deadline");
        assert_eq!(back.max_id(), Some(JobId(2)));
        assert_eq!(back.jobs_in(JobState::Queued), vec![JobId(1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn detail_separators_are_stripped() {
        let dir = tmp_dir("detail");
        let path = dir.join("ledger.txt");
        let mut ledger = JobLedger::open(&path).unwrap();
        ledger.record(JobId(7), JobState::Failed, "line1\nline2\ttabbed").unwrap();
        let back = JobLedger::open(&path).unwrap();
        assert_eq!(back.entry(JobId(7)).unwrap().detail, "line1line2tabbed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn locked_transactions_carry_lease_metadata() {
        let dir = tmp_dir("lease");
        let path = dir.join("ledger.txt");
        let mut ledger = JobLedger::open(&path).unwrap();
        ledger
            .update(|t| {
                let mut e = LedgerEntry::new(JobState::Running, Priority::Critical);
                e.owner = "farm-1-0".into();
                e.beat = 3;
                e.attempts = 2;
                t.set(JobId(4), e);
            })
            .unwrap();
        // Another handle on the same file sees the committed lease.
        let other = JobLedger::open(&path).unwrap();
        let e = other.entry(JobId(4)).unwrap();
        assert_eq!(
            (e.state, e.priority, e.owner.as_str(), e.beat, e.attempts),
            (JobState::Running, Priority::Critical, "farm-1-0", 3, 2)
        );
        // record() must preserve the metadata it does not touch.
        let mut other = other;
        other.record(JobId(4), JobState::Done, "").unwrap();
        let back = JobLedger::open(&path).unwrap();
        let e = back.entry(JobId(4)).unwrap();
        assert_eq!((e.state, e.priority, e.attempts), (JobState::Done, Priority::Critical, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_reloads_other_writers_transitions() {
        let dir = tmp_dir("reload");
        let path = dir.join("ledger.txt");
        let mut a = JobLedger::open(&path).unwrap();
        let mut b = JobLedger::open(&path).unwrap();
        a.record(JobId(0), JobState::Queued, "").unwrap();
        // b's mirror predates a's write; its next transaction must see it.
        b.update(|t| {
            assert_eq!(t.get(JobId(0)).map(|e| e.state), Some(JobState::Queued));
            assert_eq!(t.max_id(), Some(JobId(0)));
        })
        .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_lines_recover_to_last_good_prefix() {
        let dir = tmp_dir("torn");
        let good = "camsoc-ledger v2\n\
                    0\tdone\tnormal\t-\t2\t0\t-\n\
                    1\trunning\tcritical\tfarm-9-0\t5\t1\t-\n";
        // Truncate at EVERY byte boundary past the header: each image
        // must either parse fully or recover to a good prefix — never
        // refuse, never invent an entry.
        let header_len = "camsoc-ledger v2\n".len();
        for cut in header_len..good.len() {
            let path = dir.join("cut.txt");
            fs::write(&path, &good[..cut]).unwrap();
            let ledger = JobLedger::open(&path).unwrap_or_else(|e| {
                panic!("cut at byte {cut} refused: {e}");
            });
            assert!(ledger.len() <= 2, "cut at {cut} invented entries");
            if let Some(e) = ledger.entry(JobId(0)) {
                assert_eq!(e.state, JobState::Done);
            }
        }
        // A duplicate id on the final line is the same torn-rewrite
        // shape: drop the tail, keep neither ambiguous copy... of the
        // *duplicate* pair the earlier line is also suspect, so the id
        // disappears from the snapshot entirely.
        let path = dir.join("dup-tail.txt");
        fs::write(
            &path,
            "camsoc-ledger v2\n\
             0\tdone\tnormal\t-\t2\t0\t-\n\
             1\tqueued\tnormal\t-\t0\t0\t-\n\
             1\trunning\tnormal\tfarm-9-0\t1\t0\t-\n",
        )
        .unwrap();
        let ledger = JobLedger::open(&path).unwrap();
        assert!(ledger.recovered_tail().unwrap().contains("duplicate id 1"));
        assert_eq!(ledger.state(JobId(0)), Some(JobState::Done));
        assert_eq!(ledger.state(JobId(1)), None, "ambiguous pair must not survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_files_are_refused() {
        let dir = tmp_dir("malformed");
        // Damage anywhere BEFORE the final line is not a torn tail and
        // must still be refused (each bad line is followed by a good
        // one, so recovery does not apply).
        let tail = "9\tdone\tnormal\t-\t0\t0\t-\n";
        for (name, text) in [
            ("h.txt", "camsoc-ledger v9\n".to_string()),
            ("cols.txt", format!("camsoc-ledger v2\n3\tdone\n{tail}")),
            ("state.txt", format!("camsoc-ledger v2\n3\tbogus\tnormal\t-\t0\t0\t-\n{tail}")),
            ("prio.txt", format!("camsoc-ledger v2\n3\tdone\turgent\t-\t0\t0\t-\n{tail}")),
            ("id.txt", format!("camsoc-ledger v2\nx\tdone\tnormal\t-\t0\t0\t-\n{tail}")),
            ("dup.txt", format!("camsoc-ledger v2\n3\tdone\tnormal\t-\t0\t0\t-\n3\tqueued\tnormal\t-\t0\t0\t-\n{tail}")),
            ("v1cols.txt", format!("camsoc-ledger v1\n3\tdone\n{tail}")),
        ] {
            let path = dir.join(name);
            fs::write(&path, text).unwrap();
            assert!(
                matches!(JobLedger::open(&path), Err(LedgerError::Malformed(_))),
                "{name} should be refused"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_starts_empty() {
        let dir = tmp_dir("fresh");
        let ledger = JobLedger::open(dir.join("ledger.txt")).unwrap();
        assert!(ledger.is_empty());
        assert_eq!(ledger.max_id(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
