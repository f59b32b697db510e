//! Content-addressed persistent result store for scenario campaigns.
//!
//! The paper's whole argument is *incremental* design: re-evaluating a
//! modified system should cost only what changed. This crate is the
//! storage half of that argument at the campaign level — a directory of
//! immutable JSON blobs addressed by the SHA-256 of their scenario's
//! canonical spec, so a campaign runner can skip every grid point whose
//! inputs are byte-identical to a previous run.
//!
//! The crate is deliberately ignorant of what a "scenario" is: callers
//! (see `incdes_explore::cache`) serialize a canonical fingerprint of
//! their work item and pass the bytes to [`StoreKey::of`]. The store
//! handles keying, durable blob I/O, corruption detection, locking and
//! garbage collection:
//!
//! * **Keying** — [`StoreKey::of`] hashes `incdes-store/v{N}\n` +
//!   canonical bytes with SHA-256 ([`sha256`]); [`FORMAT_EPOCH`] is part
//!   of both the hash *and* the on-disk directory name, so bumping it
//!   invalidates every old blob wholesale without touching them.
//! * **Blob I/O** — [`Store::put`] writes `checksum\npayload` to a temp
//!   file and atomically renames it into place; concurrent writers of
//!   the same key are idempotent. [`Store::lookup`] verifies the
//!   checksum: a truncated or hand-edited blob is reported as
//!   [`Lookup::Corrupt`], never served and never a panic.
//! * **Locking** — [`Store::lock`] is a cross-process advisory lock
//!   (exclusive lock file, stale locks stolen after a timeout, waiters
//!   poll with capped exponential backoff) guarding maintenance
//!   operations such as GC.
//! * **GC** — [`Store::gc`] removes every blob not in a caller-provided
//!   live set, sweeps crash debris (aged `*.tmp.*` files from
//!   interrupted puts, `.lock.stale.*` graveyard entries from lock
//!   steals); [`Store::clear`] drops the current epoch entirely.
//! * **Fault model** — every filesystem call goes through a pluggable
//!   [`Backend`] ([`FsBackend`] by default); [`FaultyBackend`] injects
//!   seed-reproducible errors from a [`FaultPlan`] for soak testing.
//!
//! Layout on disk (relative to the directory given to [`Store::open`]):
//!
//! ```text
//! .campaign-store/
//!   v1/                  <- FORMAT_EPOCH
//!     .lock              <- advisory lock (exists only while held)
//!     3f/                <- first two hex chars of the key
//!       3fa4...c2.blob   <- "sha256-of-payload\n" + payload
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fault;
mod sha256;

pub use backend::{Backend, DirEntryInfo, FsBackend};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultyBackend, OpFaults};
pub use sha256::{hex, sha256};

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Version of the on-disk blob format *and* of the key derivation.
///
/// Bump this whenever either changes meaning (blob layout, fingerprint
/// semantics, report schema): the epoch participates in every key hash
/// and names the store's top-level directory, so old blobs become
/// unreachable immediately and can be deleted wholesale.
pub const FORMAT_EPOCH: u32 = 1;

/// How long a lock file may sit untouched before another process may
/// steal it (covers crashed holders). Holders do not refresh the file's
/// mtime, so the window is generous: a lock-guarded operation must
/// finish well within it (GC sweeps take milliseconds).
const LOCK_STALE_AFTER: Duration = Duration::from_secs(300);

/// How long a `*.tmp.*` file may sit before GC treats it as debris from
/// a crashed [`Store::put`]. Live writers hold their temp file only for
/// the instants between write and rename, so anything this old is
/// orphaned.
const TMP_STALE_AFTER: Duration = Duration::from_secs(300);

/// First delay of the [`Store::lock`] backoff ladder.
const LOCK_BACKOFF_START: Duration = Duration::from_millis(1);

/// Backoff cap: waiters never sleep longer than this between polls.
const LOCK_BACKOFF_CAP: Duration = Duration::from_millis(64);

/// How long maintenance operations ([`Store::gc`], [`Store::clear`])
/// wait for the store lock.
const MAINTENANCE_LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// A content-addressed store key: the SHA-256 of an epoch-tagged
/// canonical byte string.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey([u8; 32]);

impl StoreKey {
    /// Derives the key of `canonical` under the current
    /// [`FORMAT_EPOCH`].
    #[must_use]
    pub fn of(canonical: &[u8]) -> StoreKey {
        let mut input = Vec::with_capacity(canonical.len() + 24);
        input.extend_from_slice(format!("incdes-store/v{FORMAT_EPOCH}\n").as_bytes());
        input.extend_from_slice(canonical);
        StoreKey(sha256(&input))
    }

    /// The key as 64 lowercase hex characters (the blob file stem).
    #[must_use]
    pub fn hex(&self) -> String {
        hex(&self.0)
    }

    /// Parses a 64-character hex key (e.g. a blob file stem).
    #[must_use]
    pub fn from_hex(s: &str) -> Option<StoreKey> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok()?;
        }
        Some(StoreKey(out))
    }

    /// Deterministic shard assignment: which of `shard_count` shards
    /// owns this key (0-based). Uniform because the key is a hash.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    #[must_use]
    pub fn shard_of(&self, shard_count: usize) -> usize {
        assert!(shard_count > 0, "shard_count must be positive");
        let head = u64::from_be_bytes(self.0[..8].try_into().expect("key has 32 bytes"));
        (head % shard_count as u64) as usize
    }
}

impl fmt::Debug for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StoreKey({})", self.hex())
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Result of a blob lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The blob exists and its checksum verifies; the payload.
    Hit(String),
    /// No blob stored under the key.
    Miss,
    /// A blob exists but is unreadable, truncated or hand-edited
    /// (checksum mismatch). Callers must treat this as a miss and may
    /// overwrite it.
    Corrupt,
}

/// Statistics of one [`Store::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Blobs kept (present in the live set).
    pub kept: usize,
    /// Blobs removed (absent from the live set, or unparseable names).
    pub removed: usize,
    /// Orphaned `*.tmp.*` files swept (crashed puts, aged past the
    /// staleness window).
    pub swept_tmp: usize,
    /// `.lock.stale.*` graveyard files swept (left by lock steals whose
    /// cleanup was interrupted).
    pub swept_stale_locks: usize,
}

/// An exclusive advisory lock on a store; released on drop.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
    backend: Arc<dyn Backend>,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release must survive transient backend faults: a lock file
        // left behind blocks every maintenance operation for the whole
        // staleness window. (GC sweeps any graveyard debris later.)
        for _ in 0..3 {
            match self.backend.remove_file(&self.path) {
                Ok(()) => return,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return,
                Err(_) => {}
            }
        }
    }
}

/// A content-addressed blob store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    backend: Arc<dyn Backend>,
}

impl Store {
    /// Opens (creating if needed) the store under `dir` on the real
    /// filesystem. The current [`FORMAT_EPOCH`]'s subdirectory is
    /// created; older epochs are left untouched (use
    /// [`Store::sweep_old_epochs`] to delete them).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with_backend(dir, Arc::new(FsBackend))
    }

    /// Opens the store under `dir` through an explicit [`Backend`]
    /// (e.g. a [`FaultyBackend`] for soak runs).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        backend: Arc<dyn Backend>,
    ) -> io::Result<Store> {
        let root = dir.as_ref().join(format!("v{FORMAT_EPOCH}"));
        backend.create_dir_all(&root)?;
        Ok(Store { root, backend })
    }

    /// The epoch directory blobs live under.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, key: &StoreKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.blob"))
    }

    /// Stores `payload` under `key`, atomically: the blob is written to
    /// a writer-unique temp file (process id + a process-wide counter,
    /// so concurrent threads never share one) and renamed into place,
    /// so concurrent writers — other threads, other shards, other
    /// processes — can never expose a partially-written blob, and
    /// rewriting an existing key is safe.
    ///
    /// # Errors
    ///
    /// I/O errors writing the blob.
    pub fn put(&self, key: &StoreKey, payload: &str) -> io::Result<()> {
        static WRITER: AtomicU64 = AtomicU64::new(0);
        let path = self.blob_path(key);
        let dir = path.parent().expect("blob path has a parent");
        self.backend.create_dir_all(dir)?;
        let tmp = dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            WRITER.fetch_add(1, Ordering::Relaxed)
        ));
        let body = format!("{}\n{}", hex(&sha256(payload.as_bytes())), payload);
        self.backend.write(&tmp, body.as_bytes())?;
        match self.backend.rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = self.backend.remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Looks `key` up, verifying the payload checksum. Never panics on
    /// bad on-disk state: truncated, hand-edited or unreadable blobs are
    /// reported as [`Lookup::Corrupt`].
    #[must_use]
    pub fn lookup(&self, key: &StoreKey) -> Lookup {
        let path = self.blob_path(key);
        let body = match self.backend.read_to_string(&path) {
            Ok(body) => body,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(_) => return Lookup::Corrupt,
        };
        let Some((checksum, payload)) = body.split_once('\n') else {
            return Lookup::Corrupt;
        };
        if checksum == hex(&sha256(payload.as_bytes())) {
            Lookup::Hit(payload.to_string())
        } else {
            Lookup::Corrupt
        }
    }

    /// [`Store::lookup`] flattened to an `Option` (corrupt ⇒ `None`).
    #[must_use]
    pub fn get(&self, key: &StoreKey) -> Option<String> {
        match self.lookup(key) {
            Lookup::Hit(payload) => Some(payload),
            Lookup::Miss | Lookup::Corrupt => None,
        }
    }

    /// Removes the blob under `key`; returns whether one existed.
    ///
    /// # Errors
    ///
    /// I/O errors other than the blob being absent.
    pub fn remove(&self, key: &StoreKey) -> io::Result<bool> {
        match self.backend.remove_file(&self.blob_path(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// All keys currently stored, sorted (includes corrupt blobs —
    /// they still occupy their key's slot until overwritten or GC'd).
    ///
    /// # Errors
    ///
    /// I/O errors reading the store directories.
    pub fn keys(&self) -> io::Result<Vec<StoreKey>> {
        let mut keys = Vec::new();
        for shard in self.backend.list_dir(&self.root)? {
            if !shard.is_dir {
                continue;
            }
            for entry in self.backend.list_dir(&self.root.join(&shard.name))? {
                if let Some(stem) = entry.name.strip_suffix(".blob") {
                    if let Some(key) = StoreKey::from_hex(stem) {
                        keys.push(key);
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Number of blobs stored.
    ///
    /// # Errors
    ///
    /// I/O errors reading the store directories.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.keys()?.len())
    }

    /// Whether the store holds no blobs.
    ///
    /// # Errors
    ///
    /// I/O errors reading the store directories.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.keys()?.is_empty())
    }

    /// Attempts to take the store's advisory lock without waiting.
    /// `Ok(None)` means another live process holds it.
    ///
    /// # Errors
    ///
    /// I/O errors creating the lock file.
    pub fn try_lock(&self) -> io::Result<Option<StoreLock>> {
        let path = self.root.join(".lock");
        match self.backend.create_lock_file(&path) {
            Ok(()) => Ok(Some(StoreLock {
                path,
                backend: Arc::clone(&self.backend),
            })),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                // Steal locks whose holder died: the file hasn't been
                // touched for LOCK_STALE_AFTER. The steal must not be
                // remove-then-recreate — two contenders could both see
                // the stale file and the slower remove would delete the
                // winner's *fresh* lock. Renaming the stale file aside
                // is atomic: exactly one contender's rename succeeds
                // (the loser's fails because the source is gone), and a
                // live lock created in between is never touched.
                let stale = self
                    .backend
                    .modified(&path)
                    .ok()
                    .and_then(|t| SystemTime::now().duration_since(t).ok())
                    .is_some_and(|age| age > LOCK_STALE_AFTER);
                if stale {
                    static STEAL: AtomicU64 = AtomicU64::new(0);
                    let graveyard = self.root.join(format!(
                        ".lock.stale.{}.{}",
                        std::process::id(),
                        STEAL.fetch_add(1, Ordering::Relaxed)
                    ));
                    if self.backend.rename(&path, &graveyard).is_ok() {
                        let _ = self.backend.remove_file(&graveyard);
                    }
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Takes the advisory lock, waiting up to `timeout`. Waiters poll
    /// with deterministic exponential backoff (1 ms doubling to a 64 ms
    /// cap), so heavy contention does not turn into a fixed-rate
    /// stampede on the lock file.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the lock stays held, or I/O
    /// errors creating the lock file.
    pub fn lock(&self, timeout: Duration) -> io::Result<StoreLock> {
        let deadline = Instant::now() + timeout;
        let mut delay = LOCK_BACKOFF_START;
        loop {
            if let Some(guard) = self.try_lock()? {
                return Ok(guard);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("store lock at {} is held", self.root.display()),
                ));
            }
            std::thread::sleep(delay.min(deadline - now));
            delay = (delay * 2).min(LOCK_BACKOFF_CAP);
        }
    }

    /// Removes every blob whose key is not in `live`, and sweeps crash
    /// debris: `*.tmp.*` files older than the staleness window
    /// (orphaned by a put that died between write and rename — younger
    /// ones may belong to a live writer and are left alone) and
    /// `.lock.stale.*` graveyard files (dead by construction: they are
    /// renamed-aside stale locks whose removal was interrupted).
    ///
    /// Takes the store lock for the duration of the sweep so concurrent
    /// GCs cannot race each other (writers are unaffected: a `put` of a
    /// *live* key after the sweep visited its directory simply
    /// survives).
    ///
    /// # Errors
    ///
    /// Lock acquisition or I/O errors during the sweep.
    pub fn gc(&self, live: &BTreeSet<StoreKey>) -> io::Result<GcStats> {
        let _guard = self.lock(MAINTENANCE_LOCK_TIMEOUT)?;
        let mut stats = GcStats::default();
        let now = SystemTime::now();
        for entry in self.backend.list_dir(&self.root)? {
            if entry.is_dir {
                let shard_dir = self.root.join(&entry.name);
                for file in self.backend.list_dir(&shard_dir)? {
                    let path = shard_dir.join(&file.name);
                    if let Some(stem) = file.name.strip_suffix(".blob") {
                        match StoreKey::from_hex(stem) {
                            Some(key) if live.contains(&key) => stats.kept += 1,
                            Some(key) => {
                                if self.remove(&key)? {
                                    stats.removed += 1;
                                }
                            }
                            // A .blob whose stem is not a key cannot be
                            // addressed and is dead weight.
                            None => {
                                if self.backend.remove_file(&path).is_ok() {
                                    stats.removed += 1;
                                }
                            }
                        }
                    } else if file.name.contains(".tmp.") {
                        let orphaned = self
                            .backend
                            .modified(&path)
                            .ok()
                            .and_then(|t| now.duration_since(t).ok())
                            .is_some_and(|age| age > TMP_STALE_AFTER);
                        if orphaned && self.backend.remove_file(&path).is_ok() {
                            stats.swept_tmp += 1;
                        }
                    }
                }
            } else if entry.name.starts_with(".lock.stale.")
                && self
                    .backend
                    .remove_file(&self.root.join(&entry.name))
                    .is_ok()
            {
                stats.swept_stale_locks += 1;
            }
        }
        Ok(stats)
    }

    /// Removes every blob of the current epoch (and, like [`Store::gc`],
    /// sweeps crash debris).
    ///
    /// # Errors
    ///
    /// Lock acquisition or I/O errors during the sweep.
    pub fn clear(&self) -> io::Result<usize> {
        Ok(self.gc(&BTreeSet::new())?.removed)
    }

    /// Deletes the directories of *older* format epochs under `dir`
    /// (the parent passed to [`Store::open`]). Returns how many epoch
    /// directories were removed.
    ///
    /// Administrative, process-local: always operates on the real
    /// filesystem regardless of the store's backend.
    ///
    /// # Errors
    ///
    /// I/O errors reading `dir` or removing an epoch directory.
    pub fn sweep_old_epochs(dir: impl AsRef<Path>) -> io::Result<usize> {
        let mut removed = 0;
        for entry in std::fs::read_dir(dir.as_ref())? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(epoch) = name.strip_prefix('v').and_then(|v| v.parse::<u32>().ok()) else {
                continue;
            };
            if epoch < FORMAT_EPOCH {
                std::fs::remove_dir_all(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store() -> (PathBuf, Store) {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "incdes-store-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("temp store opens");
        (dir, store)
    }

    /// Ages a file past the debris staleness window.
    fn age_file(path: &Path) {
        let file = fs::File::options()
            .write(true)
            .open(path)
            .expect("debris file opens");
        file.set_modified(SystemTime::now() - TMP_STALE_AFTER - Duration::from_secs(60))
            .expect("mtime is settable");
    }

    #[test]
    fn key_derivation_is_stable_and_epoch_tagged() {
        let a = StoreKey::of(b"scenario-1");
        let b = StoreKey::of(b"scenario-1");
        let c = StoreKey::of(b"scenario-2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Pinned: changing FORMAT_EPOCH or the hash breaks this on
        // purpose — bump the expectation together with the epoch.
        assert_eq!(
            a.hex(),
            hex(&sha256(b"incdes-store/v1\nscenario-1")),
            "key = sha256(epoch header + canonical bytes)"
        );
        assert_eq!(StoreKey::from_hex(&a.hex()), Some(a));
        assert_eq!(StoreKey::from_hex("zz"), None);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_total() {
        let keys: Vec<StoreKey> = (0..64)
            .map(|i| StoreKey::of(format!("k{i}").as_bytes()))
            .collect();
        for &n in &[1usize, 2, 3, 8] {
            for k in &keys {
                let s = k.shard_of(n);
                assert!(s < n);
                assert_eq!(s, k.shard_of(n), "stable per key");
            }
        }
        // With 64 hashed keys over 4 shards, every shard gets work.
        let mut seen = [false; 4];
        for k in &keys {
            seen[k.shard_of(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn put_get_roundtrip_and_overwrite() {
        let (dir, store) = temp_store();
        let key = StoreKey::of(b"point");
        assert_eq!(store.lookup(&key), Lookup::Miss);
        store.put(&key, "{\"x\":1}").unwrap();
        assert_eq!(store.get(&key), Some("{\"x\":1}".to_string()));
        // Overwrite is atomic and wins.
        store.put(&key, "{\"x\":2}").unwrap();
        assert_eq!(store.get(&key), Some("{\"x\":2}".to_string()));
        assert_eq!(store.len().unwrap(), 1);
        // Multi-line payloads survive (checksum covers everything after
        // the first newline).
        store.put(&key, "line1\nline2\n").unwrap();
        assert_eq!(store.get(&key), Some("line1\nline2\n".to_string()));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_or_edited_blob_is_corrupt_not_a_panic() {
        let (dir, store) = temp_store();
        let key = StoreKey::of(b"damaged");
        store.put(&key, "payload-bytes").unwrap();
        let path = store.blob_path(&key);

        // Truncation.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.lookup(&key), Lookup::Corrupt);
        assert_eq!(store.get(&key), None);

        // Hand-edit that keeps the structure but changes the payload.
        fs::write(&path, full.replace("payload", "poisoned")).unwrap();
        assert_eq!(store.lookup(&key), Lookup::Corrupt);

        // No newline at all.
        fs::write(&path, "garbage-without-structure").unwrap();
        assert_eq!(store.lookup(&key), Lookup::Corrupt);

        // A fresh put repairs the slot.
        store.put(&key, "payload-bytes").unwrap();
        assert_eq!(store.get(&key), Some("payload-bytes".to_string()));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_keeps_live_and_removes_dead() {
        let (dir, store) = temp_store();
        let live_key = StoreKey::of(b"live");
        let dead_key = StoreKey::of(b"dead");
        store.put(&live_key, "live").unwrap();
        store.put(&dead_key, "dead").unwrap();
        let live: BTreeSet<StoreKey> = [live_key].into_iter().collect();
        let stats = store.gc(&live).unwrap();
        assert_eq!(
            stats,
            GcStats {
                kept: 1,
                removed: 1,
                swept_tmp: 0,
                swept_stale_locks: 0
            }
        );
        assert_eq!(store.get(&live_key), Some("live".to_string()));
        assert_eq!(store.lookup(&dead_key), Lookup::Miss);
        assert_eq!(store.clear().unwrap(), 1);
        assert!(store.is_empty().unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_sweeps_aged_tmp_and_stale_lock_debris() {
        let (dir, store) = temp_store();
        let key = StoreKey::of(b"live");
        store.put(&key, "live").unwrap();

        // A crashed put: temp file orphaned in the key's shard dir.
        let shard_dir = store.blob_path(&key).parent().unwrap().to_path_buf();
        let old_tmp = shard_dir.join(format!("{}.tmp.999.0", key.hex()));
        fs::write(&old_tmp, "half-written").unwrap();
        age_file(&old_tmp);
        // A *fresh* temp file: may belong to a live writer, must stay.
        let fresh_tmp = shard_dir.join(format!("{}.tmp.999.1", key.hex()));
        fs::write(&fresh_tmp, "in-flight").unwrap();
        // An interrupted lock steal: graveyard file at the store root.
        let graveyard = store.root().join(".lock.stale.999.0");
        fs::write(&graveyard, "").unwrap();

        let live: BTreeSet<StoreKey> = [key].into_iter().collect();
        let stats = store.gc(&live).unwrap();
        assert_eq!(
            stats,
            GcStats {
                kept: 1,
                removed: 0,
                swept_tmp: 1,
                swept_stale_locks: 1
            }
        );
        assert!(!old_tmp.exists(), "aged tmp debris swept");
        assert!(fresh_tmp.exists(), "fresh tmp left for its writer");
        assert!(!graveyard.exists(), "stale-lock graveyard swept");
        assert_eq!(store.get(&key), Some("live".to_string()));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let (dir, store) = temp_store();
        let guard = store.try_lock().unwrap().expect("first lock succeeds");
        assert!(
            store.try_lock().unwrap().is_none(),
            "second lock must fail while held"
        );
        drop(guard);
        assert!(
            store.try_lock().unwrap().is_some(),
            "lock is free again after drop"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lock_wait_times_out_with_backoff() {
        let (dir, store) = temp_store();
        let _guard = store.try_lock().unwrap().expect("first lock succeeds");
        let started = Instant::now();
        let err = store
            .lock(Duration::from_millis(40))
            .expect_err("held lock times out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The waiter respected the deadline rather than spinning
        // forever, and actually waited for it.
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(40), "waited {waited:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn faulty_backend_store_survives_and_reports_corruption() {
        static SALT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "incdes-store-faulty-{}-{}",
            std::process::id(),
            SALT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let plan = FaultPlan {
            write: OpFaults {
                fail_first: 1,
                kinds: vec![FaultKind::StorageFull],
                ..OpFaults::default()
            },
            torn_write_prob: 0.0,
            ..FaultPlan::default()
        };
        let store = Store::open_with_backend(
            &dir,
            Arc::new(FaultyBackend::new(Arc::new(FsBackend), plan, 1)),
        )
        .expect("open never faulted");
        let key = StoreKey::of(b"flaky");
        let err = store.put(&key, "x").expect_err("first write faulted");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        store.put(&key, "x").expect("second write clean");
        assert_eq!(store.get(&key), Some("x".to_string()));
        let _ = fs::remove_dir_all(dir);
    }

    /// Satellite: concurrent put/get/gc on one store directory. Readers
    /// must never observe a corrupt blob (atomic installs), and GC must
    /// never remove a live key.
    #[test]
    fn concurrent_put_get_gc_stress() {
        let (dir, store) = temp_store();
        let keys: Vec<(StoreKey, String)> = (0..16)
            .map(|i| {
                (
                    StoreKey::of(format!("stress-{i}").as_bytes()),
                    format!("payload-{i}"),
                )
            })
            .collect();
        let live: BTreeSet<StoreKey> = keys.iter().map(|(k, _)| *k).collect();

        std::thread::scope(|scope| {
            // Writers: hammer every key repeatedly.
            for w in 0..4 {
                let store = store.clone();
                let keys = &keys;
                scope.spawn(move || {
                    for round in 0..30 {
                        for (key, payload) in keys.iter().skip(w % 2) {
                            store
                                .put(key, payload)
                                .unwrap_or_else(|e| panic!("put failed in round {round}: {e}"));
                        }
                    }
                });
            }
            // Readers: a key is either absent or exactly its payload —
            // never a torn intermediate state.
            for _ in 0..2 {
                let store = store.clone();
                let keys = &keys;
                scope.spawn(move || {
                    for _ in 0..200 {
                        for (key, payload) in keys {
                            match store.lookup(key) {
                                Lookup::Hit(found) => assert_eq!(&found, payload),
                                Lookup::Miss => {}
                                Lookup::Corrupt => panic!("reader saw a corrupt blob"),
                            }
                        }
                    }
                });
            }
            // GC: sweeps with the full live set must never lose data.
            {
                let store = store.clone();
                let live = &live;
                scope.spawn(move || {
                    for _ in 0..10 {
                        let stats = store.gc(live).expect("gc under contention");
                        assert_eq!(stats.removed, 0, "gc removed a live blob");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
        });

        for (key, payload) in &keys {
            assert_eq!(store.get(key), Some(payload.clone()), "lost live blob");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn old_epochs_are_swept() {
        let (dir, store) = temp_store();
        let key = StoreKey::of(b"current");
        store.put(&key, "x").unwrap();
        fs::create_dir_all(dir.join("v0")).unwrap();
        fs::write(dir.join("v0").join("stale"), "old blob").unwrap();
        assert_eq!(Store::sweep_old_epochs(&dir).unwrap(), 1);
        assert!(!dir.join("v0").exists());
        assert_eq!(store.get(&key), Some("x".to_string()), "current epoch kept");
        let _ = fs::remove_dir_all(dir);
    }
}
