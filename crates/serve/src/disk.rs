//! Persistent compile cache: a content-addressed on-disk store that
//! lets a restarted daemon come up warm.
//!
//! Two kinds of entries live under one cache root:
//!
//! * **Responses** (`resp/<key:016x>.json`): the canonical response
//!   bytes for one memoizable request, keyed by the same FNV-1a
//!   canonical-params key the in-memory [`crate::ResponseCache`] uses.
//!   Probed lazily on a memo miss, so only keys that recur after a
//!   restart pay the disk read; a hit is pinned byte-identical to the
//!   cold compile by construction (the stored bytes *are* the rendered
//!   response).
//! * **Library keys** (`lib/<entry>.key`): one line per compiled
//!   [`lim_brick::library::LibraryEntry`] recording `(bitcell, words,
//!   bits, stack)` plus an FNV-1a fingerprint of the rendered estimate.
//!   Compilation is a pure function of `(tech, spec)`, so persisting
//!   the key and recompiling on load is both smaller and safer than
//!   serializing the full compiled brick; the fingerprint catches a
//!   store produced by a different compiler (entry skipped as stale).
//!
//! Every file starts with a `lim-disk-v1` stamp. Writes go to
//! `tmp/<name>.<pid>.<seq>` and are published with `rename(2)`, so a
//! crash mid-write leaves at worst an orphan tmp file, never a torn
//! entry. Unreadable entries are counted (`corrupt`), removed
//! best-effort, and treated as misses; entries with a wrong version
//! stamp or fingerprint are counted (`stale`) and likewise dropped.

use lim_obs::json::Value;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamp on every cache file; bump on any layout change.
pub const DISK_FORMAT: &str = "lim-disk-v1";

/// A rendered cache file waiting to be published. Building it is cheap
/// and happens while the request is answered; [`DiskCache::write`]
/// pays for the file write, `fsync` and rename once the reply is on
/// its way.
#[derive(Debug)]
pub(crate) struct PendingWrite {
    dest: PathBuf,
    bytes: Vec<u8>,
    /// Library keys are immutable (same name ⇒ same content): the first
    /// write wins and repeats skip the I/O.
    first_wins: bool,
}

/// A persisted library entry: enough to deterministically recompile
/// the brick, plus a fingerprint to detect a foreign store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibKey {
    pub bitcell: String,
    pub words: usize,
    pub bits: usize,
    pub stack: usize,
    /// FNV-1a over the rendered estimate JSON of the compiled entry.
    pub fingerprint: u64,
}

/// Lifetime counters for one [`DiskCache`]; all monotone.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskStats {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    pub corrupt: u64,
    pub stale: u64,
}

/// Handle on one on-disk cache root. Cheap to share behind an `Arc`;
/// all operations are lock-free (atomicity comes from `rename`).
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the `resp/`, `lib/`, or `tmp/` subdirectories cannot be
    /// created.
    pub fn open(root: &Path) -> io::Result<DiskCache> {
        for sub in ["resp", "lib", "tmp"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(DiskCache {
            root: root.to_path_buf(),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }

    fn resp_path(&self, key: u64) -> PathBuf {
        self.root.join("resp").join(format!("{key:016x}.json"))
    }

    /// Publishes `bytes` at `dest` atomically: write to a unique tmp
    /// file, flush, rename into place.
    fn publish(&self, dest: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let name = dest
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("entry");
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{name}.{}.{seq}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, dest) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Looks up the canonical response bytes for `key`. `Some` is a
    /// validated hit; `None` covers absent, stale (wrong stamp), and
    /// corrupt entries — the latter two are counted and removed.
    pub fn load_response(&self, key: u64) -> Option<String> {
        let path = self.resp_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_response(&text, key) {
            Ok(body) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            Err(kind) => {
                self.count_bad(kind);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores the canonical response `body` for `key`. `method` is
    /// recorded in the header for humans; the key alone addresses the
    /// entry. Errors are swallowed: the disk layer is an accelerator,
    /// never a correctness dependency.
    pub fn store_response(&self, key: u64, method: &str, body: &str) {
        self.write(self.response_write(key, method, body));
    }

    /// Records a compiled library entry under `entry_name` unless one
    /// is already present (entries are immutable: same name ⇒ same
    /// content, so first write wins and repeats skip the I/O).
    pub fn store_lib_key(&self, entry_name: &str, key: &LibKey) {
        self.write(self.lib_key_write(entry_name, key));
    }

    /// [`store_response`](Self::store_response), rendered but not yet
    /// written.
    pub(crate) fn response_write(&self, key: u64, method: &str, body: &str) -> PendingWrite {
        debug_assert!(!method.contains(char::is_whitespace));
        PendingWrite {
            dest: self.resp_path(key),
            bytes: format!("{DISK_FORMAT} resp {key:016x} {method}\n{body}\n").into_bytes(),
            first_wins: false,
        }
    }

    /// [`store_lib_key`](Self::store_lib_key), rendered but not yet
    /// written.
    pub(crate) fn lib_key_write(&self, entry_name: &str, key: &LibKey) -> PendingWrite {
        PendingWrite {
            dest: self.root.join("lib").join(format!("{entry_name}.key")),
            bytes: format!(
                "{DISK_FORMAT} lib {} {} {} {} {:016x}\n",
                key.bitcell, key.words, key.bits, key.stack, key.fingerprint
            )
            .into_bytes(),
            first_wins: true,
        }
    }

    /// Publishes a rendered entry; errors are swallowed like every
    /// other store.
    pub(crate) fn write(&self, entry: PendingWrite) {
        if entry.first_wins && entry.dest.exists() {
            return;
        }
        let _ = self.publish(&entry.dest, &entry.bytes);
    }

    /// All persisted `(entry_name, key)` pairs, sorted by file name for
    /// a deterministic warm order. Unreadable entries are counted and
    /// removed.
    pub fn lib_keys(&self) -> Vec<(String, LibKey)> {
        let dir = self.root.join("lib");
        let mut names: Vec<PathBuf> = match fs::read_dir(&dir) {
            Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(_) => return Vec::new(),
        };
        names.sort();
        let mut keys = Vec::with_capacity(names.len());
        for path in names {
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let name = path
                .file_stem()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            match parse_lib_key(&text) {
                Ok(key) => keys.push((name, key)),
                Err(kind) => {
                    self.count_bad(kind);
                    let _ = fs::remove_file(&path);
                }
            }
        }
        keys
    }

    /// Drops one persisted library entry whose recompiled fingerprint
    /// did not match (counted as stale).
    pub fn drop_stale_lib(&self, entry_name: &str) {
        self.stale.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(self.root.join("lib").join(format!("{entry_name}.key")));
    }

    fn count_bad(&self, kind: BadEntry) {
        match kind {
            BadEntry::Stale => self.stale.fetch_add(1, Ordering::Relaxed),
            BadEntry::Corrupt => self.corrupt.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Why a persisted entry was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BadEntry {
    /// Wrong version stamp: written by another format revision.
    Stale,
    /// Anything else unreadable: torn, truncated, or foreign bytes.
    Corrupt,
}

/// Splits a cache file into its stamped header fields and body,
/// classifying a wrong stamp as stale and a malformed header as
/// corrupt.
fn split_header(text: &str) -> Result<(Vec<&str>, &str), BadEntry> {
    let (header, body) = text.split_once('\n').ok_or(BadEntry::Corrupt)?;
    let fields: Vec<&str> = header.split(' ').collect();
    match fields.first() {
        Some(&stamp) if stamp == DISK_FORMAT => Ok((fields, body)),
        Some(_) => Err(BadEntry::Stale),
        None => Err(BadEntry::Corrupt),
    }
}

fn parse_response(text: &str, key: u64) -> Result<String, BadEntry> {
    let (fields, body) = split_header(text)?;
    // Header: <stamp> resp <key16hex> <method>
    if fields.len() != 4 || fields[1] != "resp" {
        return Err(BadEntry::Corrupt);
    }
    let stored = u64::from_str_radix(fields[2], 16).map_err(|_| BadEntry::Corrupt)?;
    if stored != key {
        return Err(BadEntry::Corrupt);
    }
    let body = body.strip_suffix('\n').ok_or(BadEntry::Corrupt)?;
    // The body must still be one well-formed JSON document — a torn
    // write that survived the header check dies here.
    Value::parse(body).map_err(|_| BadEntry::Corrupt)?;
    Ok(body.to_string())
}

fn parse_lib_key(text: &str) -> Result<LibKey, BadEntry> {
    let (fields, rest) = split_header(text)?;
    // Header: <stamp> lib <bitcell> <words> <bits> <stack> <fp16hex>
    if fields.len() != 7 || fields[1] != "lib" || !rest.is_empty() {
        return Err(BadEntry::Corrupt);
    }
    let parse_usize = |s: &str| s.parse::<usize>().map_err(|_| BadEntry::Corrupt);
    Ok(LibKey {
        bitcell: fields[2].to_string(),
        words: parse_usize(fields[3])?,
        bits: parse_usize(fields[4])?,
        stack: parse_usize(fields[5])?,
        fingerprint: u64::from_str_radix(fields[6], 16).map_err(|_| BadEntry::Corrupt)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lim_disk_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn response_roundtrip_is_byte_identical() {
        let dir = scratch_dir("resp");
        let cache = DiskCache::open(&dir).unwrap();
        let body = r#"{"entry":"brick_8t_16_10_x4","area_um2":12.5}"#;
        assert_eq!(cache.load_response(42), None, "cold store misses");
        cache.store_response(42, "brick.estimate", body);
        assert_eq!(cache.load_response(42).as_deref(), Some(body));
        // A second handle on the same root (a "restart") sees the entry.
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.load_response(42).as_deref(), Some(body));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_stale_entries_are_counted_and_removed() {
        let dir = scratch_dir("bad");
        let cache = DiskCache::open(&dir).unwrap();
        // Torn body: header survives, JSON does not.
        fs::write(
            dir.join("resp/0000000000000007.json"),
            format!("{DISK_FORMAT} resp 0000000000000007 m\n{{\"trunc\n"),
        )
        .unwrap();
        assert_eq!(cache.load_response(7), None);
        assert!(!dir.join("resp/0000000000000007.json").exists());
        // Foreign version stamp.
        fs::write(
            dir.join("resp/0000000000000008.json"),
            "lim-disk-v0 resp 0000000000000008 m\n{}\n",
        )
        .unwrap();
        assert_eq!(cache.load_response(8), None);
        let s = cache.stats();
        assert_eq!((s.corrupt, s.stale), (1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lib_keys_roundtrip_sorted_and_skip_corrupt() {
        let dir = scratch_dir("lib");
        let cache = DiskCache::open(&dir).unwrap();
        let k1 = LibKey {
            bitcell: "8t".into(),
            words: 16,
            bits: 10,
            stack: 4,
            fingerprint: 0xfeed,
        };
        let k2 = LibKey {
            bitcell: "cam9t".into(),
            words: 32,
            bits: 12,
            stack: 1,
            fingerprint: 0xbeef,
        };
        cache.store_lib_key("brick_8t_16_10_x4", &k1);
        cache.store_lib_key("brick_cam9t_32_12_x1", &k2);
        // Duplicate store is a cheap no-op.
        cache.store_lib_key("brick_8t_16_10_x4", &k1);
        fs::write(dir.join("lib/garbage.key"), "not a cache file").unwrap();
        let keys = cache.lib_keys();
        assert_eq!(
            keys,
            vec![
                ("brick_8t_16_10_x4".to_string(), k1.clone()),
                ("brick_cam9t_32_12_x1".to_string(), k2),
            ]
        );
        assert_eq!(cache.stats().corrupt, 1);
        assert!(!dir.join("lib/garbage.key").exists());
        // Fingerprint mismatch path: drop_stale_lib removes and counts.
        cache.drop_stale_lib("brick_8t_16_10_x4");
        assert_eq!(cache.stats().stale, 1);
        assert_eq!(cache.lib_keys().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_never_leave_tmp_litter_on_success() {
        let dir = scratch_dir("tmp");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_response(1, "m", "{}");
        let tmps: Vec<_> = fs::read_dir(dir.join("tmp")).unwrap().collect();
        assert!(tmps.is_empty(), "tmp file survived a successful publish");
        fs::remove_dir_all(&dir).unwrap();
    }
}
