//! Persistent compile cache: a content-addressed on-disk store of
//! rendered replies that lets a restarted daemon come up warm.
//!
//! Each entry is a **response** (`resp/<key:016x>.json`): the canonical
//! response bytes for one memoizable request, keyed by the same FNV-1a
//! canonical-params key the in-memory [`crate::ResponseCache`] uses.
//! Probed lazily on a memo miss, so only keys that recur after a
//! restart pay the disk read; a hit is pinned byte-identical to the
//! cold compile by construction (the stored bytes *are* the rendered
//! response). The brick library is not persisted: a compile is a pure
//! function of `(tech, spec)`, so a restarted daemon compiles a brick
//! the first time a cold request needs one, as a fresh daemon does.
//! [`DiskCache::store_lib_key`] writes a `lib/<entry>.key` line for
//! callers outside the service; the service neither writes nor reads
//! `lib/`.
//!
//! Every file starts with a `lim-disk-v4` stamp. Writes go to
//! `tmp/<name>.<pid>.<seq>` and are published with `rename(2)`, so a
//! crash mid-write leaves at worst an orphan tmp file, never a torn
//! entry. Unreadable entries are counted (`corrupt`), removed
//! best-effort, and treated as misses; entries with a wrong version
//! stamp are counted (`stale`) and likewise dropped, so each entry an
//! older format wrote is recomputed on its first miss. The stamp also
//! stands for the bytes a reply holds: a change that moves any reply
//! byte bumps it, so a daemon restarted on an old directory serves
//! nothing the old build computed. v3 and v4 have v2's layout; v3 was
//! bumped when the golden solver's elimination order moved the last
//! digits of `golden.compare` replies, and v4 when its panel step began
//! rounding each recurrence once, as a fused multiply-add.
//!
//! # Checking a response without parsing it
//!
//! A response file is
//!
//! ```text
//! lim-disk-v4 resp <key:016x> <method> <body length> <digest:016x>
//! <body>
//! ```
//!
//! with a newline after the body. A hit checks the stamp, the key, the
//! byte length and the [`digest`] (of the body, xored with the FNV-1a of
//! the method so the header's one free-form field is covered too), then
//! reads the body straight into the buffer it returns: one file read,
//! no JSON parse, no copy. The length catches every torn or truncated
//! body. Every step of the digest is a bijection of the word it
//! consumes, so any single changed byte changes it, including a byte
//! inside a JSON string that a parse would accept. The digest is not
//! cryptographic: the tier guards against torn writes and bit rot, not
//! against someone who can write to the cache directory.

use crate::protocol::fnv1a;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamp on every cache file; bump on any layout change and on
/// any change to the bytes of a reply.
pub const DISK_FORMAT: &str = "lim-disk-v4";

/// Longest response header a load reads before giving up on finding
/// its newline; [`DiskCache::store_response`] never writes a longer
/// one.
const HEADER_MAX: usize = 256;

/// A response entry waiting to be published. Queuing one is cheap and
/// happens while the request is answered; [`DiskCache::write`] renders
/// it (its digest included) and pays for the file write, `fsync` and
/// rename once the reply is on its way. The body is shared with the
/// memo.
#[derive(Debug)]
pub(crate) struct PendingWrite {
    key: u64,
    method: &'static str,
    body: Arc<String>,
}

impl PendingWrite {
    /// [`DiskCache::store_response`], queued: nothing is copied or
    /// digested until [`DiskCache::write`].
    pub(crate) fn new(key: u64, method: &'static str, body: &Arc<String>) -> PendingWrite {
        PendingWrite {
            key,
            method,
            body: Arc::clone(body),
        }
    }
}

/// A library key line's fields: enough to deterministically recompile
/// the brick, plus a fingerprint of its rendered estimate.
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

    /// Publishes the concatenated `parts` at `dest` atomically: write
    /// to a unique tmp file, flush, rename into place.
    fn publish(&self, dest: &Path, parts: &[&[u8]]) -> io::Result<()> {
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
            for part in parts {
                f.write_all(part)?;
            }
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
        match read_response(&path, key) {
            Ok(Ok(body)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            Ok(Err(kind)) => {
                self.count_bad(kind);
                let _ = fs::remove_file(&path);
                None
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the canonical response `body` for `key`. `method` is
    /// recorded in the header for humans; the key alone addresses the
    /// entry. Errors are swallowed: the disk layer is an accelerator,
    /// never a correctness dependency.
    pub fn store_response(&self, key: u64, method: &str, body: &str) {
        debug_assert!(!method.is_empty() && !method.contains(char::is_whitespace));
        let header = format!(
            "{DISK_FORMAT} resp {key:016x} {method} {} {:016x}\n",
            body.len(),
            entry_digest(method, body.as_bytes())
        );
        debug_assert!(header.len() <= HEADER_MAX, "header too long: {header}");
        let parts = [header.as_bytes(), body.as_bytes(), b"\n"];
        let _ = self.publish(&self.resp_path(key), &parts);
    }

    /// Records a compiled library entry under `entry_name` unless one
    /// is already present (entries are immutable: same name ⇒ same
    /// content, so first write wins and repeats skip the I/O).
    pub fn store_lib_key(&self, entry_name: &str, key: &LibKey) {
        let dest = self.root.join("lib").join(format!("{entry_name}.key"));
        if !dest.exists() {
            let line = format!(
                "{DISK_FORMAT} lib {} {} {} {} {:016x}\n",
                key.bitcell, key.words, key.bits, key.stack, key.fingerprint
            );
            let _ = self.publish(&dest, &[line.as_bytes()]);
        }
    }

    /// Publishes a queued response; errors are swallowed like every
    /// other store.
    pub(crate) fn write(&self, entry: PendingWrite) {
        self.store_response(entry.key, entry.method, &entry.body);
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

const LANE_1: u64 = 0x9e37_79b1_85eb_ca87;
const LANE_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const LANE_3: u64 = 0x1656_67b1_9e37_79f9;

/// One multiply–rotate round: a bijection of `word` for a fixed `acc`,
/// and of `acc` for a fixed `word`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(LANE_2))
        .rotate_left(31)
        .wrapping_mul(LANE_1)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// The 64-bit digest a response header records (since `lim-disk-v2`).
///
/// Four independent multiply–rotate lanes take 32-byte blocks as
/// little-endian `u64` words (so a cache directory reads the same on
/// any host), the tail goes in a word and then a byte at a time, the
/// length is folded in, and a final xor-shift–multiply avalanche mixes
/// the bits. Every step is a bijection of the value it updates, so two
/// inputs of one length that differ in a single word always digest
/// differently. The lanes keep the multiplier busy instead of waiting
/// on one dependency chain, so megabyte bodies digest about twenty
/// times faster than byte-at-a-time FNV-1a.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut lanes = [
        LANE_1.wrapping_add(LANE_2),
        LANE_2,
        0,
        LANE_1.wrapping_neg(),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, le_word(word));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, le_word(word)))
            .rotate_left(27)
            .wrapping_mul(LANE_1)
            .wrapping_add(LANE_3);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(LANE_3))
            .rotate_left(11)
            .wrapping_mul(LANE_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(LANE_2);
    h ^= h >> 29;
    h = h.wrapping_mul(LANE_3);
    h ^ (h >> 32)
}

/// The header digest of a response: the body's [`digest`] xored with
/// the FNV-1a of the method (which is injective on one changed byte at
/// a fixed length), so no single byte of the file goes unchecked.
fn entry_digest(method: &str, body: &[u8]) -> u64 {
    digest(body) ^ fnv1a(method.as_bytes())
}

/// A `u64` written as exactly 16 lowercase hex digits, the only form
/// the writer produces, so a changed digit never parses to the same
/// value.
fn hex16(field: &str) -> Option<u64> {
    let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    if field.len() != 16 || !field.bytes().all(lower_hex) {
        return None;
    }
    u64::from_str_radix(field, 16).ok()
}

/// A `usize` written in canonical decimal: digits only, no leading
/// zero.
fn decimal(field: &str) -> Option<usize> {
    if !field.bytes().all(|b| b.is_ascii_digit()) || (field.starts_with('0') && field != "0") {
        return None;
    }
    field.parse().ok()
}

/// What a response header promises about its body.
struct RespHeader<'a> {
    method: &'a str,
    len: usize,
    digest: u64,
}

/// Parses `<stamp> resp <key16hex> <method> <len> <digest16hex>`: a
/// foreign stamp is stale, anything else off is corrupt.
fn parse_resp_header(header: &[u8], key: u64) -> Result<RespHeader<'_>, BadEntry> {
    let header = std::str::from_utf8(header).map_err(|_| BadEntry::Corrupt)?;
    let fields = stamped_fields(header)?;
    let &[_, "resp", stored, method, len, digest] = fields.as_slice() else {
        return Err(BadEntry::Corrupt);
    };
    match (hex16(stored), decimal(len), hex16(digest)) {
        (Some(stored), Some(len), Some(digest)) if stored == key && !method.is_empty() => {
            Ok(RespHeader {
                method,
                len,
                digest,
            })
        }
        _ => Err(BadEntry::Corrupt),
    }
}

/// Reads and checks the response file at `path`. The outer error is an
/// I/O failure (absent or unreadable: a miss); the inner one a rejected
/// entry. The header is read into a stack buffer and the body straight
/// into the returned string's buffer, sized from the header.
fn read_response(path: &Path, key: u64) -> io::Result<Result<String, BadEntry>> {
    let mut file = fs::File::open(path)?;
    let size = file.metadata()?.len();
    let mut head = [0u8; HEADER_MAX];
    let got = size.min(HEADER_MAX as u64) as usize;
    file.read_exact(&mut head[..got])?;
    let Some(nl) = head[..got].iter().position(|&b| b == b'\n') else {
        return Ok(Err(BadEntry::Corrupt));
    };
    let header = match parse_resp_header(&head[..nl], key) {
        Ok(header) => header,
        Err(kind) => return Ok(Err(kind)),
    };
    // Header, newline, body, newline: a torn, truncated or padded file
    // fails here, before its body is read.
    let body_start = nl + 1;
    if Some(size) != header.len.checked_add(body_start + 1).map(|n| n as u64) {
        return Ok(Err(BadEntry::Corrupt));
    }
    let mut body = Vec::with_capacity(header.len + 1);
    body.extend_from_slice(&head[body_start..got]);
    let rest = (header.len + 1 - body.len()) as u64;
    file.take(rest).read_to_end(&mut body)?;
    if body.len() != header.len + 1 || body.pop() != Some(b'\n') {
        return Ok(Err(BadEntry::Corrupt));
    }
    if entry_digest(header.method, &body) != header.digest {
        return Ok(Err(BadEntry::Corrupt));
    }
    Ok(String::from_utf8(body).map_err(|_| BadEntry::Corrupt))
}

/// The space-separated fields of a header line, the first of which
/// must be this format's stamp: a foreign stamp is stale.
fn stamped_fields(header: &str) -> Result<Vec<&str>, BadEntry> {
    let fields: Vec<&str> = header.split(' ').collect();
    if fields[0] == DISK_FORMAT {
        Ok(fields)
    } else {
        Err(BadEntry::Stale)
    }
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

    /// A current-format (v2 layout) response file for `key` whose
    /// header promises `promised` but which carries `body`.
    fn v2_entry(key: u64, promised: &str, body: &str) -> String {
        format!(
            "{DISK_FORMAT} resp {key:016x} m {} {:016x}\n{body}\n",
            promised.len(),
            entry_digest("m", promised.as_bytes())
        )
    }

    #[test]
    fn body_one_byte_short_or_long_is_corrupt_and_removed() {
        let dir = scratch_dir("len");
        let cache = DiskCache::open(&dir).unwrap();
        let body = r#"{"module":"smart_mem","gates":7318}"#;
        let path = dir.join("resp/0000000000000009.json");
        // The well-formed entry loads; the same header over a body one
        // byte short or one byte long does not.
        fs::write(&path, v2_entry(9, body, body)).unwrap();
        assert_eq!(cache.load_response(9).as_deref(), Some(body));
        let short = &body[..body.len() - 1];
        let long = format!("{body} ");
        for (n, torn) in [short, long.as_str()].into_iter().enumerate() {
            fs::write(&path, v2_entry(9, body, torn)).unwrap();
            assert_eq!(cache.load_response(9), None, "{torn}");
            assert_eq!(cache.stats().corrupt, n as u64 + 1);
            assert!(!path.exists(), "corrupt entry left behind");
        }
        assert_eq!(cache.stats().hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_inside_a_json_string_is_corrupt() {
        let dir = scratch_dir("flip");
        let cache = DiskCache::open(&dir).unwrap();
        let body = r#"{"module":"smart_mem","entries":["brick_8t_64_16_x16"]}"#;
        cache.store_response(11, "rtl.infer", body);
        let path = dir.join("resp/000000000000000b.json");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1 - body.len() + body.find("smart").unwrap();
        bytes[at] = b't';
        let text = String::from_utf8(bytes).unwrap();
        let (_, flipped) = text.split_once('\n').unwrap();
        // Still one well-formed JSON document: a parse check (the v1
        // tier's) would have served it.
        assert!(lim_obs::json::Value::parse(flipped.trim_end()).is_ok());
        fs::write(&path, &text).unwrap();
        assert_eq!(cache.load_response(11), None);
        assert_eq!(cache.stats().corrupt, 1);
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_entries_are_stale_and_removed() {
        // A v1 entry, and v2 and v3 entries well formed in every other
        // field (v3 and v4 kept v2's layout but not its reply bytes).
        let dir = scratch_dir("v1");
        let cache = DiskCache::open(&dir).unwrap();
        let path = dir.join("resp/000000000000000c.json");
        fs::write(
            &path,
            "lim-disk-v1 resp 000000000000000c brick.estimate\n{\"area_um2\":12.5}\n",
        )
        .unwrap();
        assert_eq!(cache.load_response(12), None);
        let s = cache.stats();
        assert_eq!((s.stale, s.corrupt, s.hits), (1, 0, 0));
        assert!(!path.exists(), "stale entry left behind");
        let path = dir.join("resp/000000000000000d.json");
        let v4 = v2_entry(13, "{}", "{}");
        assert!(v4.starts_with("lim-disk-v4 "));
        for (old, stale) in [("lim-disk-v2 ", 2), ("lim-disk-v3 ", 3)] {
            fs::write(&path, v4.replacen("lim-disk-v4 ", old, 1)).unwrap();
            assert_eq!(cache.load_response(13), None, "{old}");
            let s = cache.stats();
            assert_eq!((s.stale, s.corrupt, s.hits), (stale, 0, 0), "{old}");
            assert!(!path.exists(), "stale {old}entry left behind");
        }
        fs::write(&path, &v4).unwrap();
        assert_eq!(cache.load_response(13).as_deref(), Some("{}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_fields_must_be_canonical() {
        let dir = scratch_dir("canon");
        let cache = DiskCache::open(&dir).unwrap();
        let path = dir.join("resp/00000000000000ab.json");
        let good = v2_entry(0xab, "{}", "{}");
        // Each variant parses to the same numbers a lenient reader
        // would accept: upper-case hex, a signed or zero-padded length.
        for bad in [
            good.replace("00000000000000ab", "00000000000000AB"),
            good.replace(" 2 ", " +2 "),
            good.replace(" 2 ", " 02 "),
        ] {
            assert_ne!(bad, good);
            fs::write(&path, &bad).unwrap();
            assert_eq!(cache.load_response(0xab), None, "{bad}");
        }
        assert_eq!(cache.stats().corrupt, 3);
        fs::write(&path, &good).unwrap();
        assert_eq!(cache.load_response(0xab).as_deref(), Some("{}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_is_pinned_and_sees_every_single_byte_change() {
        // The digest is part of the on-disk format: a change to it
        // needs a new DISK_FORMAT stamp.
        assert_eq!(digest(b""), PINNED[0]);
        assert_eq!(digest(b"lim-disk-v2"), PINNED[1]);
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(digest(&body), PINNED[2]);
        // Every length class (blocks, tail words, tail bytes) and every
        // position: one flipped bit, or one replaced byte, moves the
        // digest.
        for len in [1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100] {
            let base = &body[..len];
            let d = digest(base);
            for at in 0..len {
                for delta in [0x01, 0x80, 0xff] {
                    let mut changed = base.to_vec();
                    changed[at] ^= delta;
                    assert_ne!(digest(&changed), d, "len {len}, byte {at} ^ {delta:#x}");
                }
            }
        }
    }

    const PINNED: [u64; 3] = [
        0x9090_306c_6e91_ed59,
        0xe462_31b8_ef43_44bc,
        0x5dc7_ecc9_9ec2_be2e,
    ];

    #[test]
    fn store_lib_key_first_write_wins() {
        let dir = scratch_dir("lib");
        let cache = DiskCache::open(&dir).unwrap();
        let key = LibKey {
            bitcell: "8t".into(),
            words: 16,
            bits: 10,
            stack: 4,
            fingerprint: 0xfeed,
        };
        cache.store_lib_key("brick_8t_16_10_x4", &key);
        // A repeat under the same name is a no-op, whatever it carries.
        let other = LibKey {
            fingerprint: 0xbeef,
            ..key.clone()
        };
        cache.store_lib_key("brick_8t_16_10_x4", &other);
        assert_eq!(
            fs::read_to_string(dir.join("lib/brick_8t_16_10_x4.key")).unwrap(),
            format!("{DISK_FORMAT} lib 8t 16 10 4 000000000000feed\n")
        );
        assert_eq!(cache.stats().writes, 1);
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
