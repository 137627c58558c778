//! Per-shard snapshots: a checkpoint of one shard's entries.
//!
//! A snapshot folds the shard's whole state into a single file so the
//! WAL can be truncated — the durability ladder's compaction rung.
//! Writes are crash-safe by construction: encode to a buffer, write to
//! `snapshot-NN.tmp` (through the same fault-aware [`StorageFile`](crate::storage::StorageFile) layer
//! as the WAL, with the same truncate-and-retry discipline), sync,
//! atomically rename over `snapshot-NN.snap`, then sync the directory.
//! A crash at any point leaves either the old snapshot or the new one —
//! never a half-written hybrid — and the trailing checksum catches any
//! damage that slips through.
//!
//! Format: `CPSNAP01` magic, `u64` WAL generation + `u64` covered record
//! count (this snapshot already contains the first `covered` records of
//! that log generation — recovery skips them), `u32` entry count, entries
//! sorted by host, trailing `u64` FNV-1a checksum over everything before
//! it.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cookiepicker_core::{ForcumState, SiteTraining};

use crate::metrics::ServiceMetrics;
use crate::storage::{open_storage, StorageFaults};
use crate::store::SiteEntry;
use crate::wal::codec::{fnv1a, put_str, put_strs, put_u32, put_u64, Cursor};

const MAGIC: &[u8; 8] = b"CPSNAP01";
const MAX_ATTEMPTS: usize = 8;

/// The snapshot file for shard `shard` under `dir`.
pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("snapshot-{shard:02}.snap"))
}

fn tmp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("snapshot-{shard:02}.tmp"))
}

/// What a snapshot file holds: the entries plus which WAL prefix they
/// already contain.
#[derive(Debug)]
pub struct SnapshotContents {
    /// The restored shard entries.
    pub entries: HashMap<String, SiteEntry>,
    /// The WAL generation the snapshot was cut against.
    pub wal_generation: u64,
    /// How many records of that generation are folded in.
    pub wal_covered: u64,
}

/// Encodes entries as a snapshot blob — also the wire format of
/// `GET /v1/repl/snapshot` (the bootstrap transfer reuses the exact
/// on-disk image: magic, generation, covered count, sorted entries,
/// trailing checksum).
pub(crate) fn encode_snapshot_bytes<'a, H, E>(
    entries: impl IntoIterator<Item = (&'a H, &'a E)>,
    wal_generation: u64,
    wal_covered: u64,
) -> Vec<u8>
where
    H: AsRef<str> + ?Sized + 'a,
    E: Borrow<SiteEntry> + 'a,
{
    encode(entries, wal_generation, wal_covered)
}

/// Decodes a snapshot blob (file bytes or a bootstrap transfer body).
pub(crate) fn decode_snapshot_bytes(
    bytes: &[u8],
    stability_window: usize,
) -> Option<SnapshotContents> {
    decode(bytes, stability_window)
}

/// Encodes host → entry pairs, given in any order, from whatever map
/// holds them (a shard's boxed entries, a decoded snapshot's).
fn encode<'a, H, E>(
    entries: impl IntoIterator<Item = (&'a H, &'a E)>,
    wal_generation: u64,
    wal_covered: u64,
) -> Vec<u8>
where
    H: AsRef<str> + ?Sized + 'a,
    E: Borrow<SiteEntry> + 'a,
{
    let mut entries: Vec<(&str, &SiteEntry)> =
        entries.into_iter().map(|(host, entry)| (host.as_ref(), entry.borrow())).collect();
    entries.sort_unstable_by_key(|&(host, _)| host);
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, wal_generation);
    put_u64(&mut out, wal_covered);
    put_u32(&mut out, entries.len() as u32);
    for (host, entry) in entries {
        put_str(&mut out, host);
        put_strs(&mut out, &entry.marked.iter().collect::<Vec<_>>());
        put_u64(&mut out, entry.probes as u64);
        put_u64(&mut out, entry.marking_probes as u64);
        put_u64(&mut out, entry.deferred_probes as u64);
        put_u64(&mut out, entry.detection_micros_total);
        put_u64(&mut out, entry.duration_ms_total.to_bits());
        match entry.forcum.site(host) {
            None => out.push(0),
            Some(site) => {
                out.push(1);
                put_u64(&mut out, site.pages_seen as u64);
                put_u64(&mut out, site.stable_streak as u64);
                out.push(u8::from(site.active));
                put_strs(&mut out, &site.known_cookies_sorted());
                put_u64(&mut out, site.hidden_requests as u64);
                put_u64(&mut out, site.marks as u64);
                put_u64(&mut out, site.deferrals as u64);
            }
        }
    }
    let sum = fnv1a(&out);
    put_u64(&mut out, sum);
    out
}

fn decode(bytes: &[u8], stability_window: usize) -> Option<SnapshotContents> {
    let body = bytes.get(..bytes.len().checked_sub(8)?)?;
    let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte slice"));
    if fnv1a(body) != sum || body.get(..8)? != MAGIC {
        return None;
    }
    let mut cur = Cursor::new(&body[8..]);
    let wal_generation = cur.u64()?;
    let wal_covered = cur.u64()?;
    let count = cur.u32()?;
    let mut entries = HashMap::with_capacity(count as usize);
    for _ in 0..count {
        let host = cur.str()?;
        let marked = cur.strs()?;
        let probes = cur.u64()? as usize;
        let marking_probes = cur.u64()? as usize;
        let deferred_probes = cur.u64()? as usize;
        let detection_micros_total = cur.u64()?;
        let duration_ms_total = f64::from_bits(cur.u64()?);
        let mut forcum = ForcumState::new(stability_window);
        match cur.u8()? {
            0 => {}
            1 => {
                let pages_seen = cur.u64()? as usize;
                let stable_streak = cur.u64()? as usize;
                let active = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let known = cur.strs()?;
                let hidden_requests = cur.u64()? as usize;
                let marks = cur.u64()? as usize;
                let deferrals = cur.u64()? as usize;
                forcum.insert_site(
                    &host,
                    SiteTraining::from_parts(
                        pages_seen,
                        stable_streak,
                        active,
                        known,
                        hidden_requests,
                        marks,
                        deferrals,
                    ),
                );
            }
            _ => return None,
        }
        let entry = SiteEntry {
            forcum,
            marked: marked.into_iter().collect(),
            probes,
            marking_probes,
            deferred_probes,
            detection_micros_total,
            duration_ms_total,
        };
        entries.insert(host, entry);
    }
    cur.done().then_some(SnapshotContents { entries, wal_generation, wal_covered })
}

/// Writes shard `shard`'s entries as an atomic snapshot covering the
/// first `wal_covered` records of WAL generation `wal_generation`.
#[allow(clippy::too_many_arguments)] // one checkpoint's worth of context
pub fn write_snapshot<'a, H, E>(
    dir: &Path,
    shard: usize,
    entries: impl IntoIterator<Item = (&'a H, &'a E)>,
    wal_generation: u64,
    wal_covered: u64,
    faults: Option<StorageFaults>,
    tag: u64,
    metrics: &Arc<ServiceMetrics>,
) -> std::io::Result<()>
where
    H: AsRef<str> + ?Sized + 'a,
    E: Borrow<SiteEntry> + 'a,
{
    let encoded = encode(entries, wal_generation, wal_covered);
    let tmp = tmp_path(dir, shard);
    let mut last_err = None;
    let mut written = false;
    {
        let mut file = open_storage(&tmp, 0, faults, tag, metrics)?;
        for _ in 0..MAX_ATTEMPTS {
            // Any failure rewinds to an empty tmp file and rewrites the
            // whole image — same discipline as a WAL append.
            let attempt = (|| -> std::io::Result<()> {
                file.truncate_to(0)?;
                let mut off = 0;
                while off < encoded.len() {
                    match file.write(&encoded[off..])? {
                        0 => return Err(std::io::Error::other("snapshot write returned 0")),
                        n => off += n,
                    }
                }
                file.sync()
            })();
            match attempt {
                Ok(()) => {
                    written = true;
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    if !written {
        std::fs::remove_file(&tmp).ok();
        return Err(last_err.expect("loop ran at least once"));
    }
    std::fs::rename(&tmp, snapshot_path(dir, shard))?;
    // The rename itself must reach the disk before the WAL is truncated.
    std::fs::File::open(dir)?.sync_all()
}

/// Loads shard `shard`'s snapshot, if one exists.
///
/// A malformed or checksum-failing snapshot is an error — unlike a torn
/// WAL tail it cannot be the product of a clean kill (writes are atomic
/// via rename), so recovery fails loudly instead of silently dropping
/// trained state.
pub fn load_snapshot(
    dir: &Path,
    shard: usize,
    stability_window: usize,
) -> std::io::Result<Option<SnapshotContents>> {
    let path = snapshot_path(dir, shard);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    decode(&bytes, stability_window).map(Some).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("corrupt snapshot {}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageFaults;
    use cookiepicker_core::NameSet;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-snap-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries(window: usize) -> HashMap<String, SiteEntry> {
        let mut entries = HashMap::new();
        let mut forcum = ForcumState::new(window);
        forcum.observe("a.example", ["sid".to_string(), "theme".to_string()], 1, true);
        forcum.observe("a.example", ["sid".to_string()], 0, true);
        entries.insert(
            "a.example".to_string(),
            SiteEntry {
                forcum,
                marked: NameSet::from_iter(["theme".to_string()]),
                probes: 3,
                marking_probes: 1,
                deferred_probes: 1,
                detection_micros_total: 4200,
                duration_ms_total: 4.2,
            },
        );
        let mut dormant = ForcumState::new(window);
        dormant.observe("b.example", ["tr".to_string()], 0, true);
        dormant.observe("b.example", ["tr".to_string()], 0, true);
        entries.insert(
            "b.example".to_string(),
            SiteEntry {
                forcum: dormant,
                marked: NameSet::default(),
                probes: 2,
                marking_probes: 0,
                deferred_probes: 0,
                detection_micros_total: 100,
                duration_ms_total: 0.1,
            },
        );
        entries
    }

    fn assert_same(a: &HashMap<String, SiteEntry>, b: &HashMap<String, SiteEntry>) {
        assert_eq!(a.len(), b.len());
        for (host, ea) in a {
            let eb = &b[host];
            assert_eq!(ea.marked, eb.marked, "{host}");
            assert_eq!(ea.probes, eb.probes);
            assert_eq!(ea.marking_probes, eb.marking_probes);
            assert_eq!(ea.deferred_probes, eb.deferred_probes);
            assert_eq!(ea.detection_micros_total, eb.detection_micros_total);
            assert_eq!(ea.duration_ms_total, eb.duration_ms_total);
            assert_eq!(ea.forcum.is_active(host), eb.forcum.is_active(host));
            match (ea.forcum.site(host), eb.forcum.site(host)) {
                (None, None) => {}
                (Some(sa), Some(sb)) => {
                    assert_eq!(sa.pages_seen, sb.pages_seen);
                    assert_eq!(sa.stable_streak, sb.stable_streak);
                    assert_eq!(sa.active, sb.active);
                    assert_eq!(sa.known_cookies_sorted(), sb.known_cookies_sorted());
                    assert_eq!(sa.hidden_requests, sb.hidden_requests);
                    assert_eq!(sa.marks, sb.marks);
                    assert_eq!(sa.deferrals, sb.deferrals);
                }
                (sa, sb) => panic!("{host}: site presence mismatch {sa:?} vs {sb:?}"),
            }
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("round");
        let metrics = Arc::new(ServiceMetrics::new());
        let entries = sample_entries(5);
        write_snapshot(&dir, 0, &entries, 3, 17, None, 0, &metrics).unwrap();
        let loaded = load_snapshot(&dir, 0, 5).unwrap().expect("snapshot exists");
        assert_same(&entries, &loaded.entries);
        assert_eq!(loaded.wal_generation, 3);
        assert_eq!(loaded.wal_covered, 17);
        // Absent shard → None; empty shard round-trips too.
        assert!(load_snapshot(&dir, 7, 5).unwrap().is_none());
        write_snapshot(&dir, 1, &HashMap::<String, SiteEntry>::new(), 1, 0, None, 0, &metrics)
            .unwrap();
        assert_eq!(load_snapshot(&dir, 1, 5).unwrap().unwrap().entries.len(), 0);
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let entries = sample_entries(5);
        assert_eq!(encode(&entries, 1, 2), encode(&sample_entries(5), 1, 2));
    }

    #[test]
    fn corrupt_snapshot_fails_loudly() {
        let dir = tmp_dir("corrupt");
        let metrics = Arc::new(ServiceMetrics::new());
        write_snapshot(&dir, 0, &sample_entries(5), 1, 2, None, 0, &metrics).unwrap();
        let path = snapshot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&dir, 0, 5).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A truncated snapshot (torn before the rename barrier could have
        // prevented it) is equally rejected.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(load_snapshot(&dir, 0, 5).is_err());
    }

    #[test]
    fn faulted_writes_still_produce_a_valid_snapshot() {
        let dir = tmp_dir("faulted");
        let metrics = Arc::new(ServiceMetrics::new());
        let entries = sample_entries(5);
        let faults = StorageFaults::uniform(0x5A17, 0.4);
        write_snapshot(&dir, 0, &entries, 1, 2, Some(faults), 9, &metrics).unwrap();
        let loaded = load_snapshot(&dir, 0, 5).unwrap().expect("snapshot exists");
        assert_same(&entries, &loaded.entries);
    }

    #[test]
    fn rename_replaces_the_old_snapshot_atomically() {
        let dir = tmp_dir("replace");
        let metrics = Arc::new(ServiceMetrics::new());
        let mut entries = sample_entries(5);
        write_snapshot(&dir, 0, &entries, 1, 4, None, 0, &metrics).unwrap();
        entries.get_mut("a.example").unwrap().probes = 99;
        write_snapshot(&dir, 0, &entries, 1, 9, None, 0, &metrics).unwrap();
        let loaded = load_snapshot(&dir, 0, 5).unwrap().unwrap();
        assert_eq!(loaded.entries["a.example"].probes, 99);
        assert_eq!(loaded.wal_covered, 9);
        assert!(!tmp_path(&dir, 0).exists(), "tmp file consumed by rename");
    }
}
