//! Seeded property tests for WAL replay and durable-store recovery.
//!
//! The invariants pinned here are the contract `scripts/crash.sh` leans
//! on: recovery never panics on damaged logs, always restores a *prefix*
//! of the acked event stream (per shard), never invents state, and is
//! idempotent — recovering twice yields the same store.

use std::path::PathBuf;
use std::sync::Arc;

use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_serve::metrics::ServiceMetrics;
use cp_serve::storage::StorageFaults;
use cp_serve::store::ShardedStore;
use cp_serve::wal::{read_log, EventKind, VisitEvent};
use cp_serve::{DurabilityConfig, FsyncPolicy};

const HOSTS: [&str; 5] =
    ["alpha.example", "beta.example", "gamma.example", "delta.example", "epsilon.example"];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cp-wal-replay-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A random but valid event: `tag` folded into the cookie names keeps the
/// streams of different test iterations distinguishable.
fn random_event(rng: &mut StdRng, tag: u64) -> VisitEvent {
    let host = HOSTS[rng.gen_range(0..HOSTS.len())].to_string();
    let observed: Vec<String> =
        (0..rng.gen_range(0..4u64)).map(|_| format!("c{}-{tag}", rng.gen_range(0..6u64))).collect();
    let kind = match rng.gen_range(0..3u64) {
        0 => EventKind::Observe,
        1 => EventKind::Defer,
        _ => EventKind::Probe {
            group: observed.clone(),
            marking: rng.gen_range(0..2u64) == 1,
            detection_micros: rng.gen_range(0..10_000),
            duration_ms: rng.gen_range(0..10_000) as f64 / 1_000.0,
        },
    };
    VisitEvent { host, observed, kind }
}

/// One line per host capturing every recovered field — two stores with
/// equal fingerprints hold identical training state.
fn fingerprint(store: &ShardedStore) -> Vec<String> {
    HOSTS
        .iter()
        .map(|host| {
            store
                .read_entry(host, |e| {
                    let site = e.forcum.site(host).map(|s| {
                        (
                            s.pages_seen,
                            s.stable_streak,
                            s.hidden_requests,
                            s.marks,
                            s.deferrals,
                            s.known_cookies_sorted().join(","),
                        )
                    });
                    format!(
                        "{host} marked={:?} probes={} marking={} deferred={} micros={} \
                         dur={} active={} site={site:?}",
                        e.marked,
                        e.probes,
                        e.marking_probes,
                        e.deferred_probes,
                        e.detection_micros_total,
                        e.duration_ms_total.to_bits(),
                        e.forcum.is_active(host),
                    )
                })
                .unwrap_or_else(|| format!("{host} absent"))
        })
        .collect()
}

fn open(
    config: &DurabilityConfig,
    shards: usize,
) -> (ShardedStore, cp_serve::RecoveryStats, Arc<ServiceMetrics>) {
    let metrics = Arc::new(ServiceMetrics::new());
    let (store, stats) =
        ShardedStore::open(shards, 5, Some(config.clone()), Arc::clone(&metrics)).unwrap();
    (store, stats, metrics)
}

fn journal(store: &ShardedStore, event: &VisitEvent) -> std::io::Result<()> {
    store.transact(&event.host, |_| (Some(event.clone()), ()), |_, _, ()| ())
}

#[test]
fn recovery_equals_direct_application_for_random_streams() {
    for seed in [1u64, 7, 0xDEAD] {
        let dir = tmp_dir(&format!("direct-{seed}"));
        let config = DurabilityConfig::new(dir.clone());
        let (store, _, _) = open(&config, 4);
        let shadow = ShardedStore::new(4, 5);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..150 {
            let event = random_event(&mut rng, seed);
            journal(&store, &event).unwrap();
            shadow.with_entry(&event.host.clone(), |e| e.apply(&event));
        }
        let live = fingerprint(&store);
        assert_eq!(live, fingerprint(&shadow), "seed {seed}: live store diverged from shadow");
        // Crash (drop without checkpoint) and recover: identical state.
        drop(store);
        let (recovered, stats, _) = open(&config, 4);
        assert_eq!(stats.records_replayed, 150);
        assert_eq!(fingerprint(&recovered), live, "seed {seed}: replay diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn arbitrary_truncation_recovers_a_prefix_without_panicking() {
    let seed = 0x72C;
    let dir = tmp_dir("trunc");
    let config = DurabilityConfig::new(dir.clone());
    // Single shard so the whole stream lives in one log and "prefix of
    // the acked stream" is directly checkable.
    let (store, _, _) = open(&config, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acked = Vec::new();
    for _ in 0..60 {
        let event = random_event(&mut rng, seed);
        journal(&store, &event).unwrap();
        acked.push(event);
    }
    drop(store);
    let wal = cp_serve::wal::wal_path(&dir, 0);
    let bytes = std::fs::read(&wal).unwrap();
    // Cut the log at a spread of arbitrary byte offsets (every 7th byte
    // keeps the loop fast while still hitting header, length-field,
    // checksum, and payload positions).
    for cut in (0..=bytes.len()).rev().step_by(7) {
        std::fs::write(&wal, &bytes[..cut]).unwrap();
        let contents = read_log(&wal).unwrap();
        assert!(
            contents.events.len() <= acked.len()
                && contents.events[..] == acked[..contents.events.len()],
            "cut at {cut}: recovered events are not a prefix of the acked stream"
        );
        // The full store-level recovery accepts the damaged log too.
        let (recovered, stats, _) = open(&config, 1);
        assert_eq!(stats.records_replayed, contents.events.len() as u64);
        // Recovery truncated the torn tail: a second recovery replays the
        // same records and reports the tail already clean.
        drop(recovered);
        let (_, again, _) = open(&config, 1);
        assert_eq!(again.records_replayed, stats.records_replayed);
        assert_eq!(again.torn_tail_bytes, 0, "first recovery must discard the torn tail");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_bytes_never_panic_and_never_invent_events() {
    let seed = 0xBADC0DE;
    let dir = tmp_dir("corrupt");
    let config = DurabilityConfig::new(dir.clone());
    let (store, _, _) = open(&config, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acked = Vec::new();
    for _ in 0..40 {
        let event = random_event(&mut rng, seed);
        journal(&store, &event).unwrap();
        acked.push(event);
    }
    drop(store);
    let wal = cp_serve::wal::wal_path(&dir, 0);
    let bytes = std::fs::read(&wal).unwrap();
    for _ in 0..50 {
        let mut damaged = bytes.clone();
        let pos = rng.gen_range(0..damaged.len() as u64) as usize;
        damaged[pos] ^= 1 << rng.gen_range(0..8u64);
        std::fs::write(&wal, &damaged).unwrap();
        let contents = read_log(&wal).unwrap();
        // A flipped bit can only shorten what replays — every surviving
        // event must be one we acked, in order. (A flip inside the
        // header's generation field changes no event.)
        assert!(
            contents.events.len() <= acked.len()
                && contents.events[..] == acked[..contents.events.len()],
            "bit flip at {pos}: recovered events are not a prefix of the acked stream"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storage_faults_recover_exactly_the_acked_transactions() {
    for seed in [3u64, 11, 77] {
        let dir = tmp_dir(&format!("faulted-{seed}"));
        let mut config = DurabilityConfig::new(dir.clone());
        config.fsync = FsyncPolicy::Always; // exercise the fsync fault arm too
        config.faults = Some(StorageFaults::uniform(seed, 0.3));
        let (store, _, metrics) = open(&config, 4);
        let shadow = ShardedStore::new(4, 5);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACC);
        let mut acked = 0u64;
        let mut rejected = 0u64;
        for _ in 0..200 {
            let event = random_event(&mut rng, seed);
            match journal(&store, &event) {
                Ok(()) => {
                    acked += 1;
                    shadow.with_entry(&event.host.clone(), |e| e.apply(&event));
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(metrics.wal_faults.total() > 0, "seed {seed}: 30% fault rate must fire");
        let live = fingerprint(&store);
        assert_eq!(live, fingerprint(&shadow), "seed {seed}: failed appends must not apply");
        drop(store);
        // Recover WITHOUT faults (reads are never faulted anyway): the
        // acked transactions — all of them, only them — come back.
        let clean = DurabilityConfig::new(dir.clone());
        let (recovered, stats, _) = open(&clean, 4);
        assert_eq!(
            stats.records_replayed, acked,
            "seed {seed}: acked={acked} rejected={rejected} — replay must match acks exactly"
        );
        assert_eq!(fingerprint(&recovered), live, "seed {seed}: recovery diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn checkpoint_then_tail_replay_is_seamless() {
    // Snapshot + WAL-tail recovery must equal pure-WAL recovery: fold a
    // checkpoint in at an arbitrary point and compare fingerprints.
    for seed in [5u64, 21] {
        let dir = tmp_dir(&format!("ckpt-{seed}"));
        let config = DurabilityConfig::new(dir.clone());
        let (store, _, _) = open(&config, 4);
        let shadow = ShardedStore::new(4, 5);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..120 {
            if i == 70 {
                store.checkpoint().unwrap();
            }
            let event = random_event(&mut rng, seed);
            journal(&store, &event).unwrap();
            shadow.with_entry(&event.host.clone(), |e| e.apply(&event));
        }
        drop(store);
        let (recovered, stats, _) = open(&config, 4);
        assert_eq!(stats.snapshots_loaded, 4, "every shard snapshotted at the checkpoint");
        assert_eq!(stats.records_replayed, 50, "only the post-checkpoint tail replays");
        assert_eq!(fingerprint(&recovered), fingerprint(&shadow), "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
