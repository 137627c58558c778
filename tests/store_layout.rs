//! What the training store's in-memory layout must never change: the bytes
//! it persists and ships, and that summary reads never wait behind a write.
//!
//! The golden test replays one seeded stream of Observe/Probe/Defer/Expire
//! events over 50 hosts through `transact` on a durable store, then pins
//! every file the store wrote (`snapshot-NN.snap`, `wal-NN.log`) and the
//! `encode_bootstrap` blob byte for byte against `tests/fixtures/store_golden/`.
//! The stream carries long names (past one and two bytes of any length
//! prefix), non-ASCII names and a host whose first contact journaled
//! nothing, so it has no FORCUM record.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_serve::metrics::ServiceMetrics;
use cp_serve::store::ShardedStore;
use cp_serve::wal::{EventKind, VisitEvent};
use cp_serve::{DurabilityConfig, FsyncPolicy};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store_golden");
const SHARDS: usize = 4;
const WINDOW: usize = 3;
const EVENTS: usize = 600;
const BOOTSTRAP_GENERATION: u64 = 7;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cp-store-layout-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The cookie vocabulary: the uniform world's names, a 70-byte name and
/// non-ASCII names.
fn vocabulary() -> Vec<String> {
    let mut names: Vec<String> =
        ["t0", "t1", "t2", "t3", "u_pref", "u_auth", "sid", "pref_main", "ga1", "trk0"]
            .into_iter()
            .map(str::to_string)
            .collect();
    names.push("L".repeat(70));
    names.extend(["café", "日本語クッキー", "🍪", "Zürich_pref"].map(str::to_string));
    names
}

/// A 5,000-byte name, marked on one host partway through the stream.
fn huge_probe() -> VisitEvent {
    let huge = "x".repeat(5_000);
    VisitEvent {
        host: "news-u7.example".to_string(),
        observed: vec![huge.clone(), "sid".to_string()],
        kind: EventKind::Probe {
            group: vec![huge],
            marking: true,
            detection_micros: 1_234,
            duration_ms: 5.5,
        },
    }
}

fn hosts() -> Vec<String> {
    let mut hosts: Vec<String> = (0..49).map(|i| format!("news-u{i}.example")).collect();
    hosts.push("bücher.example".to_string());
    hosts
}

fn pick(rng: &mut StdRng, vocabulary: &[String], at_most: u64) -> Vec<String> {
    (0..rng.gen_range(0..=at_most))
        .map(|_| vocabulary[rng.gen_range(0..vocabulary.len())].clone())
        .collect()
}

fn random_event(rng: &mut StdRng, host: &str, vocabulary: &[String]) -> VisitEvent {
    let observed = pick(rng, vocabulary, 4);
    let kind = match rng.gen_range(0..10u64) {
        0..=3 => EventKind::Observe,
        4..=6 => {
            let mut group = observed.clone();
            group.truncate(rng.gen_range(0..=2u64) as usize);
            EventKind::Probe {
                group,
                marking: rng.gen_bool(0.5),
                detection_micros: rng.gen_range(0..20_000),
                duration_ms: rng.gen_range(0..20_000) as f64 / 7.0,
            }
        }
        7..=8 => EventKind::Defer,
        _ => EventKind::Expire,
    };
    let observed = match kind {
        // Expire names marks to drop, some of them never marked.
        EventKind::Expire => pick(rng, vocabulary, 3),
        _ => observed,
    };
    VisitEvent { host: host.to_string(), observed, kind }
}

/// Runs the golden stream against a fresh durable store in `dir` and
/// returns the store (still open, nothing checkpointed at the end).
fn golden_store(dir: &Path) -> ShardedStore {
    let mut config = DurabilityConfig::new(dir.to_path_buf());
    config.fsync = FsyncPolicy::Never;
    config.snapshot_every = 24;
    let (store, _) =
        ShardedStore::open(SHARDS, WINDOW, Some(config), Arc::new(ServiceMetrics::new())).unwrap();
    let vocabulary = vocabulary();
    let hosts = hosts();
    let mut rng = StdRng::seed_from_u64(0x60_1DE2);
    // First contact that journals nothing: the entry exists, with no
    // FORCUM record, and later checkpoints of its shard carry it.
    store.transact("quiet.example", |_| (None, ()), |_, _, ()| ()).unwrap();
    for i in 0..EVENTS {
        let host = &hosts[rng.gen_range(0..hosts.len())];
        let mut event = random_event(&mut rng, host, &vocabulary);
        if i == EVENTS / 2 {
            event = huge_probe();
        }
        store.transact(&event.host.clone(), |_| (Some(event), ()), |_, _, ()| ()).unwrap();
    }
    store
}

/// Every file the golden stream leaves, plus the bootstrap blob, by name.
fn golden_outputs(dir: &Path, store: &ShardedStore) -> Vec<(String, Vec<u8>)> {
    let mut outputs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    outputs.push(("bootstrap.snap".to_string(), store.encode_bootstrap(BOOTSTRAP_GENERATION)));
    outputs.sort();
    outputs
}

#[test]
fn persisted_and_shipped_bytes_match_the_golden_fixtures() {
    let dir = tmp_dir("golden");
    let store = golden_store(&dir);
    let outputs = golden_outputs(&dir, &store);
    let mut expected: Vec<String> = std::fs::read_dir(FIXTURES)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    expected.sort();
    let names: Vec<&str> = outputs.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, expected, "the store wrote a different set of files");
    assert!(names.iter().any(|n| n.starts_with("snapshot-")), "the stream must checkpoint");
    for (name, bytes) in &outputs {
        let want = std::fs::read(Path::new(FIXTURES).join(name)).unwrap();
        assert!(*bytes == want, "{name}: {} bytes differ from the {}-byte fixture", bytes.len(), {
            want.len()
        });
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two hosts in one shard and one host in another.
fn hosts_for_lock_test(store: &ShardedStore) -> (String, String, String) {
    let all: Vec<String> = (0..64).map(|i| format!("lock-{i}.example")).collect();
    let a = all[0].clone();
    let same = |h: &&String| store.shard_of(h) == store.shard_of(&a);
    let b = all.iter().skip(1).find(same).unwrap().clone();
    let c = all.iter().find(|h| !same(h)).unwrap().clone();
    (a, b, c)
}

fn observe(host: &str) -> VisitEvent {
    VisitEvent { host: host.to_string(), observed: vec!["sid".into()], kind: EventKind::Observe }
}

#[test]
fn summaries_answer_while_a_transact_is_parked_in_its_plan() {
    let store = Arc::new(ShardedStore::new(4, WINDOW));
    let (a, b, c) = hosts_for_lock_test(&store);
    for host in [&a, &b] {
        store.transact(host, |_| (Some(observe(host)), ()), |_, _, ()| ()).unwrap();
    }
    let parked = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let writer = {
        let (store, parked, release, a) =
            (Arc::clone(&store), Arc::clone(&parked), Arc::clone(&release), a.clone());
        std::thread::spawn(move || {
            let plan = |_: &_| {
                parked.wait();
                release.wait();
                (Some(observe(&a)), ())
            };
            store.transact(&a, plan, |_, _, ()| ()).unwrap();
        })
    };
    parked.wait();
    // The writer now sits inside its plan, holding whatever `transact`
    // holds there. Every read below must still answer.
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (store, a, b, c) = (Arc::clone(&store), a.clone(), b.clone(), c.clone());
        std::thread::spawn(move || {
            tx.send(("summary A", store.summary(&a).is_some())).unwrap();
            tx.send(("summary B", store.summary(&b).is_some())).unwrap();
            store.transact(&c, |_| (Some(observe(&c)), ()), |_, _, ()| ()).unwrap();
            tx.send(("transact C", true)).unwrap();
        })
    };
    let answers: Vec<_> = (0..3).map(|_| rx.recv_timeout(Duration::from_secs(5))).collect();
    release.wait();
    writer.join().unwrap();
    reader.join().unwrap();
    let want = [("summary A", true), ("summary B", true), ("transact C", true)];
    for (answer, want) in answers.into_iter().zip(want) {
        assert_eq!(answer, Ok(want), "a read waited behind the parked transact");
    }
    assert_eq!(store.summary(&a).map(|s| s.training_active), Some(true));
}
