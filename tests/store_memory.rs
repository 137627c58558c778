//! Memory gate for the training store: what one trained host costs.
//!
//! The store keeps every host it trains, so its size per host sets how
//! far a long run over a large world grows. This binary holds one test and
//! a counting global allocator, so nothing else allocates while it
//! measures. It trains 64,000 hosts named like the uniform world's
//! (`{slug}-u{i}.example`) through `transact`, with that world's cookie
//! vocabulary: 3–4 known names per host, a mark on a third of them. The
//! store's cost is the live heap it frees when dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cp_serve::store::ShardedStore;
use cp_serve::wal::{EventKind, VisitEvent};

/// Live heap bytes, as requested (allocator overhead excluded).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// records the sizes the caller asked for.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const HOSTS: usize = 64_000;
const BYTES_PER_HOST: usize = 300;
/// The uniform world's category slugs, in its order.
const SLUGS: [&str; 15] = [
    "arts",
    "business",
    "computers",
    "games",
    "health",
    "home",
    "kids",
    "news",
    "recreation",
    "reference",
    "regional",
    "science",
    "shopping",
    "society",
    "sports",
];

/// Host `i`'s visit: its trackers, then a session cookie, or a useful
/// cookie that a probe marks on every third host.
fn visit(i: usize) -> VisitEvent {
    let host = format!("{}-u{i}.example", SLUGS[i % SLUGS.len()]);
    let mut observed: Vec<String> = (0..2 + i % 2).map(|k| format!("t{k}")).collect();
    let kind = if i.is_multiple_of(3) {
        observed.push("u_pref".to_string());
        EventKind::Probe {
            group: vec!["u_pref".to_string()],
            marking: true,
            detection_micros: 1_000 + i as u64 % 700,
            duration_ms: 1.5,
        }
    } else {
        observed.push("sid".to_string());
        EventKind::Observe
    };
    VisitEvent { host, observed, kind }
}

#[test]
fn a_trained_host_costs_at_most_300_heap_bytes() {
    let store = ShardedStore::new(16, 40);
    for round in 0..2 {
        for i in 0..HOSTS {
            let mut event = visit(i);
            if round == 1 {
                event.kind = EventKind::Observe;
            }
            let host = event.host.clone();
            store.transact(&host, |_| (Some(event), ()), |_, _, ()| ()).unwrap();
        }
    }
    assert_eq!(store.site_count(), HOSTS);
    let with_store = LIVE.load(Ordering::Relaxed);
    drop(store);
    let per_host = (with_store - LIVE.load(Ordering::Relaxed)) / HOSTS;
    println!("store heap per trained host: {per_host} bytes");
    assert!(per_host <= BYTES_PER_HOST, "{per_host} bytes per host, gate {BYTES_PER_HOST}");
}
