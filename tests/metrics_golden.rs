//! Golden test for the `/metrics` exposition: the rendered text of a fresh
//! registry and of a fully populated one is pinned byte for byte against
//! committed fixtures, so family names, label sets, order, the idle
//! histogram rule and the per-peer rule cannot drift unnoticed.
//!
//! The populated registry gives every endpoint, label value, rendered peer
//! slot, gauge and histogram its own nonzero value, so two series swapped
//! or merged change the text. The one exception is `cp_repl_peer_up`,
//! which can only read 0 or 1: every rendered peer is up. A peer slot
//! beyond the rendered ones holds values too, and must not render.

use cookiepicker::serve::metrics::{
    Endpoint, ServiceMetrics, CONN_CLOSE_CAUSES, HIDDEN_FETCH_RESULTS, INCONCLUSIVE_REASONS,
    SITE_DERIVE_RESULTS, WAL_FAULT_KINDS,
};
use cp_runtime::metrics::Histogram;

const FRESH: &str = include_str!("fixtures/metrics_fresh.prom");
const POPULATED: &str = include_str!("fixtures/metrics_populated.prom");

/// Asserts `got == want`, reporting the first differing line.
fn assert_same_text(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first difference at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line counts differ");
    assert_eq!(got, want);
}

/// Observes three spread-out values derived from `v`.
fn observe_spread(h: &Histogram, v: u64) {
    for x in [v, v * 53, v * 4099] {
        h.observe(x);
    }
}

fn populated() -> ServiceMetrics {
    let m = ServiceMetrics::new();
    let mut n = 0u64;
    let mut next = move || {
        n += 1;
        n
    };

    // Endpoint i sees i + 1 requests; classify answers 5xx and other 4xx.
    for (i, endpoint) in Endpoint::ALL.into_iter().enumerate() {
        let status = match endpoint {
            Endpoint::Classify => 500,
            Endpoint::Other => 404,
            _ => 200,
        };
        for j in 0..=i as u64 {
            m.record(endpoint, status, (i as u64 + 1) * 37 * (j + 1) * (j + 1));
        }
    }
    for verdict in ["useful", "noise"] {
        for _ in 0..next() {
            m.decisions.inc(verdict);
        }
    }
    observe_spread(&m.detection, next());
    for label in HIDDEN_FETCH_RESULTS {
        for _ in 0..next() {
            m.hidden_fetch.inc(label);
        }
    }
    for label in INCONCLUSIVE_REASONS {
        for _ in 0..next() {
            m.probe_inconclusive.inc(label);
        }
    }
    m.retry_total.add(next());
    for result in ["hit", "miss"] {
        for _ in 0..next() {
            m.analysis_cache.inc(result);
        }
    }
    for label in SITE_DERIVE_RESULTS {
        for _ in 0..next() {
            m.site_derive.inc(label);
        }
    }
    observe_spread(&m.site_derive_micros, next());
    // A retired gauge's slot: drawn and dropped, so the values after it
    // stay as the fixtures pin them.
    next();
    m.ready_conns.set(next() as i64);
    m.event_loop_wakeups.add(next());
    m.connections_total.add(next());
    m.rejected_total.add(next());
    for label in CONN_CLOSE_CAUSES {
        for _ in 0..next() {
            m.conn_closed.inc(label);
        }
    }
    m.wal_records_total.add(next());
    observe_spread(&m.wal_fsync, next());
    for result in ["ok", "error"] {
        for _ in 0..next() {
            m.snapshot.inc(result);
        }
    }
    for label in WAL_FAULT_KINDS {
        for _ in 0..next() {
            m.wal_faults.inc(label);
        }
    }
    // Three peers in use; slot 7 holds values that must not render.
    m.set_repl_peers(3);
    for peer in 0..3 {
        for _ in 0..next() {
            m.record_repl_ship(peer);
        }
        m.set_repl_peer_up(peer, true);
    }
    m.record_repl_ship(7);
    m.set_repl_peer_up(7, true);
    m.repl_lag_records.set(next() as i64);
    m.repl_resync_total.add(next());
    m.repl_resync_records_total.add(next());
    m.repl_slow_demotions_total.add(next());
    m.repl_bootstrap_hints_total.add(next());
    m.repl_bootstrap_total.add(next());
    m.repl_ack_stall_max_micros.set_max(next() as i64);
    observe_spread(&m.repl_ack_micros, next());
    m.failover_total.add(next());
    m.route_read_failover_total.add(next());
    m.route_resyncs_observed.set(next() as i64);
    m.route_max_ack_stall_micros.set(next() as i64);
    m.crawl_frontier_depth.set(next() as i64);
    m.crawl_visits_total.add(next());
    m.crawl_discovered_total.add(next());
    m.crawl_inconclusive_total.add(next());
    m.crawl_backoff_total.add(next());
    m.crawl_unknown_host_total.add(next());
    m.crawl_expired_marks_total.add(next());
    observe_spread(&m.crawl_revisit_lag, next());
    m.recovery_records_replayed.set(next() as i64);
    m.recovery_torn_tail_bytes.set(next() as i64);
    m
}

#[test]
fn fresh_registry_renders_the_pinned_exposition() {
    assert_same_text(&ServiceMetrics::new().render_prometheus(), FRESH);
}

#[test]
fn populated_registry_renders_the_pinned_exposition() {
    assert_same_text(&populated().render_prometheus(), POPULATED);
}
