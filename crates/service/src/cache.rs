//! The page-analysis cache: compiled [`PageAnalysis`] values keyed by a
//! keyed hash of the page body bytes.
//!
//! Both `/v1/classify` bodies and `EmbeddedWorld` renders repeat heavily —
//! the world is deterministic, so the same `(site, path, cookies)` triple
//! renders the same bytes forever, and classify clients tend to replay the
//! same page pairs. Caching the *compiled* analysis (not the decision) is
//! what makes reuse safe: a `PageAnalysis` depends only on the body and
//! the `compare_from_body` flag, never on the opposing page or the
//! thresholds, so any comparison may use a cached entry and still produce
//! a bit-identical decision. A miss compiles straight from the bytes
//! ([`PageAnalysis::from_html`]); no `Document` is built.
//!
//! Keys hash the root flag and the body with std's [`RandomState`]
//! (SipHash-1-3 under keys drawn at random per cache). Client classify
//! bodies share the cache with world renders, so the key must not be
//! predictable: with an unkeyed hash a client could craft a body that
//! collides with a rendered page and have that page's visits decided on
//! the client's analysis.
//!
//! Eviction is exact least-recently-used over a fixed capacity
//! ([`Lru`]: O(1) per hit and per insert). The mutex is held for one map
//! probe; the expensive parse + extract runs *outside* the lock, so
//! concurrent misses on distinct bodies do not serialize — two racing
//! misses on the *same* body both build, and the loser's identical value
//! is dropped.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use cookiepicker_core::PageAnalysis;
use cp_runtime::lru::Lru;
use cp_runtime::sync::Mutex;

/// A bounded LRU cache of compiled page analyses. See the module docs.
pub struct AnalysisCache {
    keys: RandomState,
    entries: Mutex<Lru<u64, Arc<PageAnalysis>>>,
}

impl AnalysisCache {
    /// Creates a cache holding at most `capacity` analyses (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AnalysisCache { keys: RandomState::new(), entries: Mutex::new(Lru::new(capacity)) }
    }

    /// Number of cached analyses.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled analysis for `html`, building and inserting it
    /// on miss. The second element reports whether this was a hit.
    pub fn get_or_analyze(&self, html: &str, compare_from_body: bool) -> (Arc<PageAnalysis>, bool) {
        let mut hasher = self.keys.build_hasher();
        hasher.write_u8(u8::from(compare_from_body));
        hasher.write(html.as_bytes());
        let key = hasher.finish();
        if let Some(hit) = self.entries.lock().get(&key) {
            return (Arc::clone(hit), true);
        }
        // Miss: compile outside the lock so other threads proceed.
        let analysis = Arc::new(PageAnalysis::from_html(html, compare_from_body));
        (Arc::clone(self.entries.lock().get_or_insert(key, analysis)), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_A: &str = "<body><div><p>page alpha</p></div></body>";
    const PAGE_B: &str = "<body><div><p>page bravo</p></div></body>";
    const PAGE_C: &str = "<body><div><p>page charlie</p></div></body>";

    #[test]
    fn hit_returns_the_same_analysis() {
        let cache = AnalysisCache::new(8);
        let (first, hit1) = cache.get_or_analyze(PAGE_A, true);
        let (second, hit2) = cache.get_or_analyze(PAGE_A, true);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second), "a hit must not rebuild");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn root_flag_is_part_of_the_key() {
        let cache = AnalysisCache::new(8);
        let (body_rooted, _) = cache.get_or_analyze(PAGE_A, true);
        let (doc_rooted, hit) = cache.get_or_analyze(PAGE_A, false);
        assert!(!hit, "same bytes, different root: distinct entries");
        assert!(!Arc::ptr_eq(&body_rooted, &doc_rooted));
        assert!(doc_rooted.tree().len() > body_rooted.tree().len());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = AnalysisCache::new(2);
        cache.get_or_analyze(PAGE_A, true);
        cache.get_or_analyze(PAGE_B, true);
        // Touch A so B becomes the LRU entry...
        let (_, hit_a) = cache.get_or_analyze(PAGE_A, true);
        assert!(hit_a);
        // ...then C's insert must evict B, not A.
        let (_, hit_c) = cache.get_or_analyze(PAGE_C, true);
        assert!(!hit_c);
        assert_eq!(cache.len(), 2);
        let (_, hit_a_again) = cache.get_or_analyze(PAGE_A, true);
        let (_, hit_b_again) = cache.get_or_analyze(PAGE_B, true);
        assert!(hit_a_again, "recently used entry survived");
        assert!(!hit_b_again, "LRU entry was evicted");
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = AnalysisCache::new(0);
        cache.get_or_analyze(PAGE_A, true);
        cache.get_or_analyze(PAGE_B, true);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(AnalysisCache::new(16));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for _ in 0..50 {
                        for page in [PAGE_A, PAGE_B, PAGE_C] {
                            let (analysis, _) = cache.get_or_analyze(page, true);
                            assert_eq!(analysis.content().len(), 1);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 3);
    }
}
