//! The FORCUM training lifecycle (§3.2, Definitions 1 & 2).
//!
//! FORCUM — FORward Cookie Usefulness Marking — is a per-site training
//! process. It runs while the site's cookie set is still in flux, marks
//! cookies useful as evidence arrives, and turns itself off once the
//! `useful` values are stable; the appearance of new cookies (or a manual
//! request) turns it back on.

use std::collections::HashMap;

use crate::names::NameSet;

/// Training state for one site, and FORCUM's transition rules.
#[derive(Debug, Clone, Default)]
pub struct SiteTraining {
    /// Page views observed while training was active.
    pub pages_seen: usize,
    /// Consecutive page views without a new cookie or a new useful mark.
    pub stable_streak: usize,
    /// Whether the FORCUM process is currently on for this site.
    pub active: bool,
    /// Cookie names seen so far on this site.
    known_cookies: NameSet,
    /// Hidden requests issued for this site.
    pub hidden_requests: usize,
    /// Usefulness marks applied on this site.
    pub marks: usize,
    /// Page views whose probe was inconclusive and judgement deferred.
    pub deferrals: usize,
}

impl SiteTraining {
    // Not `Default`: a freshly-contacted site starts with training active.
    fn fresh() -> Self {
        SiteTraining { active: true, ..SiteTraining::default() }
    }

    /// Rebuilds a training record from persisted parts (snapshot restore).
    pub fn from_parts(
        pages_seen: usize,
        stable_streak: usize,
        active: bool,
        known_cookies: impl IntoIterator<Item = String>,
        hidden_requests: usize,
        marks: usize,
        deferrals: usize,
    ) -> Self {
        SiteTraining {
            pages_seen,
            stable_streak,
            active,
            known_cookies: known_cookies.into_iter().collect(),
            hidden_requests,
            marks,
            deferrals,
        }
    }

    /// The cookie names seen so far, sorted (deterministic encoding order).
    pub fn known_cookies_sorted(&self) -> Vec<&str> {
        self.known_cookies.iter().collect()
    }

    /// Registers the cookies of one page view; returns whether any was new.
    fn learn(&mut self, cookie_names: impl IntoIterator<Item = impl AsRef<str>>) -> bool {
        let mut new_cookie = false;
        for name in cookie_names {
            new_cookie |= self.known_cookies.insert(name.as_ref());
        }
        new_cookie
    }

    /// Manually (re)starts training — the paper's "turned on … manually by
    /// a user if she wants to continue the training process".
    pub fn restart(&mut self) {
        self.active = true;
        self.stable_streak = 0;
    }

    /// Records a page view. `cookie_names` are the cookies observed in
    /// this view (request + response); `marked` is how many useful marks
    /// it produced; `hidden_issued` whether a hidden request was sent.
    /// Training stops after `window` views without change.
    ///
    /// Returns whether training is active *after* the update.
    pub fn observe(
        &mut self,
        window: usize,
        cookie_names: impl IntoIterator<Item = impl AsRef<str>>,
        marked: usize,
        hidden_issued: bool,
    ) -> bool {
        let new_cookie = self.learn(cookie_names);
        // New cookies re-activate a dormant site (§3.2, step 5).
        if new_cookie && !self.active {
            self.restart();
        }
        if !self.active {
            return false;
        }

        self.pages_seen += 1;
        self.hidden_requests += usize::from(hidden_issued);
        self.marks += marked;
        if new_cookie || marked > 0 {
            self.stable_streak = 0;
        } else {
            self.stable_streak += 1;
            if self.stable_streak >= window {
                self.active = false;
            }
        }
        self.active
    }

    /// Records a page view whose hidden probe was *inconclusive* (failed
    /// or suspect fetch). The view is evidence of nothing, so the
    /// stability streak neither advances nor resets — training simply runs
    /// longer under faults instead of stabilizing on missing data — and no
    /// marks are applied. New cookies still register (and reactivate a
    /// dormant site), exactly as in [`observe`](Self::observe).
    ///
    /// Returns whether training is active after the update.
    pub fn defer(&mut self, cookie_names: impl IntoIterator<Item = impl AsRef<str>>) -> bool {
        let new_cookie = self.learn(cookie_names);
        if new_cookie && !self.active {
            self.active = true;
        }
        if !self.active {
            return false;
        }
        self.pages_seen += 1;
        self.hidden_requests += 1;
        self.deferrals += 1;
        if new_cookie {
            self.stable_streak = 0;
        }
        self.active
    }
}

/// Where a [`ForcumState`] keeps its per-site records.
pub trait SiteRecords: Default {
    /// The record for `host`, if the site has been seen.
    fn site(&self, host: &str) -> Option<&SiteTraining>;
    /// The record for `host`, created fresh (training on) on first contact.
    fn site_mut(&mut self, host: &str) -> &mut SiteTraining;
}

/// Any number of sites, by host: a browser trains every site it visits.
impl SiteRecords for HashMap<String, SiteTraining> {
    fn site(&self, host: &str) -> Option<&SiteTraining> {
        self.get(host)
    }

    fn site_mut(&mut self, host: &str) -> &mut SiteTraining {
        if !self.contains_key(host) {
            self.insert(host.to_string(), SiteTraining::fresh());
        }
        self.get_mut(host).expect("inserted above")
    }
}

/// One site, named by the state's owner — a training store keeps one
/// state per host under that host's key — so the host is neither stored
/// nor compared.
impl SiteRecords for Option<SiteTraining> {
    fn site(&self, _host: &str) -> Option<&SiteTraining> {
        self.as_ref()
    }

    fn site_mut(&mut self, _host: &str) -> &mut SiteTraining {
        self.get_or_insert_with(SiteTraining::fresh)
    }
}

/// FORCUM training state: per-site records and the stability window. The
/// rules live on [`SiteTraining`]; this type finds the record they apply to.
#[derive(Debug, Clone, Default)]
pub struct ForcumState<S = HashMap<String, SiteTraining>> {
    sites: S,
    /// Stability window: page views without change before training stops.
    pub stability_window: usize,
}

impl<S: SiteRecords> ForcumState<S> {
    /// Creates a state with the given stability window.
    pub fn new(stability_window: usize) -> Self {
        ForcumState { sites: S::default(), stability_window }
    }

    /// The training record for `host`, if the site has been seen.
    pub fn site(&self, host: &str) -> Option<&SiteTraining> {
        self.sites.site(host)
    }

    /// Installs a persisted training record for `host` (snapshot restore).
    pub fn insert_site(&mut self, host: &str, site: SiteTraining) {
        *self.sites.site_mut(host) = site;
    }

    /// Whether FORCUM is currently active for `host` (a never-seen host is
    /// active by definition — training starts on first contact).
    pub fn is_active(&self, host: &str) -> bool {
        self.site(host).is_none_or(|s| s.active)
    }

    /// Manually (re)starts training for a site; see [`SiteTraining::restart`].
    pub fn restart(&mut self, host: &str) {
        self.sites.site_mut(host).restart();
    }

    /// Records a page view on `host`; see [`SiteTraining::observe`].
    pub fn observe(
        &mut self,
        host: &str,
        cookie_names: impl IntoIterator<Item = impl AsRef<str>>,
        marked: usize,
        hidden_issued: bool,
    ) -> bool {
        let window = self.stability_window;
        self.sites.site_mut(host).observe(window, cookie_names, marked, hidden_issued)
    }

    /// Records an inconclusive page view on `host`; see
    /// [`SiteTraining::defer`].
    pub fn defer(
        &mut self,
        host: &str,
        cookie_names: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> bool {
        self.sites.site_mut(host).defer(cookie_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn state(window: usize) -> ForcumState {
        ForcumState::new(window)
    }

    #[test]
    fn unseen_site_is_active() {
        let state = state(5);
        assert!(state.is_active("new.example"));
    }

    #[test]
    fn stabilizes_after_window() {
        let mut state = state(3);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(state.is_active("a.example"));
        // Three quiet views → off. (First view after the cookie is quiet #1.)
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
    }

    #[test]
    fn marks_reset_streak() {
        let mut state = state(2);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 1, true); // mark → reset
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(state.is_active("a.example"), "only one quiet view since mark");
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
    }

    #[test]
    fn new_cookie_reactivates() {
        let mut state = state(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        // A brand-new cookie shows up in a response → training resumes.
        state.observe("a.example", names(&["x", "brand_new"]), 0, false);
        assert!(state.is_active("a.example"));
    }

    #[test]
    fn manual_restart() {
        let mut state = state(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        state.restart("a.example");
        assert!(state.is_active("a.example"));
    }

    #[test]
    fn sites_independent() {
        let mut state = state(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        assert!(state.is_active("b.example"));
    }

    #[test]
    fn many_sites_keep_separate_records() {
        let mut state = state(2);
        for round in 0..3 {
            for (i, host) in ["a.example", "b.example", "c.example"].into_iter().enumerate() {
                // Each site sees its own cookies, in varying order.
                let cookies = if round % 2 == 0 { ["z", "a"] } else { ["a", "z"] };
                state.observe(host, cookies.map(|c| format!("{c}{i}")), usize::from(i == 2), true);
            }
        }
        for (i, host) in ["a.example", "b.example", "c.example"].into_iter().enumerate() {
            let site = state.site(host).unwrap();
            assert_eq!(site.pages_seen, 3, "{host}");
            assert_eq!(site.known_cookies_sorted(), [format!("a{i}"), format!("z{i}")]);
        }
        // Two quiet views after the cookies: a and b stop, c keeps marking.
        assert!(!state.is_active("a.example") && !state.is_active("b.example"));
        assert!(state.is_active("c.example"));
        state
            .insert_site("b.example", SiteTraining::from_parts(9, 0, true, names(&["k"]), 0, 0, 0));
        assert_eq!(state.site("b.example").unwrap().pages_seen, 9);
        assert_eq!(state.site("a.example").unwrap().pages_seen, 3);
    }

    #[test]
    fn known_cookies_from_parts_are_sorted_and_distinct() {
        let site = SiteTraining::from_parts(0, 0, true, names(&["b", "a", "b"]), 0, 0, 0);
        assert_eq!(site.known_cookies_sorted(), ["a", "b"]);
    }

    #[test]
    fn defer_freezes_the_streak() {
        let mut state = state(2);
        state.observe("a.example", names(&["x"]), 0, true);
        let streak_before = state.site("a.example").unwrap().stable_streak;
        // Any number of deferrals: the streak must not move either way.
        for _ in 0..5 {
            assert!(state.defer("a.example", names(&["x"])));
        }
        let site = state.site("a.example").unwrap();
        assert_eq!(site.stable_streak, streak_before, "deferral is evidence of nothing");
        assert_eq!(site.deferrals, 5);
        assert_eq!(site.hidden_requests, 6);
        assert!(site.active, "training never stabilizes on missing data");
    }

    #[test]
    fn defer_still_registers_new_cookies() {
        let mut state = state(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        // A new cookie in a deferred view reactivates the dormant site.
        assert!(state.defer("a.example", names(&["x", "fresh"])));
        assert!(state.is_active("a.example"));
        // And the next deferral on the known set does not advance the streak.
        let streak = state.site("a.example").unwrap().stable_streak;
        state.defer("a.example", names(&["x", "fresh"]));
        assert_eq!(state.site("a.example").unwrap().stable_streak, streak);
    }

    #[test]
    fn counters_accumulate() {
        let mut state = state(10);
        state.observe("a.example", names(&["x", "y"]), 2, true);
        state.observe("a.example", names(&[]), 0, false);
        let site = state.site("a.example").unwrap();
        assert_eq!(site.pages_seen, 2);
        assert_eq!(site.hidden_requests, 1);
        assert_eq!(site.marks, 2);
    }
}
