//! The FORCUM training lifecycle (§3.2, Definitions 1 & 2).
//!
//! FORCUM — FORward Cookie Usefulness Marking — is a per-site training
//! process. It runs while the site's cookie set is still in flux, marks
//! cookies useful as evidence arrives, and turns itself off once the
//! `useful` values are stable; the appearance of new cookies (or a manual
//! request) turns it back on.

use std::collections::HashMap;

use cp_runtime::json::{Json, ToJson};

/// Training state for one site.
#[derive(Debug, Clone, Default)]
pub struct SiteTraining {
    /// Page views observed while training was active.
    pub pages_seen: usize,
    /// Consecutive page views without a new cookie or a new useful mark.
    pub stable_streak: usize,
    /// Whether the FORCUM process is currently on for this site.
    pub active: bool,
    /// Cookie names seen so far on this site, sorted and distinct.
    known_cookies: Vec<String>,
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
        let mut known_cookies: Vec<String> = known_cookies.into_iter().collect();
        known_cookies.sort_unstable();
        known_cookies.dedup();
        SiteTraining {
            pages_seen,
            stable_streak,
            active,
            known_cookies,
            hidden_requests,
            marks,
            deferrals,
        }
    }

    /// The cookie names seen so far, sorted (deterministic encoding order).
    pub fn known_cookies_sorted(&self) -> Vec<&str> {
        self.known_cookies.iter().map(String::as_str).collect()
    }

    /// Registers the cookies of one page view; returns whether any was new.
    fn learn(&mut self, cookie_names: impl IntoIterator<Item = String>) -> bool {
        let mut new_cookie = false;
        for name in cookie_names {
            if let Err(at) = self.known_cookies.binary_search(&name) {
                self.known_cookies.insert(at, name);
                new_cookie = true;
            }
        }
        new_cookie
    }
}

/// Training state across all sites.
#[derive(Debug, Clone, Default)]
pub struct ForcumState {
    /// The first site trained, held inline: a training store keeps one
    /// state per host, and a map of one site would allocate a table of
    /// four slots for it.
    first: Option<(String, SiteTraining)>,
    /// Every other site.
    more: HashMap<String, SiteTraining>,
    /// Stability window: page views without change before training stops.
    pub stability_window: usize,
}

impl ToJson for SiteTraining {
    fn to_json(&self) -> Json {
        // Sets serialize sorted so the encoding is deterministic.
        let known = self.known_cookies_sorted();
        Json::object()
            .set("pages_seen", self.pages_seen)
            .set("stable_streak", self.stable_streak)
            .set("active", self.active)
            .set("known_cookies", known.into_iter().map(Json::from).collect::<Vec<_>>())
            .set("hidden_requests", self.hidden_requests)
            .set("marks", self.marks)
            .set("deferrals", self.deferrals)
    }
}

impl ToJson for ForcumState {
    fn to_json(&self) -> Json {
        let sites = self
            .sites()
            .fold(Json::object(), |acc, (host, site)| acc.set(host.clone(), site.to_json()));
        Json::object().set("sites", sites).set("stability_window", self.stability_window)
    }
}

impl ForcumState {
    /// Creates a state with the given stability window.
    pub fn new(stability_window: usize) -> Self {
        ForcumState { first: None, more: HashMap::new(), stability_window }
    }

    /// Every site's training record, in no particular order.
    fn sites(&self) -> impl Iterator<Item = (&String, &SiteTraining)> {
        self.first.iter().map(|(host, site)| (host, site)).chain(&self.more)
    }

    /// The training record for `host`, if the site has been seen.
    pub fn site(&self, host: &str) -> Option<&SiteTraining> {
        match &self.first {
            Some((first, site)) if first == host => Some(site),
            _ => self.more.get(host),
        }
    }

    /// The training record for `host`, created fresh on first contact.
    fn site_mut(&mut self, host: &str) -> &mut SiteTraining {
        let (first, site) =
            self.first.get_or_insert_with(|| (host.to_string(), SiteTraining::fresh()));
        if first == host {
            return site;
        }
        self.more.entry(host.to_string()).or_insert_with(SiteTraining::fresh)
    }

    /// Installs a persisted training record for `host` (snapshot restore).
    pub fn insert_site(&mut self, host: &str, site: SiteTraining) {
        *self.site_mut(host) = site;
    }

    /// Whether FORCUM is currently active for `host` (a never-seen host is
    /// active by definition — training starts on first contact).
    pub fn is_active(&self, host: &str) -> bool {
        self.site(host).is_none_or(|s| s.active)
    }

    /// Manually (re)starts training for a site — the paper's "turned on …
    /// manually by a user if she wants to continue the training process".
    pub fn restart(&mut self, host: &str) {
        let site = self.site_mut(host);
        site.active = true;
        site.stable_streak = 0;
    }

    /// Records a page view on `host`. `cookie_names` are the cookies
    /// observed in this view (request + response); `marked` is whether this
    /// view produced new useful marks; `hidden_issued` whether a hidden
    /// request was sent.
    ///
    /// Returns whether training is active *after* the update.
    pub fn observe(
        &mut self,
        host: &str,
        cookie_names: impl IntoIterator<Item = String>,
        marked: usize,
        hidden_issued: bool,
    ) -> bool {
        let window = self.stability_window;
        let site = self.site_mut(host);
        let new_cookie = site.learn(cookie_names);
        // New cookies re-activate a dormant site (§3.2, step 5).
        if new_cookie && !site.active {
            site.active = true;
            site.stable_streak = 0;
        }
        if !site.active {
            return false;
        }

        site.pages_seen += 1;
        site.hidden_requests += usize::from(hidden_issued);
        site.marks += marked;
        if new_cookie || marked > 0 {
            site.stable_streak = 0;
        } else {
            site.stable_streak += 1;
            if site.stable_streak >= window {
                site.active = false;
            }
        }
        site.active
    }

    /// Records a page view on `host` whose hidden probe was *inconclusive*
    /// (failed or suspect fetch). The view is evidence of nothing, so the
    /// stability streak neither advances nor resets — training simply runs
    /// longer under faults instead of stabilizing on missing data — and no
    /// marks are applied. New cookies still register (and reactivate a
    /// dormant site), exactly as in [`observe`](Self::observe).
    ///
    /// Returns whether training is active after the update.
    pub fn defer(&mut self, host: &str, cookie_names: impl IntoIterator<Item = String>) -> bool {
        let site = self.site_mut(host);
        let new_cookie = site.learn(cookie_names);
        if new_cookie && !site.active {
            site.active = true;
        }
        if !site.active {
            return false;
        }
        site.pages_seen += 1;
        site.hidden_requests += 1;
        site.deferrals += 1;
        if new_cookie {
            site.stable_streak = 0;
        }
        site.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unseen_site_is_active() {
        let state = ForcumState::new(5);
        assert!(state.is_active("new.example"));
    }

    #[test]
    fn stabilizes_after_window() {
        let mut state = ForcumState::new(3);
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
        let mut state = ForcumState::new(2);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 1, true); // mark → reset
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(state.is_active("a.example"), "only one quiet view since mark");
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
    }

    #[test]
    fn new_cookie_reactivates() {
        let mut state = ForcumState::new(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        // A brand-new cookie shows up in a response → training resumes.
        state.observe("a.example", names(&["x", "brand_new"]), 0, false);
        assert!(state.is_active("a.example"));
    }

    #[test]
    fn manual_restart() {
        let mut state = ForcumState::new(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        state.restart("a.example");
        assert!(state.is_active("a.example"));
    }

    #[test]
    fn sites_independent() {
        let mut state = ForcumState::new(1);
        state.observe("a.example", names(&["x"]), 0, true);
        state.observe("a.example", names(&["x"]), 0, true);
        assert!(!state.is_active("a.example"));
        assert!(state.is_active("b.example"));
    }

    #[test]
    fn many_sites_keep_separate_records() {
        let mut state = ForcumState::new(2);
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
        let mut state = ForcumState::new(2);
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
        let mut state = ForcumState::new(1);
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
        let mut state = ForcumState::new(10);
        state.observe("a.example", names(&["x", "y"]), 2, true);
        state.observe("a.example", names(&[]), 0, false);
        let site = state.site("a.example").unwrap();
        assert_eq!(site.pages_seen, 2);
        assert_eq!(site.hidden_requests, 1);
        assert_eq!(site.marks, 2);
    }
}
