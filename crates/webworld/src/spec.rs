//! Site and cookie specifications — the ground-truth model of a synthetic
//! website.

use cp_cookies::SimDuration;
use cp_runtime::json::{Json, ToJson};

use crate::category::Category;

/// What a cookie is *actually for* — the ground truth the paper established
/// by manual verification, available here by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CookieRole {
    /// Long-term user tracking; no effect on rendering. The common case.
    Tracking,
    /// Site-analytics beacons; no effect on rendering.
    Analytics,
    /// Stores a user preference (theme/layout); pages render a visibly
    /// different variant when it is present (Table 2: P1, P4, P6).
    Preference,
    /// Identifies a signed-up user; without it, account pages render a
    /// sign-up error instead of content (Table 2: P3, P5).
    SignUp,
    /// Keys a server-side cache of the user's recent queries; with it, a
    /// "recent results" panel renders (Table 2: P2's unique usage).
    Performance,
    /// A session-state cookie (session-lifetime, not persistent). Not under
    /// test — CookiePicker only targets first-party *persistent* cookies —
    /// but present for realism.
    SessionState,
}

impl CookieRole {
    /// Whether this role makes the cookie *really useful* in the paper's
    /// sense: disabling it causes a perceivable page change.
    pub fn is_useful(self) -> bool {
        matches!(self, CookieRole::Preference | CookieRole::SignUp | CookieRole::Performance)
    }
}

/// Which pages a cookie is attached to / affects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageSelector {
    /// Every page of the site (path `/`).
    All,
    /// Only paths under the given prefix (the cookie's `Path` attribute).
    Prefix(
        /// The path prefix, e.g. `/account`.
        String,
    ),
}

impl PageSelector {
    /// The cookie `Path` attribute value this selector corresponds to.
    pub fn cookie_path(&self) -> &str {
        match self {
            PageSelector::All => "/",
            PageSelector::Prefix(p) => p,
        }
    }

    /// Whether `path` is selected.
    pub fn matches(&self, path: &str) -> bool {
        match self {
            PageSelector::All => true,
            PageSelector::Prefix(p) => path.starts_with(p.as_str()),
        }
    }
}

/// How big the rendered difference is when a useful cookie is disabled —
/// used to spread the Table 2 similarity scores across their observed range
/// (NTreeSim 0.226–0.667).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectSize {
    /// One extra panel changes.
    Small,
    /// Several panels change.
    Medium,
    /// Most of the page changes (e.g. sign-up wall).
    Large,
}

/// Specification of one cookie a site sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CookieSpec {
    /// Cookie name.
    pub name: String,
    /// Ground-truth role.
    pub role: CookieRole,
    /// Lifetime; `None` = session cookie. (Per the authors' measurement
    /// study, >60% of first-party persistent cookies live ≥ 1 year.)
    pub lifetime: Option<SimDuration>,
    /// Which pages the cookie is scoped to (its `Path`) and, for useful
    /// roles, where its rendering effect shows.
    pub scope: PageSelector,
    /// Rendering-effect magnitude for useful roles.
    pub effect: EffectSize,
}

impl CookieSpec {
    /// A persistent tracking cookie on `/` with a one-year lifetime.
    pub fn tracker(name: impl Into<String>) -> Self {
        CookieSpec {
            name: name.into(),
            role: CookieRole::Tracking,
            lifetime: Some(SimDuration::from_days(365)),
            scope: PageSelector::All,
            effect: EffectSize::Medium,
        }
    }

    /// A persistent useful cookie with the given role.
    pub fn useful(name: impl Into<String>, role: CookieRole, effect: EffectSize) -> Self {
        debug_assert!(role.is_useful());
        CookieSpec {
            name: name.into(),
            role,
            lifetime: Some(SimDuration::from_days(365)),
            scope: PageSelector::All,
            effect,
        }
    }

    /// A session-state cookie.
    pub fn session(name: impl Into<String>) -> Self {
        CookieSpec {
            name: name.into(),
            role: CookieRole::SessionState,
            lifetime: None,
            scope: PageSelector::All,
            effect: EffectSize::Medium,
        }
    }

    /// Builder-style: restricts the cookie (and its effect) to a path
    /// prefix.
    pub fn scoped(mut self, prefix: impl Into<String>) -> Self {
        self.scope = PageSelector::Prefix(prefix.into());
        self
    }

    /// Whether this spec describes a persistent cookie.
    pub fn is_persistent(&self) -> bool {
        self.lifetime.is_some()
    }
}

/// Page-dynamics noise configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSpec {
    /// Number of rotating ad slots (leaf-level text changes per render).
    pub ad_slots: usize,
    /// Whether a "last updated" timestamp renders in the footer.
    pub timestamp: bool,
    /// Whether a one-line news ticker renders (text replaced per render,
    /// same context).
    pub ticker: bool,
    /// Number of rotating story-teaser paragraphs (text-heavy dynamics:
    /// prose that changes per render in a stable context — not ad-classed,
    /// not datetime-shaped, so only CVCE's `s` term can forgive it).
    pub dynamic_teasers: usize,
    /// Probability per render of a **structural burst**: the front page
    /// swaps in a breaking-news layout, changing upper DOM levels. This is
    /// the page-dynamics failure mode behind the paper's three false
    /// "useful" sites (S1, S10, S27).
    pub structural_burst_prob: f64,
}

impl Default for NoiseSpec {
    fn default() -> Self {
        NoiseSpec {
            ad_slots: 3,
            timestamp: true,
            ticker: true,
            dynamic_teasers: 0,
            structural_burst_prob: 0.0,
        }
    }
}

impl NoiseSpec {
    /// Leaf-level noise only — the benign case RSTM/CVCE must ignore.
    pub fn benign() -> Self {
        NoiseSpec::default()
    }

    /// Noise including occasional structural bursts.
    pub fn bursty(prob: f64) -> Self {
        NoiseSpec { structural_burst_prob: prob, ..NoiseSpec::default() }
    }

    /// No dynamics at all (for calibration tests).
    pub fn none() -> Self {
        NoiseSpec {
            ad_slots: 0,
            timestamp: false,
            ticker: false,
            dynamic_teasers: 0,
            structural_burst_prob: 0.0,
        }
    }
}

/// Base page-layout archetype. Varying the skeleton across the population
/// shows the detectors are not tuned to one page shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SiteLayout {
    /// Header + nav, ad banner, main column with side ads, footer — the
    /// default 2007 portal-ish shape.
    #[default]
    Classic,
    /// News-portal: a deterministic headline grid above the fold and a
    /// right rail holding the ads.
    Portal,
    /// Minimal single-column blog-style layout.
    Minimal,
}

/// Origin latency profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyProfile {
    /// Typical 2007 origin.
    Normal,
    /// Chronically slow origin (Table 1's S4, S17, S28 at ~10 s).
    Slow,
    /// Fast origin / CDN.
    Fast,
}

/// Full specification of a synthetic website.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Host name, e.g. `shopping2.example`.
    pub domain: String,
    /// Directory category the site was "sampled" from.
    pub category: Category,
    /// Number of content pages (`/page/0` … `/page/n-1`).
    pub pages: usize,
    /// The cookies this site sets.
    pub cookies: Vec<CookieSpec>,
    /// Page-dynamics noise.
    pub noise: NoiseSpec,
    /// Origin latency profile.
    pub latency: LatencyProfile,
    /// Content-volume knob: paragraphs per page section.
    pub richness: usize,
    /// Base page-layout archetype.
    pub layout: SiteLayout,
    /// Whether the front page is a temporary-redirect entry page
    /// (`/` → `302` → `/home`), the pattern FORCUM's step 1 must see
    /// through to find "the real initial container document page".
    pub entry_redirect: bool,
    /// Base seed for the site's deterministic content.
    pub seed: u64,
}

impl SiteSpec {
    /// A minimal site with the given domain and seed.
    pub fn new(domain: impl Into<String>, category: Category, seed: u64) -> Self {
        SiteSpec {
            domain: domain.into(),
            category,
            pages: 12,
            cookies: Vec::new(),
            noise: NoiseSpec::default(),
            latency: LatencyProfile::Normal,
            richness: 3,
            layout: SiteLayout::default(),
            entry_redirect: false,
            seed,
        }
    }

    /// Builder-style: adds a cookie spec.
    pub fn with_cookie(mut self, cookie: CookieSpec) -> Self {
        self.cookies.push(cookie);
        self
    }

    /// Builder-style: sets the noise spec.
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Builder-style: sets the latency profile.
    pub fn with_latency(mut self, latency: LatencyProfile) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style: makes the front page a temporary-redirect entry page.
    pub fn with_entry_redirect(mut self) -> Self {
        self.entry_redirect = true;
        self
    }

    /// Builder-style: sets the layout archetype.
    pub fn with_layout(mut self, layout: SiteLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Names of the cookies that are *really useful* (ground truth): the
    /// persistent cookies whose absence perceivably changes some page.
    pub fn useful_cookie_names(&self) -> Vec<&str> {
        self.cookies
            .iter()
            .filter(|c| c.is_persistent() && c.role.is_useful())
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Number of persistent cookies the site sets.
    pub fn persistent_count(&self) -> usize {
        self.cookies.iter().filter(|c| c.is_persistent()).count()
    }

    /// The site's canonical page paths, in visit order: the front page,
    /// then the section pages hosting path-scoped cookies (so their
    /// cookies get exercised early), then the content pages.
    pub fn page_paths(&self) -> Vec<String> {
        let mut paths = vec!["/".to_string()];
        // Pages hosting scoped cookies' effects come early in a visit.
        for c in &self.cookies {
            if let PageSelector::Prefix(p) = &c.scope {
                let page = format!("{}/home", p.trim_end_matches('/'));
                if !paths.contains(&page) {
                    paths.push(page);
                }
            }
        }
        for i in 1..self.pages {
            paths.push(format!("/page/{i}"));
        }
        paths
    }
}

impl ToJson for CookieSpec {
    fn to_json(&self) -> Json {
        let role = match self.role {
            CookieRole::Tracking => "tracking",
            CookieRole::Analytics => "analytics",
            CookieRole::Preference => "preference",
            CookieRole::SignUp => "sign_up",
            CookieRole::Performance => "performance",
            CookieRole::SessionState => "session_state",
        };
        let effect = match self.effect {
            EffectSize::Small => "small",
            EffectSize::Medium => "medium",
            EffectSize::Large => "large",
        };
        Json::object()
            .set("name", self.name.as_str())
            .set("role", role)
            .set("lifetime_ms", self.lifetime.map_or(Json::Null, |d| Json::from(d.as_millis())))
            .set("scope", self.scope.cookie_path())
            .set("effect", effect)
    }
}

impl ToJson for NoiseSpec {
    fn to_json(&self) -> Json {
        Json::object()
            .set("ad_slots", self.ad_slots)
            .set("timestamp", self.timestamp)
            .set("ticker", self.ticker)
            .set("dynamic_teasers", self.dynamic_teasers)
            .set("structural_burst_prob", self.structural_burst_prob)
    }
}

impl ToJson for SiteSpec {
    fn to_json(&self) -> Json {
        let latency = match self.latency {
            LatencyProfile::Normal => "normal",
            LatencyProfile::Slow => "slow",
            LatencyProfile::Fast => "fast",
        };
        let layout = match self.layout {
            SiteLayout::Classic => "classic",
            SiteLayout::Portal => "portal",
            SiteLayout::Minimal => "minimal",
        };
        Json::object()
            .set("domain", self.domain.as_str())
            .set("category", self.category.slug())
            .set("pages", self.pages)
            .set("cookies", self.cookies.iter().map(ToJson::to_json).collect::<Vec<_>>())
            .set("noise", self.noise.to_json())
            .set("latency", latency)
            .set("layout", layout)
            .set("richness", self.richness)
            .set("entry_redirect", self.entry_redirect)
            // Hex keeps all 64 bits exact (JSON numbers would round trip
            // through f64 for seeds above 2^63).
            .set("seed", format!("0x{:016x}", self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_usefulness() {
        assert!(CookieRole::Preference.is_useful());
        assert!(CookieRole::SignUp.is_useful());
        assert!(CookieRole::Performance.is_useful());
        assert!(!CookieRole::Tracking.is_useful());
        assert!(!CookieRole::Analytics.is_useful());
        assert!(!CookieRole::SessionState.is_useful());
    }

    #[test]
    fn selector_matching() {
        assert!(PageSelector::All.matches("/anything"));
        let s = PageSelector::Prefix("/account".into());
        assert!(s.matches("/account/home"));
        assert!(!s.matches("/other"));
        assert_eq!(s.cookie_path(), "/account");
    }

    #[test]
    fn spec_builders() {
        let c = CookieSpec::tracker("uid").scoped("/shop");
        assert!(c.is_persistent());
        assert_eq!(c.scope, PageSelector::Prefix("/shop".into()));
        let s = CookieSpec::session("sid");
        assert!(!s.is_persistent());
    }

    #[test]
    fn ground_truth_names() {
        let site = SiteSpec::new("x.example", Category::Shopping, 1)
            .with_cookie(CookieSpec::tracker("t1"))
            .with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium))
            .with_cookie(CookieSpec::session("sid"));
        assert_eq!(site.useful_cookie_names(), vec!["pref"]);
        assert_eq!(site.persistent_count(), 2);
    }

    #[test]
    fn page_paths_include_scoped_pages() {
        let site = SiteSpec::new("x.example", Category::News, 1).with_cookie(
            CookieSpec::useful("auth", CookieRole::SignUp, EffectSize::Large).scoped("/account"),
        );
        let paths = site.page_paths();
        assert!(paths.contains(&"/".to_string()));
        assert!(paths.contains(&"/account/home".to_string()));
    }
}
