//! The CookiePicker extension: the five FORCUM steps wired into the
//! browser's page-load hook.

use std::collections::{HashMap, HashSet};

use cp_runtime::json::{FromJson, Json, JsonError, ToJson};
use cp_runtime::rng::{Rng, SeedableRng, StdRng};

use cp_browser::{BrowserExtension, PageContext};
use cp_cookies::{parse_cookie_header, SimDuration};
use cp_html::parse_document;
use cp_net::{NetError, Request};

use crate::config::{CookiePickerConfig, TestGroupStrategy};
use crate::decision::{decide, Decision};
use crate::forcum::ForcumState;
use crate::probe::{InconclusiveReason, ProbeOutcome, ProbeReport, RetryPolicy};
use crate::recovery::RecoveryLog;

/// One detection event: a hidden request issued and judged.
#[derive(Debug, Clone)]
pub struct DetectionRecord {
    /// Site host.
    pub host: String,
    /// Container-page path.
    pub path: String,
    /// The cookie names disabled in the hidden request.
    pub group: Vec<String>,
    /// The similarity scores and verdict.
    pub decision: Decision,
    /// Simulated network latency of the hidden request, in milliseconds.
    pub hidden_latency_ms: u64,
    /// The paper's "CookiePicker Duration": hidden-request latency plus
    /// detection time, in milliseconds.
    pub duration_ms: f64,
}

/// One probe that produced no verdict: the hidden fetch failed or came
/// back suspect, and FORCUM deferred judgement for that page view.
#[derive(Debug, Clone, PartialEq)]
pub struct InconclusiveProbe {
    /// Site host.
    pub host: String,
    /// Container-page path.
    pub path: String,
    /// The cookie names that would have been disabled.
    pub group: Vec<String>,
    /// Why no trustworthy hidden page was obtained.
    pub reason: InconclusiveReason,
    /// Fetch attempts made before giving up.
    pub attempts: u32,
}

/// A per-site training summary (see [`CookiePicker::summary_for`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSummary {
    /// The site host.
    pub host: String,
    /// Hidden-request probes issued for this site (decided + deferred).
    pub probes: usize,
    /// Probes whose decision attributed the difference to cookies.
    pub marking_probes: usize,
    /// Probes that produced no verdict (failed/suspect hidden fetch).
    pub deferred_probes: usize,
    /// Mean detection time in milliseconds.
    pub avg_detection_ms: f64,
    /// Mean CookiePicker duration (hidden latency + detection) in ms.
    pub avg_duration_ms: f64,
    /// Whether FORCUM is still active for the site.
    pub training_active: bool,
}

impl ToJson for DetectionRecord {
    fn to_json(&self) -> Json {
        Json::object()
            .set("host", &self.host)
            .set("path", &self.path)
            .set("group", self.group.clone())
            .set("decision", self.decision.to_json())
            .set("hidden_latency_ms", self.hidden_latency_ms)
            .set("duration_ms", self.duration_ms)
    }
}

impl ToJson for TrainingSummary {
    fn to_json(&self) -> Json {
        Json::object()
            .set("host", &self.host)
            .set("probes", self.probes)
            .set("marking_probes", self.marking_probes)
            .set("deferred_probes", self.deferred_probes)
            .set("avg_detection_ms", self.avg_detection_ms)
            .set("avg_duration_ms", self.avg_duration_ms)
            .set("training_active", self.training_active)
    }
}

impl FromJson for DetectionRecord {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(DetectionRecord {
            host: String::from_json(value.require("host")?)?,
            path: String::from_json(value.require("path")?)?,
            group: Vec::<String>::from_json(value.require("group")?)?,
            decision: Decision::from_json(value.require("decision")?)?,
            hidden_latency_ms: u64::from_json(value.require("hidden_latency_ms")?)?,
            duration_ms: f64::from_json(value.require("duration_ms")?)?,
        })
    }
}

impl FromJson for TrainingSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(TrainingSummary {
            host: String::from_json(value.require("host")?)?,
            probes: usize::from_json(value.require("probes")?)?,
            marking_probes: usize::from_json(value.require("marking_probes")?)?,
            // Optional for wire compatibility with summaries minted before
            // the fault-injection work.
            deferred_probes: value
                .get("deferred_probes")
                .map(usize::from_json)
                .transpose()?
                .unwrap_or(0),
            avg_detection_ms: f64::from_json(value.require("avg_detection_ms")?)?,
            avg_duration_ms: f64::from_json(value.require("avg_duration_ms")?)?,
            training_active: bool::from_json(value.require("training_active")?)?,
        })
    }
}

/// The CookiePicker browser extension.
///
/// Install it on a [`cp_browser::Browser`] via
/// [`visit_with`](cp_browser::Browser::visit_with); it executes the five
/// FORCUM steps (§3.2) on every page view:
///
/// 1. records the regular container request,
/// 2. issues the hidden request with the test group's cookies removed,
/// 3. builds the hidden DOM with the same parser,
/// 4. identifies usefulness with RSTM + CVCE (Figure 5),
/// 5. marks useful cookies in the jar.
#[derive(Debug)]
pub struct CookiePicker {
    config: CookiePickerConfig,
    forcum: ForcumState,
    records: Vec<DetectionRecord>,
    rotation: HashMap<String, usize>,
    /// Pending subgroups per site for [`TestGroupStrategy::GroupBisect`].
    bisect_queue: HashMap<String, Vec<Vec<String>>>,
    last_disabled: HashMap<String, Vec<String>>,
    recovery: RecoveryLog,
    /// Seeded source for backoff jitter. Only consulted when a hidden fetch
    /// fails, so fault-free runs never draw from it.
    retry_rng: StdRng,
    inconclusive: Vec<InconclusiveProbe>,
    retries_total: u64,
}

/// Fixed seed for the backoff-jitter stream: drawn only on failures, so
/// it does not need to vary per experiment to keep runs reproducible.
const RETRY_JITTER_SEED: u64 = 0x5245_5452_594a_4954;

impl CookiePicker {
    /// Creates a picker with the given configuration.
    pub fn new(config: CookiePickerConfig) -> Self {
        let stability_window = config.stability_window;
        CookiePicker {
            config,
            forcum: ForcumState::new(stability_window),
            records: Vec::new(),
            rotation: HashMap::new(),
            bisect_queue: HashMap::new(),
            last_disabled: HashMap::new(),
            recovery: RecoveryLog::default(),
            retry_rng: StdRng::seed_from_u64(RETRY_JITTER_SEED),
            inconclusive: Vec::new(),
            retries_total: 0,
        }
    }

    /// All probes that produced no verdict, in order.
    pub fn inconclusive(&self) -> &[InconclusiveProbe] {
        &self.inconclusive
    }

    /// Total hidden-fetch retries performed across all probes.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// The active configuration.
    pub fn config(&self) -> &CookiePickerConfig {
        &self.config
    }

    /// All detection records, in order.
    pub fn records(&self) -> &[DetectionRecord] {
        &self.records
    }

    /// Detection records for one site.
    pub fn records_for(&self, host: &str) -> Vec<&DetectionRecord> {
        self.records.iter().filter(|r| r.host == host).collect()
    }

    /// The FORCUM training state.
    pub fn forcum(&self) -> &ForcumState {
        &self.forcum
    }

    /// The backward-error-recovery log.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.recovery
    }

    /// Summarizes one site's training run.
    ///
    /// `probes` counts every hidden request issued (decided + deferred);
    /// the averages divide by *decided* probes only, since a deferred
    /// probe records no detection time or duration.
    pub fn summary_for(&self, host: &str) -> TrainingSummary {
        let records: Vec<&DetectionRecord> =
            self.records.iter().filter(|r| r.host == host).collect();
        let decided = records.len();
        let deferred = self.inconclusive.iter().filter(|p| p.host == host).count();
        let marking_probes =
            records.iter().filter(|r| r.decision.cookies_caused_difference).count();
        let (det_sum, dur_sum) = records.iter().fold((0.0f64, 0.0f64), |(d, t), r| {
            (d + r.decision.detection_micros as f64 / 1_000.0, t + r.duration_ms)
        });
        let denom = decided.max(1) as f64;
        TrainingSummary {
            host: host.to_string(),
            probes: decided + deferred,
            marking_probes,
            deferred_probes: deferred,
            avg_detection_ms: det_sum / denom,
            avg_duration_ms: dur_sum / denom,
            training_active: self.forcum.is_active(host),
        }
    }

    /// The **backward error recovery button** (§3.3): the user noticed a
    /// malfunction on the current page of `host`; re-mark the cookies most
    /// recently disabled there as useful. Returns the re-marked names.
    pub fn recovery_click(&mut self, host: &str, jar: &mut cp_cookies::CookieJar) -> Vec<String> {
        let group = self.last_disabled.get(host).cloned().unwrap_or_default();
        if !group.is_empty() {
            let names: Vec<&str> = group.iter().map(String::as_str).collect();
            jar.mark_useful(host, &names);
            self.recovery.record(host, &group);
            // Re-marking is a training signal: keep FORCUM running.
            self.forcum.restart(host);
        }
        group
    }

    /// Finalizes training for a site whose cookie set is stable: removes
    /// its still-unmarked persistent cookies from the jar (§3.3). Returns
    /// the removed cookie names.
    pub fn finalize_site(&self, host: &str, jar: &mut cp_cookies::CookieJar) -> Vec<String> {
        jar.remove_useless_persistent(host).into_iter().map(|c| c.name).collect()
    }

    fn select_group(&mut self, ctx: &PageContext<'_>, sent_names: &[String]) -> Vec<String> {
        let host = ctx.view.top_host();
        // Hash-set dedup: sent_names can repeat, and a linear
        // `candidates.contains` per name is quadratic in cookie count.
        let mut seen: HashSet<&str> = HashSet::with_capacity(sent_names.len());
        let mut candidates: Vec<String> = Vec::new();
        for name in sent_names {
            if !seen.insert(name.as_str()) {
                continue;
            }
            let is_candidate = ctx.jar.iter().any(|c| {
                c.name == *name && c.domain_matches(host) && c.is_persistent() && !c.useful()
            });
            if is_candidate {
                candidates.push(name.clone());
            }
        }
        match self.config.strategy {
            TestGroupStrategy::SentCookies => candidates,
            TestGroupStrategy::PerCookie => {
                if candidates.is_empty() {
                    return candidates;
                }
                let counter = self.rotation.entry(host.to_string()).or_insert(0);
                let pick = candidates[*counter % candidates.len()].clone();
                *counter += 1;
                vec![pick]
            }
            TestGroupStrategy::GroupBisect => {
                // Prefer a queued subgroup whose cookies are present in this
                // request; fall back to the full candidate set.
                let candidate_set: HashSet<&str> = candidates.iter().map(String::as_str).collect();
                if let Some(queue) = self.bisect_queue.get_mut(host) {
                    while let Some(sub) = queue.pop() {
                        let usable: Vec<String> = sub
                            .into_iter()
                            .filter(|n| candidate_set.contains(n.as_str()))
                            .collect();
                        if !usable.is_empty() {
                            return usable;
                        }
                    }
                }
                candidates
            }
        }
    }

    fn build_hidden_request(&self, regular: &Request, group: &[String]) -> Request {
        let mut hidden = regular.clone();
        let disabled: HashSet<&str> = group.iter().map(String::as_str).collect();
        let remaining: Vec<(String, String)> = regular
            .cookie_header()
            .map(parse_cookie_header)
            .unwrap_or_default()
            .into_iter()
            .filter(|(n, _)| !disabled.contains(n.as_str()))
            .collect();
        if remaining.is_empty() {
            hidden.headers.remove("cookie");
        } else {
            let header =
                remaining.iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join("; ");
            hidden.headers.set("Cookie", header);
        }
        if self.config.xhr_header {
            hidden.headers.set("X-Requested-With", "XMLHttpRequest");
        }
        hidden
    }

    /// The jittered backoff before retry number `retry` (1-based): the
    /// policy's base doubles per retry, scaled by a seeded jitter factor.
    fn backoff_before(&mut self, policy: &RetryPolicy, retry: u32) -> SimDuration {
        let base = policy.backoff.as_millis() << (retry - 1).min(16);
        let factor = 1.0 + policy.jitter * (self.retry_rng.gen::<f64>() * 2.0 - 1.0);
        SimDuration::from_millis(((base as f64) * factor.max(0.0)) as u64)
    }

    /// Issues the hidden request with deadline and bounded retry, and runs
    /// Figure 5 on success. The whole probe is budgeted against the user's
    /// think pause (`ctx.think_budget`, floored by the default
    /// [`RetryPolicy`], which every picker runs with): each
    /// attempt gets the remaining budget as its fetch deadline, failed
    /// attempts and backoff pauses consume it, and when it runs out the
    /// probe resolves to [`ProbeOutcome::Inconclusive`].
    fn probe_hidden(&mut self, ctx: &PageContext<'_>, hidden_req: &Request) -> ProbeReport {
        let policy = RetryPolicy::default();
        let budget = ctx.think_budget.max(policy.deadline_floor).as_millis();
        let mut left = budget;
        let mut attempts = 0u32;
        let mut reason = InconclusiveReason::Deadline;
        while attempts <= policy.max_retries {
            if attempts > 0 {
                let backoff = self.backoff_before(&policy, attempts).as_millis();
                if backoff >= left {
                    break;
                }
                left -= backoff;
            }
            attempts += 1;
            let deadline = SimDuration::from_millis(left);
            match ctx.network.fetch_with_deadline(hidden_req, ctx.now, Some(deadline)) {
                Ok(outcome) => {
                    let cost = outcome.latency.as_millis().min(left);
                    left -= cost;
                    if outcome.response.status.is_success() {
                        // Step 3: build the hidden DOM with the same parser.
                        let hidden_dom = parse_document(&outcome.response.body_string());
                        // Step 4: identify usefulness.
                        let decision = decide(&ctx.view.dom, &hidden_dom, &self.config);
                        return ProbeReport {
                            outcome: ProbeOutcome::Decided(decision),
                            attempts,
                            spent: SimDuration::from_millis(budget - left),
                            hidden_latency: outcome.latency,
                        };
                    }
                    // An error page is not the cookie-disabled rendering:
                    // comparing it would mis-attribute the difference to
                    // the cookies. Treat as transient and retry.
                    reason = InconclusiveReason::ServerError;
                }
                Err(err) => {
                    if !err.is_transient() {
                        reason = InconclusiveReason::Transport;
                        break;
                    }
                    let cost = err.elapsed().as_millis().min(left);
                    left -= cost;
                    reason = match err {
                        NetError::DeadlineExceeded { .. } => InconclusiveReason::Deadline,
                        NetError::TruncatedBody { .. } => InconclusiveReason::Truncated,
                        _ => InconclusiveReason::Transport,
                    };
                }
            }
            if left == 0 {
                break;
            }
        }
        ProbeReport {
            outcome: ProbeOutcome::Inconclusive(reason),
            attempts,
            spent: SimDuration::from_millis(budget - left),
            hidden_latency: SimDuration::ZERO,
        }
    }
}

impl BrowserExtension for CookiePicker {
    fn on_page_loaded(&mut self, ctx: &mut PageContext<'_>) {
        let host = ctx.view.top_host().to_string();
        let path = ctx.view.url.path().to_string();

        // Names observed this view: cookies sent plus cookies set by the
        // response (drives FORCUM's new-cookie reactivation).
        let sent_names: Vec<String> = ctx
            .view
            .container_request
            .cookie_header()
            .map(|h| parse_cookie_header(h).into_iter().map(|(n, _)| n).collect())
            .unwrap_or_default();
        let mut observed = sent_names.clone();
        for sc in ctx.view.container_response.set_cookies() {
            if let Some((name, _)) = sc.split_once('=') {
                observed.push(name.trim().to_string());
            }
        }

        if !self.forcum.is_active(&host) {
            // Dormant: just feed the observation (new cookies reactivate).
            self.forcum.observe(&host, observed, 0, false);
            return;
        }

        // Step 2: pick the cookies under test.
        let group = self.select_group(ctx, &sent_names);
        if group.is_empty() {
            self.forcum.observe(&host, observed, 0, false);
            return;
        }

        // Step 2 (cont.): the single hidden request for the container page,
        // with deadline + bounded retry budgeted against the think pause.
        let hidden_req = self.build_hidden_request(&ctx.view.container_request, &group);
        let report = self.probe_hidden(ctx, &hidden_req);
        ctx.advance(report.spent);
        self.retries_total += u64::from(report.attempts.saturating_sub(1));

        let decision = match report.outcome {
            ProbeOutcome::Decided(decision) => decision,
            ProbeOutcome::Inconclusive(reason) => {
                // Degradation ladder: no trustworthy hidden page means the
                // view proves nothing. Defer — never judge — so `useful`
                // stays monotone (false → true only on real evidence).
                self.inconclusive.push(InconclusiveProbe {
                    host: host.clone(),
                    path,
                    group,
                    reason,
                    attempts: report.attempts,
                });
                self.forcum.defer(&host, observed);
                return;
            }
        };

        // Step 5: mark (or, under GroupBisect, refine the group first).
        let mut marked = 0;
        let mut refined = false;
        if decision.cookies_caused_difference {
            if self.config.strategy == TestGroupStrategy::GroupBisect && group.len() > 1 {
                // The group as a whole matters; isolate the culprits by
                // retesting its halves on later page views.
                let mid = group.len() / 2;
                let queue = self.bisect_queue.entry(host.clone()).or_default();
                queue.push(group[..mid].to_vec());
                queue.push(group[mid..].to_vec());
                refined = true;
            } else {
                let names: Vec<&str> = group.iter().map(String::as_str).collect();
                marked = ctx.jar.mark_useful(&host, &names);
            }
        } else {
            // These cookies were disabled and judged useless in this view:
            // remember them for the recovery button.
            self.last_disabled.insert(host.clone(), group.clone());
        }

        let duration_ms =
            report.spent.as_millis() as f64 + decision.detection_micros as f64 / 1_000.0;
        self.records.push(DetectionRecord {
            host: host.clone(),
            path,
            group,
            decision,
            hidden_latency_ms: report.hidden_latency.as_millis(),
            duration_ms,
        });
        // An in-progress bisection counts as training progress: the streak
        // must not expire while subgroups are still queued.
        self.forcum.observe(&host, observed, marked.max(usize::from(refined)), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cp_browser::Browser;
    use cp_cookies::CookiePolicy;
    use cp_net::{SimNetwork, Url};
    use cp_webworld::{Category, CookieRole, CookieSpec, EffectSize, SiteServer, SiteSpec};

    fn world(spec: SiteSpec) -> (Browser, Url) {
        let domain = spec.domain.clone();
        let mut net = SimNetwork::new(11);
        net.register(domain.clone(), SiteServer::new(spec));
        let browser = Browser::new(Arc::new(net), CookiePolicy::AcceptAll, 3);
        (browser, Url::parse(&format!("http://{domain}/")).unwrap())
    }

    fn tracked_site() -> SiteSpec {
        SiteSpec::new("t.example", Category::News, 21)
            .with_cookie(CookieSpec::tracker("trk_a"))
            .with_cookie(CookieSpec::tracker("trk_b"))
    }

    fn pref_site() -> SiteSpec {
        SiteSpec::new("p.example", Category::Shopping, 22)
            .with_cookie(CookieSpec::tracker("trk"))
            .with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium))
    }

    #[test]
    fn trackers_never_marked() {
        let (mut browser, url) = world(tracked_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..6 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        assert!(browser.jar.iter().all(|c| !c.useful()));
        assert!(!picker.records().is_empty());
        for r in picker.records() {
            assert!(!r.decision.cookies_caused_difference, "{r:?}");
        }
    }

    #[test]
    fn preference_cookie_marked_tracker_piggybacks() {
        // With the paper's SentCookies grouping, the tracker rides along in
        // the same group and gets marked too (the P5/P6 phenomenon).
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..4 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        let marked: Vec<String> =
            browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.clone()).collect();
        assert!(marked.contains(&"pref".to_string()));
        assert!(marked.contains(&"trk".to_string()), "piggyback mark expected");
    }

    #[test]
    fn group_bisect_isolates_useful_cookie() {
        // Site with 1 useful preference cookie among 5 trackers: bisection
        // must mark exactly the useful one, unlike SentCookies.
        let mut spec = SiteSpec::new("b.example", Category::Reference, 23)
            .with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium));
        for k in 0..5 {
            spec = spec.with_cookie(CookieSpec::tracker(format!("trk{k}")));
        }
        let (mut browser, url) = world(spec);
        let mut picker = CookiePicker::new(
            CookiePickerConfig::default().with_strategy(TestGroupStrategy::GroupBisect),
        );
        for i in 0..14 {
            let page = url.join(&format!("/page/{}", i % 6));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        let marked: Vec<String> =
            browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.clone()).collect();
        assert_eq!(marked, vec!["pref".to_string()], "bisection isolates the useful cookie");
    }

    #[test]
    fn group_bisect_converges_faster_than_per_cookie() {
        // With n cookies and one useful, bisection needs O(log n) probes
        // after the first whole-group hit; PerCookie needs O(n) just to
        // reach the useful one.
        let build = || {
            // The useful cookie sits last in rotation order, so PerCookie
            // pays the full linear scan.
            let mut spec = SiteSpec::new("c.example", Category::Games, 29);
            for k in 0..7 {
                spec = spec.with_cookie(CookieSpec::tracker(format!("t{k}")));
            }
            spec.with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium))
        };
        let probes_until_marked = |strategy: TestGroupStrategy| -> usize {
            let (mut browser, url) = world(build());
            let mut picker =
                CookiePicker::new(CookiePickerConfig::default().with_strategy(strategy));
            for i in 0..30 {
                let page = url.join(&format!("/page/{}", i % 6));
                browser.visit_with(&page, &mut picker).unwrap();
                browser.think();
                if browser.jar.iter().any(|c| c.name == "pref" && c.useful()) {
                    return picker.records().len();
                }
            }
            usize::MAX
        };
        let bisect = probes_until_marked(TestGroupStrategy::GroupBisect);
        let per_cookie = probes_until_marked(TestGroupStrategy::PerCookie);
        assert!(bisect < usize::MAX && per_cookie < usize::MAX);
        assert!(bisect <= per_cookie, "bisect {bisect} vs per-cookie {per_cookie}");
    }

    #[test]
    fn per_cookie_strategy_avoids_piggyback() {
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(
            CookiePickerConfig::default().with_strategy(TestGroupStrategy::PerCookie),
        );
        for i in 0..10 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        let marked: Vec<String> =
            browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.clone()).collect();
        assert_eq!(marked, vec!["pref".to_string()], "only the truly useful cookie");
    }

    #[test]
    fn first_visit_sends_no_hidden_request() {
        let (mut browser, url) = world(tracked_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        browser.visit_with(&url, &mut picker).unwrap();
        // No cookies were attached to the first regular request → no group.
        assert!(picker.records().is_empty());
    }

    #[test]
    fn marked_cookies_not_retested() {
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..8 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        // After everything is marked, groups are empty → record count stops
        // growing.
        let count = picker.records().len();
        for i in 8..12 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        assert_eq!(picker.records().len(), count);
    }

    #[test]
    fn summary_reflects_training() {
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..5 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        let s = picker.summary_for("p.example");
        assert!(s.probes >= 1);
        assert!(s.marking_probes >= 1);
        assert!(s.avg_duration_ms > 0.0);
        assert!(s.training_active);
        let empty = picker.summary_for("never-visited.example");
        assert_eq!(empty.probes, 0);
        assert_eq!(empty.avg_detection_ms, 0.0);
    }

    #[test]
    fn recovery_click_remarks_last_disabled() {
        let (mut browser, url) = world(tracked_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..3 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        assert!(browser.jar.iter().all(|c| !c.useful()));
        let remarked = picker.recovery_click("t.example", &mut browser.jar);
        assert!(!remarked.is_empty());
        for name in &remarked {
            assert!(browser.jar.iter().any(|c| &c.name == name && c.useful()));
        }
        assert_eq!(picker.recovery_log().total(), remarked.len());
    }

    #[test]
    fn finalize_removes_useless_persistent() {
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(
            CookiePickerConfig::default().with_strategy(TestGroupStrategy::PerCookie),
        );
        for i in 0..10 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        let removed = picker.finalize_site("p.example", &mut browser.jar);
        assert_eq!(removed, vec!["trk".to_string()]);
        assert!(browser.jar.iter().any(|c| c.name == "pref"), "useful cookie kept");
    }

    #[test]
    fn duration_includes_network_latency() {
        let (mut browser, url) = world(pref_site());
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        for i in 0..3 {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, &mut picker).unwrap();
            browser.think();
        }
        for r in picker.records() {
            assert!(r.hidden_latency_ms > 0);
            assert!(r.duration_ms >= r.hidden_latency_ms as f64);
        }
    }

    #[test]
    fn hidden_request_carries_xhr_header_only_when_configured() {
        let (_b, _u) = world(tracked_site());
        let picker = CookiePicker::new(CookiePickerConfig::default());
        let mut req = Request::get(Url::parse("http://t.example/").unwrap());
        req.headers.set("Cookie", "trk_a=1; trk_b=2; keep=3");
        let hidden = picker.build_hidden_request(&req, &["trk_a".into(), "trk_b".into()]);
        assert_eq!(hidden.cookie_header(), Some("keep=3"));
        assert!(hidden.headers.contains("x-requested-with"));

        let cfg = CookiePickerConfig { xhr_header: false, ..CookiePickerConfig::default() };
        let stealth = CookiePicker::new(cfg);
        let hidden = stealth.build_hidden_request(&req, &["keep".into()]);
        assert!(!hidden.headers.contains("x-requested-with"));
        assert_eq!(hidden.cookie_header(), Some("trk_a=1; trk_b=2"));
    }

    #[test]
    fn record_and_summary_json_round_trip() {
        let record = DetectionRecord {
            host: "a.example".into(),
            path: "/p".into(),
            group: vec!["trk".into(), "pref".into()],
            decision: Decision {
                tree_sim: 0.1,
                text_sim: 0.2,
                cookies_caused_difference: true,
                detection_micros: 77,
            },
            hidden_latency_ms: 9,
            duration_ms: 9.077,
        };
        let back =
            DetectionRecord::from_json(&Json::parse(&record.to_json().to_compact()).unwrap())
                .unwrap();
        assert_eq!(back.host, record.host);
        assert_eq!(back.group, record.group);
        assert_eq!(back.decision, record.decision);
        assert_eq!(back.duration_ms, record.duration_ms);

        let summary = TrainingSummary {
            host: "a.example".into(),
            probes: 4,
            marking_probes: 1,
            deferred_probes: 2,
            avg_detection_ms: 0.5,
            avg_duration_ms: 10.25,
            training_active: false,
        };
        let back =
            TrainingSummary::from_json(&Json::parse(&summary.to_json().to_compact()).unwrap())
                .unwrap();
        assert_eq!(back.probes, summary.probes);
        assert_eq!(back.marking_probes, summary.marking_probes);
        assert_eq!(back.deferred_probes, summary.deferred_probes);
        assert_eq!(back.avg_duration_ms, summary.avg_duration_ms);
        assert!(!back.training_active);
        assert!(TrainingSummary::from_json(&Json::parse("{\"host\":\"x\"}").unwrap()).is_err());
        // Summaries minted before fault injection lack the deferral count.
        let legacy = Json::object()
            .set("host", "a.example")
            .set("probes", 4usize)
            .set("marking_probes", 1usize)
            .set("avg_detection_ms", 0.5)
            .set("avg_duration_ms", 10.25)
            .set("training_active", false);
        assert_eq!(TrainingSummary::from_json(&legacy).unwrap().deferred_probes, 0);
    }

    fn faulted_world(spec: SiteSpec, rates: cp_net::FaultRates) -> (Browser, Url) {
        let domain = spec.domain.clone();
        let mut net = SimNetwork::new(11);
        net.register(domain.clone(), SiteServer::new(spec));
        // Fault only the hidden (XHR-marked) class: container pages render,
        // probes fail.
        net.set_fault_plan(cp_net::FaultPlan::new(77).with_hidden(rates));
        let browser = Browser::new(Arc::new(net), CookiePolicy::AcceptAll, 3);
        (browser, Url::parse(&format!("http://{domain}/")).unwrap())
    }

    fn train(browser: &mut Browser, url: &Url, picker: &mut CookiePicker, pages: usize) {
        for i in 0..pages {
            let page = url.join(&format!("/page/{i}"));
            browser.visit_with(&page, picker).unwrap();
            browser.think();
        }
    }

    #[test]
    fn suspect_hidden_page_never_compared() {
        // 100% 5xx on the hidden class: every probe must resolve to
        // Inconclusive(ServerError) — the error page is never run through
        // Figure 5, so nothing gets marked, rightly or wrongly.
        let rates = cp_net::FaultRates { http_5xx: 1.0, ..cp_net::FaultRates::NONE };
        let (mut browser, url) = faulted_world(pref_site(), rates);
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        train(&mut browser, &url, &mut picker, 6);
        assert!(picker.records().is_empty(), "no verdicts from suspect pages");
        assert!(!picker.inconclusive().is_empty());
        for probe in picker.inconclusive() {
            assert_eq!(probe.reason, InconclusiveReason::ServerError);
            assert!(probe.attempts > 1, "5xx is retried before deferring");
        }
        assert!(browser.jar.iter().all(|c| !c.useful()), "deferral marks nothing");
        assert!(picker.forcum().is_active("p.example"), "training does not stabilize blind");
        assert!(picker.retries_total() > 0);
    }

    #[test]
    fn truncated_hidden_body_defers_with_reason() {
        let rates = cp_net::FaultRates { truncate: 1.0, ..cp_net::FaultRates::NONE };
        let (mut browser, url) = faulted_world(pref_site(), rates);
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        train(&mut browser, &url, &mut picker, 4);
        assert!(picker.records().is_empty());
        assert!(picker.inconclusive().iter().all(|p| p.reason == InconclusiveReason::Truncated));
        assert!(browser.jar.iter().all(|c| !c.useful()));
    }

    #[test]
    fn dropped_hidden_fetch_defers_as_transport() {
        let rates = cp_net::FaultRates { drop: 0.5, reset: 0.5, ..cp_net::FaultRates::NONE };
        let (mut browser, url) = faulted_world(pref_site(), rates);
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        train(&mut browser, &url, &mut picker, 6);
        assert!(picker.records().is_empty());
        for probe in picker.inconclusive() {
            assert_eq!(probe.reason, InconclusiveReason::Transport);
        }
        let summary = picker.summary_for("p.example");
        assert!(summary.deferred_probes > 0);
        assert_eq!(summary.probes, summary.deferred_probes, "all issued probes deferred");
        assert_eq!(summary.avg_detection_ms, 0.0, "no decided probe, no detection time");
        assert_eq!(
            picker.forcum().site("p.example").unwrap().deferrals,
            picker.inconclusive().len()
        );
    }

    #[test]
    fn injected_latency_exceeds_think_budget_and_defers() {
        // 45 s of injected latency on every hidden attempt: the probe's
        // deadline (think budget, floored at 60 s) splits across retries and
        // eventually exhausts.
        let rates = cp_net::FaultRates {
            extra_latency: 1.0,
            extra_latency_ms: 120_000,
            ..cp_net::FaultRates::NONE
        };
        let (mut browser, url) = faulted_world(pref_site(), rates);
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        train(&mut browser, &url, &mut picker, 4);
        assert!(picker.records().is_empty());
        assert!(picker.inconclusive().iter().all(|p| p.reason == InconclusiveReason::Deadline));
    }

    #[test]
    fn partial_faults_delay_but_never_flip_decisions() {
        // A 30% hidden-class fault rate: some probes defer, the rest decide.
        // The decided set must match the fault-free oracle's verdicts, and
        // marks must be a subset of the oracle's marks.
        let oracle_marks = {
            let (mut browser, url) = world(pref_site());
            let mut picker = CookiePicker::new(CookiePickerConfig::default());
            train(&mut browser, &url, &mut picker, 10);
            let mut marks: Vec<String> =
                browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.clone()).collect();
            marks.sort();
            marks
        };
        let (mut browser, url) = faulted_world(pref_site(), cp_net::FaultRates::uniform(0.3));
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        train(&mut browser, &url, &mut picker, 10);
        let mut chaos_marks: Vec<String> =
            browser.jar.iter().filter(|c| c.useful()).map(|c| c.name.clone()).collect();
        chaos_marks.sort();
        assert!(
            chaos_marks.iter().all(|m| oracle_marks.contains(m)),
            "chaos marks {chaos_marks:?} ⊄ oracle marks {oracle_marks:?}"
        );
    }

    #[test]
    fn probe_time_stays_within_budget() {
        // Even with every attempt timing out, the probe consumes at most
        // its deadline budget of simulated time.
        let rates = cp_net::FaultRates { drop: 1.0, ..cp_net::FaultRates::NONE };
        let (mut browser, url) = faulted_world(pref_site(), rates);
        let mut picker = CookiePicker::new(CookiePickerConfig::default());
        let before = browser.now();
        train(&mut browser, &url, &mut picker, 3);
        // 3 visits, each ≤ budget(≈ think time, floor 60 s) of probe work
        // plus page loads and think pauses; just sanity-bound the total.
        let elapsed = browser.now() - before;
        assert!(elapsed < cp_cookies::SimDuration::from_secs(3 * (120 + 120 + 60)), "{elapsed}");
    }

    #[test]
    fn removing_all_cookies_drops_header() {
        let picker = CookiePicker::new(CookiePickerConfig::default());
        let mut req = Request::get(Url::parse("http://t.example/").unwrap());
        req.headers.set("Cookie", "a=1");
        let hidden = picker.build_hidden_request(&req, &["a".into()]);
        assert_eq!(hidden.cookie_header(), None);
    }
}
