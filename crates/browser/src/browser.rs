//! The browser: page-view pipeline, cookie wiring, extension hooks.

use std::sync::Arc;

use cp_runtime::rng::{SeedableRng, StdRng};

use cp_cookies::{
    encode_cookie_header, parse_set_cookie, same_site, CookieJar, CookiePolicy, Party, SimDuration,
    SimTime,
};
use cp_html::{parse_document, Document, NodeId};
use cp_net::{Method, NetError, Request, Response, SimNetwork, Url};

use crate::pageview::PageView;
use crate::think::ThinkTimeModel;

/// Maximum redirects followed while locating "the real initial container
/// document page" (§3.2, step 1).
const MAX_REDIRECTS: usize = 5;

/// The context handed to a [`BrowserExtension`] after each page render —
/// the equivalent of the DOM-ready event CookiePicker hooks in Firefox.
pub struct PageContext<'a> {
    /// The rendered page view (regular request/response/DOM).
    pub view: &'a PageView,
    /// The browser's cookie jar (mutable: extensions mark/remove cookies).
    pub jar: &'a mut CookieJar,
    /// The active cookie policy.
    pub policy: CookiePolicy,
    /// The network, for issuing hidden requests.
    pub network: &'a SimNetwork,
    /// Simulated time when the page finished rendering.
    pub now: SimTime,
    /// Time the extension has consumed after render (hidden request latency
    /// etc.) — added to the browser clock when the hook returns. This runs
    /// concurrently with user think time, so it normally does not delay the
    /// next navigation.
    pub elapsed: SimDuration,
    /// The think time the user will spend on this page (pre-drawn; the
    /// browser's next [`think`](Browser::think) consumes the same value).
    /// Extensions budget hidden-request deadlines against it so their work
    /// stays hidden inside the pause.
    pub think_budget: SimDuration,
}

impl PageContext<'_> {
    /// Advances the extension's elapsed time.
    pub fn advance(&mut self, d: SimDuration) {
        self.elapsed += d;
    }
}

/// A browser extension invoked after every page render.
pub trait BrowserExtension {
    /// Called once the page is rendered and its DOM is available.
    fn on_page_loaded(&mut self, ctx: &mut PageContext<'_>);
}

/// One entry of the browser's object cache.
#[derive(Debug, Clone)]
struct CachedObject {
    etag: String,
}

/// The simulated browser.
pub struct Browser {
    network: Arc<SimNetwork>,
    /// The cookie jar (public: tests and experiments inspect it directly,
    /// like about:config power users).
    pub jar: CookieJar,
    policy: CookiePolicy,
    clock: SimTime,
    think: ThinkTimeModel,
    /// The think time already drawn for the current page, if any — drawn
    /// early by [`visit_with`](Browser::visit_with) so extensions can budget
    /// against it, then consumed by [`think`](Browser::think). Keeping draw
    /// order identical either way preserves the seeded RNG stream.
    pending_think: Option<SimDuration>,
    rng: StdRng,
    user_agent: String,
    /// ETag cache for embedded objects (conditional GETs on revisit).
    object_cache: std::collections::HashMap<String, CachedObject>,
    cache_hits: u64,
}

impl Browser {
    /// Creates a browser over `network` with the given cookie policy and a
    /// deterministic seed (drives think times).
    pub fn new(network: Arc<SimNetwork>, policy: CookiePolicy, seed: u64) -> Self {
        Browser {
            network,
            jar: CookieJar::new(),
            policy,
            clock: SimTime::EPOCH,
            think: ThinkTimeModel::default(),
            pending_think: None,
            rng: StdRng::seed_from_u64(seed),
            user_agent: "Mozilla/5.0 (X11; U; Linux) Gecko/20061025 Firefox/1.5.0.8".to_string(),
            object_cache: std::collections::HashMap::new(),
            cache_hits: 0,
        }
    }

    /// Number of embedded-object fetches answered by `304 Not Modified`
    /// revalidations so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The network this browser is attached to.
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }

    /// The active cookie policy.
    pub fn policy(&self) -> CookiePolicy {
        self.policy
    }

    /// Replaces the cookie policy.
    pub fn set_policy(&mut self, policy: CookiePolicy) {
        self.policy = policy;
    }

    /// Simulates the user thinking before the next click, advancing the
    /// clock; returns the sampled think time.
    pub fn think(&mut self) -> SimDuration {
        let t = self.pending_think.take().unwrap_or_else(|| self.think.sample(&mut self.rng));
        self.clock += t;
        t
    }

    fn build_request(&self, url: &Url, top_host: &str) -> Request {
        let mut req = Request::new(Method::Get, url.clone());
        req.headers.set("Host", url.host());
        req.headers.set("User-Agent", self.user_agent.clone());
        req.headers.set("Accept", "text/html,*/*");
        let party = party_of(url.host(), top_host);
        let send: Vec<_> = self
            .jar
            .cookies_for(url.host(), url.path(), self.clock)
            .into_iter()
            .filter(|c| self.policy.should_send(c, party))
            .filter(|c| !c.secure || url.is_secure())
            .collect();
        if !send.is_empty() {
            req.headers.set("Cookie", encode_cookie_header(send));
        }
        req
    }

    fn ingest_set_cookies(&mut self, response: &Response, host: &str, top_host: &str) {
        let party = party_of(host, top_host);
        for header in response.set_cookies() {
            if let Ok(cookie) = parse_set_cookie(header, host, self.clock) {
                if self.policy.should_store(&cookie, party) {
                    self.jar.store(cookie, self.clock);
                }
            }
        }
    }

    /// Visits a URL: fetches the container page (following redirects),
    /// processes cookies, builds the DOM, and fetches embedded objects in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] from the container fetch (object-fetch
    /// failures for unknown hosts are skipped, like a broken image).
    pub fn visit(&mut self, url: &Url) -> Result<PageView, NetError> {
        let top_host = url.host().to_string();
        let start = self.clock;
        let mut current = url.clone();
        let mut redirects = 0;
        let (request, response) = loop {
            let req = self.build_request(&current, &top_host);
            let out = self.network.fetch(&req, self.clock)?;
            self.clock += out.latency;
            self.ingest_set_cookies(&out.response, current.host(), &top_host);
            if out.response.status.is_redirect() && redirects < MAX_REDIRECTS {
                if let Some(loc) = out.response.headers.get("location") {
                    current = current.join(loc);
                    redirects += 1;
                    continue;
                }
            }
            break (req, out.response);
        };

        let dom = parse_document(&response.body_string());
        let object_urls = extract_object_urls(&dom, &current);

        // Objects fetch in parallel: the clock advances by the slowest one.
        let mut slowest = SimDuration::ZERO;
        let mut fetched = 0usize;
        for obj_url in &object_urls {
            let mut req = self.build_request(obj_url, &top_host);
            let key = obj_url.to_string();
            if let Some(cached) = self.object_cache.get(&key) {
                req.headers.set("If-None-Match", cached.etag.clone());
            }
            match self.network.fetch(&req, self.clock) {
                Ok(out) => {
                    self.ingest_set_cookies(&out.response, obj_url.host(), &top_host);
                    if out.response.status == cp_net::StatusCode::NOT_MODIFIED {
                        self.cache_hits += 1;
                    } else if let Some(etag) = out.response.headers.get("etag") {
                        self.object_cache.insert(key, CachedObject { etag: etag.to_string() });
                    }
                    slowest = slowest.max(out.latency);
                    fetched += 1;
                }
                Err(_) => { /* broken embed or flaky transport; skip */ }
            }
        }
        self.clock += slowest;

        Ok(PageView {
            url: current,
            container_request: request,
            container_response: response,
            dom,
            redirects,
            objects: fetched,
            load_time: self.clock - start,
        })
    }

    /// Visits a URL and then runs `ext` on the rendered page, exactly like
    /// Firefox firing a load event at CookiePicker.
    pub fn visit_with<E: BrowserExtension>(
        &mut self,
        url: &Url,
        ext: &mut E,
    ) -> Result<PageView, NetError> {
        let view = self.visit(url)?;
        // Pre-draw the user's think time for this page so the extension can
        // budget its hidden work against the pause it will hide inside.
        let think_budget = match self.pending_think {
            Some(t) => t,
            None => {
                let t = self.think.sample(&mut self.rng);
                self.pending_think = Some(t);
                t
            }
        };
        let mut jar = std::mem::take(&mut self.jar);
        let mut ctx = PageContext {
            view: &view,
            jar: &mut jar,
            policy: self.policy,
            network: &self.network,
            now: self.clock,
            elapsed: SimDuration::ZERO,
            think_budget,
        };
        ext.on_page_loaded(&mut ctx);
        let elapsed = ctx.elapsed;
        self.jar = jar;
        // The hidden request runs during think time; it only delays the
        // browser if it outlives the think pause, which the think() caller
        // models. We still account a small constant for event dispatch.
        let _ = elapsed;
        Ok(view)
    }
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("clock", &self.clock)
            .field("policy", &self.policy)
            .field("cookies", &self.jar.len())
            .finish()
    }
}

/// First/third-party classification of a request host against the page's
/// top-level host.
pub fn party_of(request_host: &str, top_host: &str) -> Party {
    if same_site(request_host, top_host) {
        Party::First
    } else {
        Party::Third
    }
}

/// Extracts the embedded-object URLs of a page: `img[src]`, `script[src]`,
/// and `link[rel=stylesheet][href]`, resolved against the page URL —
/// honouring a `<base href>` element if the document carries one.
pub fn extract_object_urls(dom: &Document, page_url: &Url) -> Vec<Url> {
    // <base href> (first one wins, per spec) rebases every relative
    // reference on the page.
    let base = dom
        .find_element(NodeId::DOCUMENT, "base")
        .and_then(|n| dom.attr(n, "href"))
        .map(|href| page_url.join(href))
        .unwrap_or_else(|| page_url.clone());
    let base = &base;
    let mut out = Vec::new();
    for n in dom.preorder(NodeId::DOCUMENT) {
        let Some(tag) = dom.tag_name(n) else { continue };
        let reference = match tag {
            "img" | "script" => dom.attr(n, "src"),
            "link" => {
                if dom.attr(n, "rel").is_some_and(|r| r.eq_ignore_ascii_case("stylesheet")) {
                    dom.attr(n, "href")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(r) = reference {
            if !r.is_empty() && !r.starts_with('#') && !r.starts_with("data:") {
                out.push(base.join(r));
            }
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_net::{Response, Server, StatusCode};
    use cp_webworld::{Category, CookieRole, CookieSpec, EffectSize, SiteServer, SiteSpec};

    fn world() -> (Arc<SimNetwork>, Url) {
        let spec = SiteSpec::new("site.example", Category::Shopping, 3)
            .with_cookie(CookieSpec::tracker("trk"))
            .with_cookie(CookieSpec::useful("pref", CookieRole::Preference, EffectSize::Medium))
            .with_cookie(CookieSpec::session("sid"));
        let mut net = SimNetwork::new(5);
        net.register("site.example", SiteServer::new(spec));
        (Arc::new(net), Url::parse("http://site.example/").unwrap())
    }

    #[test]
    fn visit_builds_dom_and_fetches_objects() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        let view = b.visit(&url).unwrap();
        assert!(view.dom.body().is_some());
        assert!(view.objects >= 2, "css/js/images should be fetched, got {}", view.objects);
        assert_eq!(view.redirects, 0);
    }

    #[test]
    fn cookies_stored_and_replayed() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        b.visit(&url).unwrap();
        assert!(b.jar.len() >= 3, "trk, pref, sid stored");
        // Second visit sends them back: the preference panel renders.
        let view = b.visit(&url).unwrap();
        assert!(view.container_request.cookie_header().unwrap().contains("pref="));
        assert!(view.html().contains("id=\"sidebar\""));
    }

    #[test]
    fn first_visit_has_no_cookie_header() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        let view = b.visit(&url).unwrap();
        assert!(view.container_request.cookie_header().is_none());
        assert!(!view.html().contains("id=\"sidebar\""));
    }

    #[test]
    fn block_all_policy_stores_nothing() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::BlockAll, 1);
        b.visit(&url).unwrap();
        assert!(b.jar.is_empty());
    }

    #[test]
    fn useful_only_policy_withholds_unmarked_persistent() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::UsefulOnly, 1);
        b.visit(&url).unwrap();
        assert!(b.jar.len() >= 3, "storage still allowed");
        let view = b.visit(&url).unwrap();
        let header = view.container_request.cookie_header().unwrap_or("").to_string();
        assert!(header.contains("sid="), "session cookie sent: {header}");
        assert!(!header.contains("trk="), "unmarked persistent withheld: {header}");
        assert!(!header.contains("pref="), "unmarked persistent withheld: {header}");
        // Mark pref useful → now it flows.
        b.jar.mark_useful("site.example", &["pref"]);
        let view = b.visit(&url).unwrap();
        assert!(view.container_request.cookie_header().unwrap().contains("pref="));
    }

    #[test]
    fn object_cache_revalidates_on_revisit() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        b.visit(&url).unwrap();
        assert_eq!(b.cache_hits(), 0, "cold cache on first visit");
        let before = b.network().stats().bytes_down;
        b.visit(&url).unwrap();
        assert!(b.cache_hits() > 0, "revisit revalidates with 304s");
        let second_visit_bytes = b.network().stats().bytes_down - before;
        // The 304 responses carry no bodies: the second visit is cheaper
        // than the first.
        assert!(second_visit_bytes < before, "{second_visit_bytes} vs {before}");
    }

    #[test]
    fn clock_advances_with_visits_and_thinking() {
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        let t0 = b.now();
        b.visit(&url).unwrap();
        let t1 = b.now();
        assert!(t1 > t0, "network latency advances the clock");
        let thought = b.think();
        assert_eq!(b.now(), t1 + thought);
    }

    #[test]
    fn redirects_followed_to_container() {
        struct Redirector;
        impl Server for Redirector {
            fn handle(&self, req: &Request, _now: SimTime) -> Response {
                match req.url.path() {
                    "/" => Response::redirect("/real"),
                    "/real" => Response::html(StatusCode::OK, "<p>real container</p>"),
                    _ => Response::not_found(),
                }
            }
        }
        let mut net = SimNetwork::new(2);
        net.register("r.example", Redirector);
        let mut b = Browser::new(Arc::new(net), CookiePolicy::AcceptAll, 1);
        let view = b.visit(&Url::parse("http://r.example/").unwrap()).unwrap();
        assert_eq!(view.redirects, 1);
        assert_eq!(view.url.path(), "/real");
        assert!(view.html().contains("real container"));
    }

    #[test]
    fn extension_hook_runs_with_jar_access() {
        struct Marker;
        impl BrowserExtension for Marker {
            fn on_page_loaded(&mut self, ctx: &mut PageContext<'_>) {
                ctx.jar.mark_useful(ctx.view.top_host(), &["trk"]);
                ctx.advance(SimDuration::from_millis(7));
            }
        }
        let (net, url) = world();
        let mut b = Browser::new(net, CookiePolicy::AcceptAll, 1);
        b.visit_with(&url, &mut Marker).unwrap();
        assert!(b.jar.iter().any(|c| c.name == "trk" && c.useful()));
    }

    #[test]
    fn party_classification() {
        assert_eq!(party_of("img.site.example", "www.site.example"), Party::First);
        assert_eq!(party_of("tracker.net", "www.site.example"), Party::Third);
    }

    #[test]
    fn base_href_rebases_relative_objects() {
        let dom = parse_document(
            r#"<head><base href="http://cdn.example/assets/"></head>
               <body><img src="logo.png"><img src="/abs.png"></body>"#,
        );
        let page = Url::parse("http://site.example/deep/page").unwrap();
        let urls = extract_object_urls(&dom, &page);
        let strs: Vec<String> = urls.iter().map(Url::to_string).collect();
        assert_eq!(strs, vec!["http://cdn.example/assets/logo.png", "http://cdn.example/abs.png"]);
    }

    #[test]
    fn object_extraction_filters_and_resolves() {
        let dom = parse_document(
            r##"<img src="/a.png"><img src="data:xyz"><script src="s.js"></script>
               <link rel="stylesheet" href="/c.css"><link rel="icon" href="/i.ico"><img src="#f">"##,
        );
        let base = Url::parse("http://h.example/dir/page").unwrap();
        let urls = extract_object_urls(&dom, &base);
        let strs: Vec<String> = urls.iter().map(Url::to_string).collect();
        assert_eq!(
            strs,
            vec!["http://h.example/a.png", "http://h.example/dir/s.js", "http://h.example/c.css"]
        );
    }
}
