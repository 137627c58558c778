//! The three workloads and their seeded request streams.
//!
//! Every client thread owns one stream: an RNG seeded from `(seed,
//! thread)` draws the request mix, and a second RNG draws the open-loop
//! arrival gaps, so the same seed yields byte-identical requests whether
//! they are sent on a schedule, back to back, or replayed in-process.
//! Cookie headers are not part of the stream: each thread's jar fills from
//! the responses it receives, the way a browser's does.

use cp_runtime::rng::{Rng, SeedableRng, StdRng, Zipf};
use cp_webworld::{table1_population, uniform_host};

/// Hosts in the `zipf-cold` world (`serve --world uniform:1000000`).
pub const ZIPF_HOSTS: u64 = 1_000_000;
/// Zipf exponent of `zipf-cold` host popularity.
pub const ZIPF_S: f64 = 1.1;
/// The servers' `--seed`, which fixes the world (for Table 1, the paper's
/// 103 persistent / 7 marked / 3 real population). It is the same for
/// every benchmark seed, which varies only the request stream: a world
/// drawn per seed moved the cluster's latency by a tenth between seeds
/// on its own, so runs with different seeds would not measure one system.
pub const WORLD_SEED: u64 = 1;

/// What a workload runs the server as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One in-memory node.
    Single,
    /// `route --ack quorum` in front of three durable, replicating nodes.
    Cluster,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Extra `serve` flags that define the workload.
    pub world: Option<&'static str>,
    /// Which process layout serves it.
    pub topology: Topology,
    /// Host popularity.
    pub hosts: HostDist,
    /// Open-loop offered rate, requests per second: a third of the
    /// closed-loop capacity this benchmark measures on a 2-core machine or
    /// less (a fifteenth for the cluster, whose chain of router, primary
    /// and follower ack queues up first when the host slows), so queueing
    /// does not amplify the machine's own speed swings.
    pub offered_rps: f64,
    /// Requests the traced in-process replay covers.
    pub replay_requests: usize,
}

/// How visits pick their host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostDist {
    /// Uniform over the paper's Table-1 population.
    Table1,
    /// Zipf-ranked over a uniform world of `n` hosts.
    Zipf { n: u64, s: f64 },
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "table1-hot",
            world: None,
            topology: Topology::Single,
            hosts: HostDist::Table1,
            offered_rps: 15_000.0,
            replay_requests: 40_000,
        },
        Workload {
            name: "zipf-cold",
            world: Some("uniform:1000000"),
            topology: Topology::Single,
            hosts: HostDist::Zipf { n: ZIPF_HOSTS, s: ZIPF_S },
            offered_rps: 4_000.0,
            replay_requests: 20_000,
        },
        Workload {
            name: "cluster-durable",
            world: None,
            topology: Topology::Cluster,
            hosts: HostDist::Table1,
            offered_rps: 500.0,
            replay_requests: 12_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Route of one request, as the server labels it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Route {
    /// `POST /v1/visit`.
    Visit,
    /// `GET /healthz`.
    Healthz,
    /// `GET /v1/sites/{host}`.
    Sites,
    /// `POST /v1/classify`.
    Classify,
}

impl Route {
    /// The server's `route` label.
    pub fn label(self) -> &'static str {
        match self {
            Route::Visit => "visit",
            Route::Healthz => "healthz",
            Route::Sites => "sites",
            Route::Classify => "classify",
        }
    }
}

/// One drawn request, before the thread's jar supplies a cookie header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Which endpoint.
    pub route: Route,
    /// Visited or summarized host (empty for healthz and classify).
    pub host: String,
    /// Visit path, or the classify pair index as text.
    pub path: String,
}

/// Deterministic `/v1/classify` page pairs: the first differs in
/// structure (useful), the second is identical, the third differs only in
/// forgiven text (noise).
pub const CLASSIFY_PAIRS: [(&str, &str); 3] = [
    (
        "<html><body><h1>Cart</h1><ul><li>saved item</li><li>saved item</li></ul>\
         <div><p>recommended for you</p><p>recently viewed</p></div></body></html>",
        "<html><body><h1>Cart</h1><p>sign in to see your cart</p></body></html>",
    ),
    (
        "<html><body><h1>Weather</h1><p>sunny</p><p>light wind</p></body></html>",
        "<html><body><h1>Weather</h1><p>sunny</p><p>light wind</p></body></html>",
    ),
    (
        "<html><body><div><p>promo A</p><p>article text</p></div></body></html>",
        "<html><body><div><p>promo B</p><p>article text</p></div></body></html>",
    ),
];

impl Req {
    /// HTTP method.
    pub fn method(&self) -> &'static str {
        match self.route {
            Route::Visit | Route::Classify => "POST",
            Route::Healthz | Route::Sites => "GET",
        }
    }

    /// Request target.
    pub fn target(&self) -> String {
        match self.route {
            Route::Visit => "/v1/visit".to_string(),
            Route::Healthz => "/healthz".to_string(),
            Route::Sites => format!("/v1/sites/{}", self.host),
            Route::Classify => "/v1/classify".to_string(),
        }
    }

    /// Request body; visits carry `cookie` when the jar has any (keys in
    /// the sorted order the service's JSON writer uses).
    pub fn body(&self, cookie: Option<&str>) -> String {
        match self.route {
            Route::Visit => match cookie {
                Some(cookie) => format!(
                    "{{\"cookie\":\"{cookie}\",\"host\":\"{}\",\"path\":\"{}\"}}",
                    self.host, self.path
                ),
                None => format!("{{\"host\":\"{}\",\"path\":\"{}\"}}", self.host, self.path),
            },
            Route::Classify => {
                let (regular, hidden) = CLASSIFY_PAIRS[self.classify_pair()];
                cp_runtime::json::Json::object()
                    .set("regular", regular)
                    .set("hidden", hidden)
                    .to_compact()
            }
            Route::Healthz | Route::Sites => String::new(),
        }
    }

    /// Index into [`CLASSIFY_PAIRS`] (classify requests only).
    pub fn classify_pair(&self) -> usize {
        self.path.parse().unwrap_or(0)
    }

    /// The complete request message, as sent on the wire.
    pub fn wire(&self, cookie: Option<&str>, out: &mut Vec<u8>) {
        let body = self.body(cookie);
        cp_serve::http::append_request(
            out,
            self.method(),
            &self.target(),
            "bench",
            body.as_bytes(),
        );
    }
}

/// Draws hosts by the workload's popularity law.
#[derive(Debug, Clone)]
enum HostSampler {
    Table1(Vec<String>),
    Zipf(Zipf),
}

impl HostSampler {
    fn new(dist: HostDist, world_seed: u64) -> Self {
        match dist {
            HostDist::Table1 => HostSampler::Table1(
                table1_population(world_seed).into_iter().map(|s| s.domain).collect(),
            ),
            HostDist::Zipf { n, s } => HostSampler::Zipf(Zipf::new(n, s)),
        }
    }

    fn draw(&self, rng: &mut StdRng) -> String {
        match self {
            HostSampler::Table1(hosts) => hosts[rng.gen_range(0..hosts.len())].clone(),
            HostSampler::Zipf(zipf) => uniform_host(zipf.sample(rng) - 1),
        }
    }
}

const MIX_SALT: u64 = 0x6D69_785F_7374_7265;
const ARRIVAL_SALT: u64 = 0x6172_7269_7661_6C73;

fn thread_seed(seed: u64, thread: usize, salt: u64) -> u64 {
    (seed ^ salt).wrapping_add((thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One client thread's endless request stream.
pub struct Stream {
    rng: StdRng,
    hosts: HostSampler,
}

impl Stream {
    /// Stream `thread` of `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64, thread: usize) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(thread_seed(seed, thread, MIX_SALT)),
            hosts: HostSampler::new(workload.hosts, WORLD_SEED),
        }
    }

    /// The standard mix: 86% visit, 4% healthz, 4% site summary, 6%
    /// classify.
    pub fn next_req(&mut self) -> Req {
        let roll = self.rng.gen_range(0..100u64);
        if roll < 86 {
            let host = self.hosts.draw(&mut self.rng);
            let path = match self.rng.gen_range(0..5u64) {
                0 => "/".to_string(),
                n => format!("/page/{n}"),
            };
            Req { route: Route::Visit, host, path }
        } else if roll < 90 {
            Req { route: Route::Healthz, host: String::new(), path: String::new() }
        } else if roll < 94 {
            Req { route: Route::Sites, host: self.hosts.draw(&mut self.rng), path: String::new() }
        } else {
            let pair = self.rng.gen_range(0..CLASSIFY_PAIRS.len() as u64);
            Req { route: Route::Classify, host: String::new(), path: pair.to_string() }
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next_req()).collect()
    }
}

/// Open-loop send offsets for one thread, nanoseconds from phase start:
/// Poisson arrivals at `rate` requests per second.
pub fn arrivals(seed: u64, thread: usize, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, thread, ARRIVAL_SALT));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() / rate * 1e9;
            t as u64
        })
        .collect()
}

/// The byte form of a request sequence (no cookie headers) — what the
/// determinism test compares.
#[cfg(test)]
pub fn sequence_bytes(reqs: &[Req], due: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for (req, at) in reqs.iter().zip(due) {
        out.extend_from_slice(format!("@{at}\n").as_bytes());
        req.wire(None, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(name: &str, seed: u64, thread: usize) -> Vec<u8> {
        let workload = by_name(name).unwrap();
        let reqs = Stream::new(&workload, seed, thread).take(2_000);
        let due = arrivals(seed, thread, workload.offered_rps / 2.0, reqs.len());
        sequence_bytes(&reqs, &due)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_sequence() {
        for workload in all() {
            for thread in 0..2 {
                let a = sequence(workload.name, 11, thread);
                assert_eq!(a, sequence(workload.name, 11, thread), "{}", workload.name);
                assert_ne!(a, sequence(workload.name, 12, thread), "seed must matter");
            }
            assert_ne!(sequence(workload.name, 11, 0), sequence(workload.name, 11, 1));
        }
    }

    #[test]
    fn mix_matches_the_standard_shares() {
        let reqs = Stream::new(&by_name("table1-hot").unwrap(), 3, 0).take(100_000);
        let share = |route| reqs.iter().filter(|r| r.route == route).count() as f64 / 1_000.0;
        assert!((share(Route::Visit) - 86.0).abs() < 1.0);
        assert!((share(Route::Healthz) - 4.0).abs() < 0.5);
        assert!((share(Route::Sites) - 4.0).abs() < 0.5);
        assert!((share(Route::Classify) - 6.0).abs() < 0.5);
    }

    #[test]
    fn arrivals_are_increasing_at_the_offered_rate() {
        let due = arrivals(5, 0, 10_000.0, 50_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *due.last().unwrap() as f64 / 1e9;
        assert!((seconds - 5.0).abs() < 0.2, "50k arrivals at 10k/s take ~5 s, got {seconds}");
    }

    #[test]
    fn visit_bodies_are_sorted_key_json() {
        let req = Req { route: Route::Visit, host: "a.example".into(), path: "/".into() };
        assert_eq!(req.body(None), r#"{"host":"a.example","path":"/"}"#);
        assert_eq!(
            req.body(Some("x=1; y=2")),
            r#"{"cookie":"x=1; y=2","host":"a.example","path":"/"}"#
        );
        let mut wire = Vec::new();
        req.wire(None, &mut wire);
        assert!(wire.starts_with(b"POST /v1/visit HTTP/1.1\r\nHost: bench\r\n"));
    }
}
