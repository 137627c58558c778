//! The lazy universe: any site, derived on demand from `(seed, host)`.
//!
//! [`population`] materializes fixed `Vec<SiteSpec>`s —
//! fine for the paper's 30 + 6 sites, structurally incapable of the
//! millions-of-hosts worlds the service roadmap needs. A [`Universe`] is
//! the pure-function alternative: `derive(host)` computes the [`SiteSpec`]
//! for any host from the world seed and the host name alone, in O(1) time
//! and memory, with nothing materialized up front.
//!
//! Two ingredients:
//!
//! * **Overlays** — the paper populations (Table 1's S1–S30 and Table 2's
//!   P1–P6) are pinned by name inside every universe. They draw from one
//!   *sequential* RNG stream shared across sites, so they cannot be
//!   re-derived per host; the universe materializes these 36 specs once
//!   (a few KB) and serves them bit-identically to
//!   [`table1_population`]/[`table2_population`] at the same seed.
//! * **Procedural hosts** — a [`WorldKind::Uniform`]`(n)` universe also
//!   recognizes the `n` hosts `{slug}-u{index}.example`. Each spec is drawn
//!   by seeding an RNG with an FNV-1a hash of `(world_seed, host)` and
//!   feeding it through the same procedural shape generator as
//!   [`random_site`](crate::population::random_site) — identical site
//!   statistics, but keyed by host instead of index.
//!
//! Everything else (enumeration, keyset pagination, the [`SimNetwork`]
//! resolver) is derived from those two rules.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use cp_net::{HostResolver, LatencyModel, Server, SimNetwork};
use cp_runtime::rng::{SeedableRng, StdRng};
use cp_runtime::sync::Mutex;

use crate::category::Category;
use crate::population::{self, table1_population, table2_population};
use crate::server::SiteServer;
use crate::spec::SiteSpec;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Which hosts a [`Universe`] *enumerates* (lists, counts, paginates).
///
/// Note that `derive` resolves the pinned overlay hosts in every kind;
/// the kind only selects the enumerable population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// The paper's Table 1 population: 30 named sites, enumerated in
    /// lexicographic host order (matching the old materialized world).
    Table1,
    /// `n` procedural hosts `{slug}-u{index}.example`, enumerated in index
    /// order so any pagination cursor maps back to an index in O(1).
    Uniform(u64),
}

impl WorldKind {
    /// Parses `"table1"` or `"uniform:N"` (the `serve --world` syntax).
    pub fn parse(s: &str) -> Result<WorldKind, String> {
        if s == "table1" {
            return Ok(WorldKind::Table1);
        }
        if let Some(n) = s.strip_prefix("uniform:") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("invalid world size in {s:?}: expected uniform:N"))?;
            if n == 0 {
                return Err("uniform world needs at least one host".into());
            }
            return Ok(WorldKind::Uniform(n));
        }
        Err(format!("unknown world {s:?}: expected table1 or uniform:N"))
    }
}

impl FromStr for WorldKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WorldKind::parse(s)
    }
}

impl fmt::Display for WorldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldKind::Table1 => write!(f, "table1"),
            WorldKind::Uniform(n) => write!(f, "uniform:{n}"),
        }
    }
}

/// A seeded world in which any site is a pure function of its host name.
///
/// Construction is O(overlays) — the 36 paper sites — regardless of the
/// enumerable world size: a `uniform:1000000` universe allocates nothing
/// for its million procedural hosts until each is derived.
pub struct Universe {
    seed: u64,
    kind: WorldKind,
    /// The pinned paper sites, keyed by host. `BTreeMap` so Table-1
    /// enumeration order (lexicographic) falls out of iteration.
    overlays: BTreeMap<String, Arc<SiteSpec>>,
    /// Table-1 hosts in enumeration order (the overlay keys that belong to
    /// the Table-1 population — Table 2's pinned hosts resolve but are not
    /// enumerated, exactly like the old `EmbeddedWorld`).
    table1_hosts: Vec<String>,
}

impl Universe {
    /// Creates a universe with the given seed and enumerable world kind.
    pub fn new(seed: u64, kind: WorldKind) -> Self {
        let mut overlays = BTreeMap::new();
        let mut table1_hosts = Vec::new();
        for spec in table1_population(seed) {
            table1_hosts.push(spec.domain.clone());
            overlays.insert(spec.domain.clone(), Arc::new(spec));
        }
        table1_hosts.sort_unstable();
        for spec in table2_population(seed) {
            overlays.insert(spec.domain.clone(), Arc::new(spec));
        }
        Universe { seed, kind, overlays, table1_hosts }
    }

    /// The paper's Table-1 world (the service default).
    pub fn table1(seed: u64) -> Self {
        Universe::new(seed, WorldKind::Table1)
    }

    /// A procedural world of `n` hosts.
    pub fn uniform(seed: u64, n: u64) -> Self {
        Universe::new(seed, WorldKind::Uniform(n))
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The enumerable world kind.
    pub fn kind(&self) -> WorldKind {
        self.kind
    }

    /// Number of enumerable hosts.
    pub fn host_count(&self) -> u64 {
        match self.kind {
            WorldKind::Table1 => self.table1_hosts.len() as u64,
            WorldKind::Uniform(n) => n,
        }
    }

    /// The enumerable host at `index` in canonical order.
    pub fn host_at(&self, index: u64) -> Option<String> {
        match self.kind {
            WorldKind::Table1 => self.table1_hosts.get(index as usize).cloned(),
            WorldKind::Uniform(n) => (index < n).then(|| uniform_host(index)),
        }
    }

    /// The canonical-order index of an enumerable host. Pinned overlay
    /// hosts outside the enumerable set (for example Table 2's `p1.example`
    /// in a uniform world) have no index.
    pub fn index_of(&self, host: &str) -> Option<u64> {
        match self.kind {
            WorldKind::Table1 => {
                self.table1_hosts.binary_search_by(|h| h.as_str().cmp(host)).ok().map(|i| i as u64)
            }
            WorldKind::Uniform(n) => uniform_index(host).filter(|&i| i < n),
        }
    }

    /// Whether `host` exists in this universe (overlay or enumerable),
    /// without deriving its spec.
    pub fn contains(&self, host: &str) -> bool {
        self.overlays.contains_key(host) || self.index_of(host).is_some()
    }

    /// Derives the site for `host`: the pinned overlay spec if the host is
    /// a paper site, a procedurally derived spec if it is an enumerable
    /// uniform host, `None` otherwise.
    pub fn derive(&self, host: &str) -> Option<Arc<SiteSpec>> {
        if let Some(spec) = self.overlays.get(host) {
            return Some(Arc::clone(spec));
        }
        let index = self.index_of(host)?;
        let WorldKind::Uniform(_) = self.kind else { return None };
        let key = host_key(self.seed, host);
        let mut rng = StdRng::seed_from_u64(key);
        let site = SiteSpec::new(
            host.to_string(),
            Category::ALL[(index as usize) % Category::ALL.len()],
            key,
        );
        Some(Arc::new(population::procedural_shape(&mut rng, site)))
    }

    /// Keyset pagination over the enumerable hosts in canonical order:
    /// up to `limit` hosts strictly after `after` (or from the start when
    /// `after` is `None`). Returns `None` for an unknown cursor.
    pub fn hosts_after(&self, after: Option<&str>, limit: usize) -> Option<Vec<String>> {
        let start = match after {
            None => 0,
            Some(host) => self.index_of(host)? + 1,
        };
        let end = self.host_count().min(start.saturating_add(limit as u64));
        Some((start..end).map(|i| self.host_at(i).expect("index < host_count")).collect())
    }
}

/// The enumerable host name for `index` in a uniform world.
pub fn uniform_host(index: u64) -> String {
    let slug = Category::ALL[(index as usize) % Category::ALL.len()].slug();
    format!("{slug}-u{index}.example")
}

/// Inverse of [`uniform_host`]: `Some(index)` iff `host` is exactly the
/// canonical spelling for some index (slug consistent with `index % |C|`).
fn uniform_index(host: &str) -> Option<u64> {
    let stem = host.strip_suffix(".example")?;
    let (_, digits) = stem.rsplit_once("-u")?;
    if digits.is_empty() || digits.len() > 19 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // No leading zeros: every index has exactly one canonical spelling.
    if digits.len() > 1 && digits.starts_with('0') {
        return None;
    }
    let index: u64 = digits.parse().ok()?;
    (host == uniform_host(index)).then_some(index)
}

/// The per-host derivation key: FNV-1a over the host bytes, offset by the
/// world seed. This is the seed of the RNG that draws the site shape *and*
/// the derived spec's `seed` field, so renders, cookies, and noise are all
/// pure functions of `(world_seed, host)`.
fn host_key(world_seed: u64, host: &str) -> u64 {
    let mut h = FNV_BASIS ^ world_seed.rotate_left(17);
    for b in host.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`HostResolver`] backed by a [`Universe`]: lets a [`SimNetwork`]
/// serve any host in the universe without registering servers up front.
///
/// Derived [`SiteServer`]s are memoized so repeat visits to a host reuse
/// one server (and its noise RNG stream); the memo is cleared wholesale
/// when it reaches `capacity`, bounding memory on huge worlds.
pub struct UniverseResolver {
    universe: Arc<Universe>,
    servers: Mutex<HashMap<String, (Arc<SiteServer>, LatencyModel)>>,
    capacity: usize,
}

impl UniverseResolver {
    /// Creates a resolver with the default memo capacity (1024 servers).
    pub fn new(universe: Arc<Universe>) -> Self {
        UniverseResolver::with_capacity(universe, 1024)
    }

    /// Creates a resolver whose server memo holds at most `capacity`
    /// entries before being reset.
    pub fn with_capacity(universe: Arc<Universe>, capacity: usize) -> Self {
        UniverseResolver {
            universe,
            servers: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
        }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Convenience: a network whose unregistered hosts resolve against
    /// `universe`.
    pub fn network(universe: Arc<Universe>, latency_seed: u64) -> SimNetwork {
        SimNetwork::new(latency_seed).with_resolver(Arc::new(UniverseResolver::new(universe)))
    }
}

impl HostResolver for UniverseResolver {
    fn resolve(&self, host: &str) -> Option<(Arc<dyn Server>, LatencyModel)> {
        let mut servers = self.servers.lock();
        if let Some((server, latency)) = servers.get(host) {
            return Some((Arc::clone(server) as Arc<dyn Server>, latency.clone()));
        }
        let spec = self.universe.derive(host)?;
        let server = Arc::new(SiteServer::new((*spec).clone()));
        let latency = server.latency_model();
        if servers.len() >= self.capacity {
            servers.clear();
        }
        servers.insert(host.to_string(), (Arc::clone(&server), latency.clone()));
        Some((server, latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_cookies::SimTime;
    use cp_net::{Method, Request, Url};

    #[test]
    fn world_kind_parses_and_displays() {
        assert_eq!(WorldKind::parse("table1"), Ok(WorldKind::Table1));
        assert_eq!(WorldKind::parse("uniform:42"), Ok(WorldKind::Uniform(42)));
        assert_eq!("uniform:1000000".parse(), Ok(WorldKind::Uniform(1_000_000)));
        assert!(WorldKind::parse("uniform:0").is_err());
        assert!(WorldKind::parse("uniform:x").is_err());
        assert!(WorldKind::parse("zipf").is_err());
        assert_eq!(WorldKind::Uniform(9).to_string(), "uniform:9");
        assert_eq!(WorldKind::Table1.to_string(), "table1");
    }

    #[test]
    fn overlays_match_materialized_populations() {
        for seed in [7u64, 42, 12345] {
            let u = Universe::table1(seed);
            for spec in table1_population(seed).iter().chain(table2_population(seed).iter()) {
                let derived = u.derive(&spec.domain).expect("overlay host resolves");
                assert_eq!(&*derived, spec, "overlay drift for {}", spec.domain);
            }
        }
    }

    #[test]
    fn table1_enumeration_is_sorted_and_complete() {
        let u = Universe::table1(7);
        assert_eq!(u.host_count(), 30);
        let hosts = u.hosts_after(None, 100).unwrap();
        assert_eq!(hosts.len(), 30);
        let mut sorted = hosts.clone();
        sorted.sort_unstable();
        assert_eq!(hosts, sorted);
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(u.index_of(h), Some(i as u64));
            assert_eq!(u.host_at(i as u64).as_deref(), Some(h.as_str()));
        }
        // Table-2 pins resolve but are not enumerable.
        assert!(u.derive("p1.example").is_some());
        assert_eq!(u.index_of("p1.example"), None);
    }

    #[test]
    fn uniform_hosts_round_trip() {
        let u = Universe::uniform(7, 1_000_000);
        assert_eq!(u.host_count(), 1_000_000);
        for index in [0u64, 1, 14, 15, 999_999] {
            let host = u.host_at(index).unwrap();
            assert_eq!(u.index_of(&host), Some(index), "{host}");
            assert!(u.contains(&host));
        }
        assert_eq!(u.host_at(1_000_000), None);
        assert!(u.derive("news-u1000000.example").is_none(), "beyond world size");
        assert!(u.derive("nope.example").is_none());
        // Non-canonical spellings of a valid index do not resolve.
        assert!(u.derive("news-u01.example").is_none());
        assert!(u.derive("sports-u0.example").is_none(), "wrong slug for index 0");
    }

    #[test]
    fn uniform_derivation_is_deterministic_and_bounded() {
        let a = Universe::uniform(7, 1000);
        let b = Universe::uniform(7, 1000);
        for index in 0..50u64 {
            let host = uniform_host(index);
            let sa = a.derive(&host).unwrap();
            let sb = b.derive(&host).unwrap();
            assert_eq!(*sa, *sb, "derivation must be a pure function of (seed, host)");
            assert_eq!(sa.domain, host);
            // Same shape contract as random_site: 1–5 persistent cookies,
            // at most one useful, never bursty.
            assert!((1..=5).contains(&sa.persistent_count()), "{host}");
            assert!(sa.useful_cookie_names().len() <= 1, "{host}");
            assert_eq!(sa.noise.structural_burst_prob, 0.0, "{host}");
        }
        // A different world seed derives a different world.
        let c = Universe::uniform(8, 1000);
        let host = uniform_host(3);
        assert_ne!(*a.derive(&host).unwrap(), *c.derive(&host).unwrap());
    }

    #[test]
    fn pagination_walks_the_world_exactly_once() {
        let u = Universe::uniform(7, 47);
        let mut seen = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let page = u.hosts_after(cursor.as_deref(), 10).unwrap();
            if page.is_empty() {
                break;
            }
            cursor = page.last().cloned();
            seen.extend(page);
        }
        assert_eq!(seen.len(), 47);
        assert_eq!(seen, (0..47).map(uniform_host).collect::<Vec<_>>());
        assert_eq!(u.hosts_after(Some("not-a-host.example"), 10), None, "unknown cursor");
    }

    #[test]
    fn resolver_serves_derived_sites_over_the_network() {
        let universe = Arc::new(Universe::uniform(7, 100));
        let net = UniverseResolver::network(Arc::clone(&universe), 7);
        let host = uniform_host(12);
        // "/page/1" is a container page on every layout (the front page may
        // be an entry redirect on ~15% of procedural sites).
        let req = Request::new(Method::Get, Url::parse(&format!("http://{host}/page/1")).unwrap());
        let out = net.fetch(&req, SimTime::EPOCH).unwrap();
        assert!(out.response.status.is_success());
        assert!(!out.response.body.is_empty());
        // The same fetch twice reuses the memoized server.
        let again = net.fetch(&req, SimTime::EPOCH).unwrap();
        assert!(again.response.status.is_success());
        // Out-of-world hosts stay unknown.
        let bad = Request::new(Method::Get, Url::parse("http://zzz.example/").unwrap());
        assert!(net.fetch(&bad, SimTime::EPOCH).is_err());
    }
}
