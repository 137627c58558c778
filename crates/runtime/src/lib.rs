//! `cp-runtime` — the hermetic platform layer of the CookiePicker
//! reproduction.
//!
//! Every crate in the workspace builds on this one instead of external
//! crates, so the default dependency graph is 100% in-tree and the whole
//! system compiles and tests with `CARGO_NET_OFFLINE=true` on a machine
//! that has never seen a crate registry. The modules mirror the external
//! APIs they replaced closely enough that call sites only swap imports:
//!
//! | module   | replaces           | provides |
//! |----------|--------------------|----------|
//! | [`rng`]  | `rand`             | SplitMix64-seeded xoshiro256++, `Rng` trait (`gen`, `gen_range`, `shuffle`, `sample`) |
//! | [`json`](mod@json) | `serde`/`serde_json` | [`json::Json`] value, strict parser, fixture-compatible writers, [`json!`] builder macro |
//! | [`par`]  | `crossbeam::scope` | [`par::par_map_indexed`] — ordered scoped fan-out with a worker cap |
//! | [`sync`] | `parking_lot`      | guard-returning `Mutex` / `RwLock` |
//! | [`lru`]  | `lru`              | [`lru::Lru`] — exact least-recently-used map, O(1) touch and eviction |
//! | [`metrics`] | `prometheus`    | atomic `Counter` / `Gauge` / latency `Histogram` for the service layer |
//! | [`net`]  | `mio`/`epoll` crates | [`net::Poller`] — level-triggered readiness polling via the libc std links (epoll on Linux, `poll(2)` on other unix targets) |
//!
//! Determinism is the design center: the PRNG stream is pinned by tests,
//! JSON output is byte-stable (sorted keys, shortest float repr), and
//! `par_map_indexed` returns results in input order regardless of thread
//! scheduling — so one seed always produces one report, byte for byte.

pub mod json;
pub mod lru;
pub mod metrics;
pub mod net;
pub mod par;
pub mod rng;
pub mod sync;
