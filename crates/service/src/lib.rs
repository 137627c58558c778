//! # cp-serve — the CookiePicker decision service
//!
//! A std-only HTTP/1.1 server on sharded event loops that puts the
//! detection engine behind real TCP:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/classify` | Figure-5 decision on a caller-provided page pair |
//! | `POST /v1/visit` | One FORCUM training step against the embedded world |
//! | `POST /v1/expire` | Drop decayed usefulness marks and restart training |
//! | `GET /v1/sites` | Keyset-paginated host listing (`after`, `limit`, `more`) |
//! | `GET /v1/sites/{host}` | Training summary for a site |
//! | `GET /v1/marks` | Sorted `host cookie` dump of every useful mark |
//! | `GET /healthz` | Liveness + recovery status + cluster role/generation |
//! | `GET /metrics` | Prometheus text exposition |
//! | `POST /v1/repl/lead` | Become primary: handshake the listed followers |
//! | `POST /v1/shutdown` | Graceful shutdown (drains, flushes, snapshots) |
//!
//! Layering: [`http`] is the wire (strict incremental HTTP/1.1 parser,
//! typed errors, never a panic), [`store`] is the host-sharded training
//! state, [`storage`]/[`wal`]/[`snapshot`] make it crash-safe (per-shard
//! write-ahead logs + atomic snapshots over a fault-injectable write
//! layer), [`world`] is the embedded deterministic site population,
//! [`metrics`] is the atomic registry, [`server`] wires them behind the
//! sharded readiness loop (epoll on Linux, `poll(2)` on other unix
//! targets; the only serving path, for the node and the router alike), and
//! [`loadgen`] is the seeded closed-loop client that benchmarks the whole
//! stack.
//!
//! Cluster mode layers on top: [`replication`] ships every applied WAL
//! record from a primary to its followers over the WAL's own frame format
//! (generation-fenced, ack-gated), and [`router`] is the thin tier that
//! consistent-hashes reads across backends, heartbeats them, and promotes
//! the most-caught-up follower when the primary dies. See `DESIGN.md` §15.

pub mod cache;
pub mod chaosproxy;
mod eventloop;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod replication;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod storage;
pub mod store;
pub mod wal;
pub mod world;

pub use cache::AnalysisCache;
pub use chaosproxy::{parse_schedule, ChaosProxy, Phase};
pub use cp_webworld::{Universe, WorldKind};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use replication::{ClusterState, ReplAckPolicy, Replicator, Role};
pub use router::{start_router, BackendAddr, RouterConfig, RouterHandle};
pub use server::{start, ServeConfig, ServerHandle};
pub use storage::StorageFaults;
pub use store::{DurabilityConfig, RecoveryStats, ShardedStore};
pub use wal::FsyncPolicy;
pub use world::{ChaosConfig, DerivedSite, EmbeddedWorld, DEFAULT_SITE_CACHE};
