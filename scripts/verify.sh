#!/usr/bin/env sh
# Tier-1 verification: the workspace must build and test fully offline.
#
# The build graph is hermetic by design (no registry dependencies — see
# DESIGN.md §6), so this runs with the network explicitly disabled to catch
# any accidental reintroduction of a crates.io dependency.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Doc comments must build without warnings: a broken intra-doc link, or a
# public doc linking to a private item, fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release --workspace
cargo test -q --workspace

# The benchmark harness builds against cp-serve's public API in its own
# workspace: testing it here makes an API change that breaks the
# benchmark fail verification instead of the benchmark run. Being its
# own workspace, it is also outside the fmt and clippy runs above.
cargo fmt --check --manifest-path perfbench/harness/Cargo.toml
cargo clippy --manifest-path perfbench/harness/Cargo.toml --all-targets -- -D warnings
cargo test --manifest-path perfbench/harness/Cargo.toml

# Serve smoke: a short multi-connection loadgen run against the readiness
# loop — gates on zero 5xx and an exact client/server counter match.
SMOKE=1 ./scripts/bench_serve.sh

# Detection bench smoke: times nothing meaningful in CI but proves the
# compiled pipeline still reproduces the reference bit-for-bit (the
# binary gates on equivalence before any timing).
SMOKE=1 ./scripts/bench_detect.sh

# World smoke: a lazily derived 100k-host world under Zipf load — gates
# on zero 5xx, bounded RSS, and observed on-demand derivations.
SMOKE=1 ./scripts/bench_world.sh

# Chaos smoke: fault-injected serve run vs a fault-free oracle — gates on
# zero invented marks, zero panics, and a clean transport tally.
SMOKE=1 ./scripts/chaos.sh

# Crash smoke: kill -9 a durable server mid-load under injected storage
# faults — gates on no acked mark lost, zero invented marks, deterministic
# recovery, and a replay-free clean restart.
SMOKE=1 ./scripts/crash.sh

# Crawl smoke: the autonomous frontier scheduler converges the Table-1
# world to the paper's 103/7/3 with zero loadgen — gates on bit-identical
# same-seed runs, the visits/sec floor at flat RSS, and zero panics.
SMOKE=1 ./scripts/bench_crawl.sh

# Cluster smoke: kill -9 the replicated primary mid-load behind the
# router, then the self-healing gates — a chaos-proxy partition that must
# heal by backlog resync with no acked mark lost, a killed-and-restarted
# follower that must reconverge hands-off, and a stalled follower that
# must be demoted within the ack deadline instead of blocking writes.
SMOKE=1 ./scripts/cluster.sh

echo "verify: fmt + clippy + rustdoc + build + tests + harness fmt + clippy + tests + serve smoke + detect smoke + world smoke + chaos smoke + crash smoke + crawl smoke + cluster smoke passed offline"
