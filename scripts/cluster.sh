#!/usr/bin/env sh
# Cluster failover harness: prove the WAL-shipped replication tier loses
# no acked mark when the primary dies, invents nothing, and fences a
# stale primary on rejoin.
#
# Phases and gates:
#
#   1. oracle      — a single in-memory server takes the full seeded load;
#                    its mark set is the reference and its rps the
#                    single-node baseline.
#   2. determinism — a 3-node cluster behind the router takes the *same*
#                    load, twice from scratch: both runs' mark sets must
#                    be byte-identical to each other and to the oracle
#                    (replication is invisible to the contract).
#   3. failover    — a fresh 3-node cluster takes the load while the
#                    primary is SIGKILLed mid-run. The router must detect
#                    the death, promote the most-caught-up follower, and
#                    the load generator must ride the blackout on its 503
#                    retry budget. Gates: zero acked marks lost (the
#                    report's lost_acks and a comm -23 against the final
#                    dump), zero marks invented vs the oracle, at least
#                    one failover counted.
#   4. rejoin      — restarting the dead primary's role at its old
#                    generation against the survivors must be fenced: the
#                    server refuses to start and names the fence.
#   5. partition   — a primary leads a follower through the seeded chaos
#                    proxy (cp-chaos-proxy); the schedule cuts the link
#                    mid-load and heals it. Gates: the follower converges
#                    to the primary's applied sequence automatically (no
#                    restart, no operator), no acked mark is lost or
#                    invented across partition → heal → resync, and the
#                    backlog replay is visible in cp_repl_resync_total.
#   6. restart     — the follower is SIGKILLed and restarted empty at its
#                    old replication port. The primary's maintenance
#                    thread must redial and walk it back up the resync
#                    ladder (backlog replay or snapshot bootstrap) until
#                    it converges, hands-off.
#   7. stall       — a second follower is stalled (bytes stop, connection
#                    stays up) through the proxy while quorum load runs.
#                    Gates: the stalled peer is demoted within the ack
#                    deadline (cp_repl_slow_demotions_total), the worst
#                    client write stays far under the old 5 s stream
#                    timeout, and the peer catches up after the heal.
#
# Usage: scripts/cluster.sh [requests] [threads] [seed]
#   SMOKE=1 scripts/cluster.sh   # tiny CI profile: 2k requests, report
#                                # goes to /tmp, repo untouched
set -eu

cd "$(dirname "$0")/.."

REQUESTS="${1:-20000}"
THREADS="${2:-4}"
SEED="${3:-7}"
OUT="BENCH_cluster.json"
if [ "${SMOKE:-0}" = "1" ]; then
    REQUESTS=2000
    OUT="$(mktemp /tmp/bench_cluster.XXXXXX.json)"
fi

export CARGO_NET_OFFLINE=true
cargo build --release --quiet
BIN=target/release/cookiepicker

WORK="$(mktemp -d /tmp/cp_cluster.XXXXXX)"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# The serve/route banner prints (and flushes) the bound address; poll for
# it. Sets PORT, fails the run if the process never comes up.
await_port() {
    PORT=""
    for _ in $(seq 1 50); do
        # The log appears only once the backgrounded process opens its
        # redirect; until then the process is simply not up yet.
        [ -f "$1" ] && PORT="$(sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$1")"
        [ -n "$PORT" ] && return 0
        sleep 0.1
    done
    echo "cluster: process did not start:"
    cat "$1"
    exit 1
}

# Starts one replication-capable node (extra serve flags pass through);
# sets NODE_PID, NODE_PORT, NODE_REPL.
start_node() {
    NODE_LOG="$1"
    shift
    "$BIN" serve --port 0 --seed "$SEED" --workers 2 --repl-port 0 "$@" >"$NODE_LOG" &
    NODE_PID=$!
    PIDS="$PIDS $NODE_PID"
    await_port "$NODE_LOG"
    NODE_PORT="$PORT"
    NODE_REPL="$(sed -n 's/.*replication on [0-9.]*:\([0-9]*\).*/\1/p' "$NODE_LOG")"
    [ -n "$NODE_REPL" ] || { echo "cluster: no replication banner in $NODE_LOG"; cat "$NODE_LOG"; exit 1; }
}

# Starts the chaos proxy in front of $2 with schedule $3; sets PROXY_PID,
# PROXY_PORT. Phase transitions land in the log for await_phase.
start_proxy() {
    "$BIN" chaos-proxy --target "127.0.0.1:$2" --schedule "$3" --seed "$SEED" >"$1" 2>&1 &
    PROXY_PID=$!
    PIDS="$PIDS $PROXY_PID"
    PROXY_PORT=""
    for _ in $(seq 1 50); do
        [ -f "$1" ] && PROXY_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\) ->.*/\1/p' "$1")"
        [ -n "$PROXY_PORT" ] && return 0
        sleep 0.1
    done
    echo "cluster: chaos proxy did not start:"
    cat "$1"
    exit 1
}

# Waits until the proxy log shows at least $2 transitions into phase $3.
await_phase() {
    for _ in $(seq 1 200); do
        [ "$(grep -c "phase -> $3" "$1" || true)" -ge "$2" ] && return 0
        sleep 0.1
    done
    echo "cluster: proxy never reached phase $3 (x$2):"
    cat "$1"
    exit 1
}

seq_of() {
    "$BIN" get --port "$1" /healthz | sed -n 's/.*"replication_applied_seq":\([0-9]*\).*/\1/p'
}

metric_of() {
    "$BIN" get --port "$1" /metrics | sed -n "s/^$2 \([0-9][0-9]*\).*/\1/p"
}

now_ms() {
    echo $(( $(date +%s%N) / 1000000 ))
}

# Polls until metric $2 on node $1 reaches at least $3 (up to $4 s). Seq
# convergence can beat the counters: a snapshot bootstrap lands the
# follower at head *before* the primary's post-bootstrap redial counts
# the resync and raises the peer gauge, so gates poll rather than read.
await_metric_ge() {
    i=0
    while :; do
        V="$(metric_of "$1" "$2")"
        [ -n "$V" ] && [ "$V" -ge "$3" ] && return 0
        i=$((i + 1))
        if [ "$i" -ge $(( $4 * 10 )) ]; then
            echo "cluster: $5 ($2 stuck at ${V:-none})"
            return 1
        fi
        sleep 0.1
    done
}

# Polls until node $2's applied sequence matches node $1's (up to $3 s).
await_converged() {
    i=0
    while :; do
        SA="$(seq_of "$1")"
        SB="$(seq_of "$2" 2>/dev/null || true)"
        [ -n "$SA" ] && [ "$SA" = "$SB" ] && return 0
        i=$((i + 1))
        if [ "$i" -ge $(( $3 * 10 )) ]; then
            echo "cluster: $4 never converged (primary at ${SA:-?}, follower at ${SB:-?})"
            return 1
        fi
        sleep 0.1
    done
}

# Starts 3 nodes + the router (which leads node 1 at generation 1); sets
# N{1,2,3}_{PID,PORT,REPL} and ROUTER_{PID,PORT}.
start_cluster() {
    start_node "$WORK/$1-node1.log"
    N1_PID=$NODE_PID; N1_PORT=$NODE_PORT; N1_REPL=$NODE_REPL
    start_node "$WORK/$1-node2.log"
    N2_PID=$NODE_PID; N2_PORT=$NODE_PORT; N2_REPL=$NODE_REPL
    start_node "$WORK/$1-node3.log"
    N3_PID=$NODE_PID; N3_PORT=$NODE_PORT; N3_REPL=$NODE_REPL
    "$BIN" route --port 0 --workers "$THREADS" --heartbeat-ms 100 --miss-threshold 3 \
        --backend "127.0.0.1:$N1_PORT,127.0.0.1:$N1_REPL" \
        --backend "127.0.0.1:$N2_PORT,127.0.0.1:$N2_REPL" \
        --backend "127.0.0.1:$N3_PORT,127.0.0.1:$N3_REPL" >"$WORK/$1-router.log" &
    ROUTER_PID=$!
    PIDS="$PIDS $ROUTER_PID"
    await_port "$WORK/$1-router.log"
    ROUTER_PORT="$PORT"
}

# Graceful stop of one process through its shutdown endpoint.
stop_one() {
    "$BIN" get --port "$1" --post /v1/shutdown >/dev/null 2>&1 || true
    wait "$2" 2>/dev/null || true
}

stop_cluster() {
    stop_one "$ROUTER_PORT" "$ROUTER_PID"
    stop_one "$N1_PORT" "$N1_PID"
    stop_one "$N2_PORT" "$N2_PID"
    stop_one "$N3_PORT" "$N3_PID"
}

rps_of() {
    sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' "$1"
}

FAIL=0

# ---- Phase 1: single-node oracle ------------------------------------------
ORACLE_LOG="$WORK/oracle.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" >"$ORACLE_LOG" &
ORACLE_PID=$!
PIDS="$PIDS $ORACLE_PID"
await_port "$ORACLE_LOG"
"$BIN" loadgen --port "$PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$WORK/oracle.json" --marks-out "$WORK/oracle.marks" >/dev/null
stop_one "$PORT" "$ORACLE_PID"
SINGLE_RPS="$(rps_of "$WORK/oracle.json")"
[ -s "$WORK/oracle.marks" ] || { echo "cluster: oracle run marked nothing"; exit 1; }

# ---- Phase 2: same-seed cluster runs are bit-identical --------------------
for det in detA detB; do
    start_cluster "$det"
    "$BIN" loadgen --port "$ROUTER_PORT" --threads "$THREADS" --requests "$REQUESTS" \
        --seed "$SEED" --out "$WORK/$det.json" --marks-out "$WORK/$det.marks" >/dev/null
    stop_cluster
    grep -q '"status_5xx": 0' "$WORK/$det.json" \
        || { echo "cluster: steady-state run $det saw 5xx responses"; FAIL=1; }
    grep -q '"lost_acks": 0' "$WORK/$det.json" \
        || { echo "cluster: steady-state run $det lost acked marks"; FAIL=1; }
done
cmp -s "$WORK/detA.marks" "$WORK/detB.marks" \
    || { echo "cluster: two same-seed cluster runs diverged"; FAIL=1; }
cmp -s "$WORK/detA.marks" "$WORK/oracle.marks" \
    || { echo "cluster: replication changed the mark set vs the single-node oracle"; FAIL=1; }
CLUSTER_RPS="$(rps_of "$WORK/detA.json")"

# ---- Phase 3: kill -9 the primary mid-load --------------------------------
start_cluster fail
# A larger budget keeps the generator mid-flight at the kill; the 503
# retry budget (8 tries, doubling from 40 ms) outlasts any promotion.
"$BIN" loadgen --port "$ROUTER_PORT" --threads "$THREADS" --requests "$((REQUESTS * 5))" \
    --seed "$SEED" --retries 8 --backoff-ms 40 \
    --out "$WORK/failover.json" --marks-out "$WORK/acked.marks" >/dev/null &
LOADGEN_PID=$!
sleep 0.5
kill -9 "$N1_PID"
wait "$N1_PID" 2>/dev/null || true
wait "$LOADGEN_PID" || { echo "cluster: loadgen failed during failover"; FAIL=1; }

HEALTH="$("$BIN" get --port "$ROUTER_PORT" /healthz)"
FAILOVERS="$(printf '%s' "$HEALTH" | sed -n 's/.*"failovers":\([0-9]*\).*/\1/p')"
GENERATION="$(printf '%s' "$HEALTH" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')"
BLACKOUT_MS="$(printf '%s' "$HEALTH" | sed -n 's/.*"last_failover_blackout_ms":\([0-9]*\).*/\1/p')"
PROMOTION_SEQ="$(printf '%s' "$HEALTH" | sed -n 's/.*"last_promotion_seq":\([0-9]*\).*/\1/p')"
[ -n "$FAILOVERS" ] && [ "$FAILOVERS" -ge 1 ] \
    || { echo "cluster: router never failed over: $HEALTH"; FAIL=1; }
[ -n "$GENERATION" ] && [ "$GENERATION" -ge 2 ] \
    || { echo "cluster: promotion did not advance the generation: $HEALTH"; FAIL=1; }
"$BIN" get --port "$ROUTER_PORT" /metrics | grep -q '^cp_failover_total [1-9]' \
    || { echo "cluster: cp_failover_total never incremented"; FAIL=1; }

# Gate: the generator itself verified every acked mark against the final
# dump — lost_acks must be zero.
grep -q '"lost_acks": 0' "$WORK/failover.json" \
    || { echo "cluster: loadgen reported lost acked marks:"; \
         grep '"lost_acks"' "$WORK/failover.json"; FAIL=1; }
[ -s "$WORK/acked.marks" ] || { echo "cluster: no marks were acked before the kill"; FAIL=1; }

# Gate: no acked mark lost — every mark the client saw acknowledged must
# be in the promoted primary's final dump.
"$BIN" get --port "$ROUTER_PORT" /v1/marks >"$WORK/final.marks"
LOST="$(comm -23 "$WORK/acked.marks" "$WORK/final.marks")"
if [ -n "$LOST" ]; then
    echo "cluster: failover lost acked marks:"
    echo "$LOST"
    FAIL=1
fi
# Gate: zero invented marks. The final set may exceed the acked set (a
# record can replicate without its response surviving the kill), yet every
# mark must be one the fault-free single-node oracle also makes.
INVENTED="$(comm -23 "$WORK/final.marks" "$WORK/oracle.marks")"
if [ -n "$INVENTED" ]; then
    echo "cluster: failover invented marks the oracle never made:"
    echo "$INVENTED"
    FAIL=1
fi

# ---- Phase 4: the stale primary is fenced on rejoin -----------------------
# Restarting the dead primary's role at its old generation against the
# survivors must be refused: both survivors have witnessed generation 2.
REJOIN_LOG="$WORK/rejoin.log"
REJOIN_STATUS=0
"$BIN" serve --port 0 --seed "$SEED" --workers 2 --repl-generation 1 \
    --repl-follower "127.0.0.1:$N2_REPL" \
    --repl-follower "127.0.0.1:$N3_REPL" >"$REJOIN_LOG" 2>&1 || REJOIN_STATUS=$?
[ "$REJOIN_STATUS" -ne 0 ] \
    || { echo "cluster: stale-generation rejoin was accepted:"; cat "$REJOIN_LOG"; FAIL=1; }
grep -q "fenced" "$REJOIN_LOG" \
    || { echo "cluster: rejoin refusal did not name the fence:"; cat "$REJOIN_LOG"; FAIL=1; }
stop_cluster

# ---- Phase 5: partition → heal → automatic backlog resync -----------------
# B follows A through the chaos proxy. Ack policy `none` keeps A writable
# while the link is cut; after the scheduled heal, A's maintenance thread
# must redial and replay the gap from its in-memory backlog until B holds
# every acked mark — no restart, no operator action.
start_node "$WORK/heal-b.log"
HEAL_B_PID=$NODE_PID; HEAL_B_PORT=$NODE_PORT; HEAL_B_REPL=$NODE_REPL
start_proxy "$WORK/heal-proxy.log" "$HEAL_B_REPL" "open:4000,cut:2000,open:0"
HEAL_PROXY_PID=$PROXY_PID; HEAL_PROXY_PORT=$PROXY_PORT
start_node "$WORK/heal-a.log" --repl-ack none --repl-generation 1 \
    --repl-follower "127.0.0.1:$HEAL_PROXY_PORT"
HEAL_A_PID=$NODE_PID; HEAL_A_PORT=$NODE_PORT

"$BIN" loadgen --port "$HEAL_A_PORT" --threads "$THREADS" --requests "$((REQUESTS / 4))" \
    --seed "$SEED" --marks-out "$WORK/heal-acked1.marks" >/dev/null
await_phase "$WORK/heal-proxy.log" 1 cut
# The partition is up: these writes are acked by A alone and must survive
# the heal onto B. (The longer run re-walks the same deterministic mix,
# so its tail is genuinely new state the follower has never seen.)
"$BIN" loadgen --port "$HEAL_A_PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --marks-out "$WORK/heal-acked2.marks" >/dev/null
await_phase "$WORK/heal-proxy.log" 2 open

HEAL_T0="$(now_ms)"
await_converged "$HEAL_A_PORT" "$HEAL_B_PORT" 30 "partitioned follower" || FAIL=1
HEAL_CONVERGE_MS=$(( $(now_ms) - HEAL_T0 ))
"$BIN" get --port "$HEAL_A_PORT" /v1/marks >"$WORK/heal-a.marks"
"$BIN" get --port "$HEAL_B_PORT" /v1/marks >"$WORK/heal-b.marks"
sort -u "$WORK/heal-acked1.marks" "$WORK/heal-acked2.marks" >"$WORK/heal-acked.marks"
LOST="$(comm -23 "$WORK/heal-acked.marks" "$WORK/heal-b.marks")"
if [ -n "$LOST" ]; then
    echo "cluster: resynced follower lost acked marks:"
    echo "$LOST"
    FAIL=1
fi
cmp -s "$WORK/heal-a.marks" "$WORK/heal-b.marks" \
    || { echo "cluster: resynced follower diverged from the primary's mark set"; FAIL=1; }
await_metric_ge "$HEAL_A_PORT" cp_repl_resync_total 1 15 \
    "the heal never counted a resync" || FAIL=1
P5_RESYNCS="$(metric_of "$HEAL_A_PORT" cp_repl_resync_total)"
P5_RECORDS="$(metric_of "$HEAL_A_PORT" cp_repl_resync_records_total)"

# ---- Phase 6: follower kill -9 + restart → hands-off reconvergence --------
# The same pair keeps running: B dies hard, A keeps acking writes, B comes
# back *empty* on its old replication port. The maintenance redial must
# walk it up the resync ladder (backlog replay, or snapshot bootstrap when
# the ring no longer covers a from-zero restart) until it converges.
kill -9 "$HEAL_B_PID"
wait "$HEAL_B_PID" 2>/dev/null || true
"$BIN" loadgen --port "$HEAL_A_PORT" --threads "$THREADS" --requests "$((REQUESTS / 4))" \
    --seed "$SEED" >/dev/null
sleep 0.2
"$BIN" serve --port 0 --seed "$SEED" --workers 2 --repl-port "$HEAL_B_REPL" \
    >"$WORK/restart-b.log" &
RESTART_B_PID=$!
PIDS="$PIDS $RESTART_B_PID"
await_port "$WORK/restart-b.log"
RESTART_B_PORT="$PORT"

RESTART_T0="$(now_ms)"
await_converged "$HEAL_A_PORT" "$RESTART_B_PORT" 30 "restarted follower" || FAIL=1
RESTART_CONVERGE_MS=$(( $(now_ms) - RESTART_T0 ))
"$BIN" get --port "$HEAL_A_PORT" /v1/marks >"$WORK/restart-a.marks"
"$BIN" get --port "$RESTART_B_PORT" /v1/marks >"$WORK/restart-b.marks"
cmp -s "$WORK/restart-a.marks" "$WORK/restart-b.marks" \
    || { echo "cluster: restarted follower diverged from the primary's mark set"; FAIL=1; }
PEER_UP_OK=0
for _ in $(seq 1 150); do
    if "$BIN" get --port "$HEAL_A_PORT" /metrics | grep -q '^cp_repl_peer_up{peer="0"} 1'; then
        PEER_UP_OK=1
        break
    fi
    sleep 0.1
done
[ "$PEER_UP_OK" = "1" ] \
    || { echo "cluster: cp_repl_peer_up never recovered after the restart"; FAIL=1; }
P6_HINTS="$(metric_of "$HEAL_A_PORT" cp_repl_bootstrap_hints_total)"
stop_one "$HEAL_A_PORT" "$HEAL_A_PID"
stop_one "$RESTART_B_PORT" "$RESTART_B_PID"
kill -9 "$HEAL_PROXY_PID" 2>/dev/null || true

# ---- Phase 7: stalled follower cannot hold client writes hostage ----------
# A leads B directly and C through a proxy that goes silent (stall: bytes
# stop, connections stay up) mid-run. Quorum needs only one follower, so
# writes must keep flowing: the stalled peer is demoted within the ack
# deadline instead of blocking the shard lock for the 5 s stream timeout.
start_node "$WORK/stall-b.log"
STALL_B_PID=$NODE_PID; STALL_B_PORT=$NODE_PORT; STALL_B_REPL=$NODE_REPL
start_node "$WORK/stall-c.log"
STALL_C_PID=$NODE_PID; STALL_C_PORT=$NODE_PORT; STALL_C_REPL=$NODE_REPL
start_proxy "$WORK/stall-proxy.log" "$STALL_C_REPL" "open:1000,stall:3000,open:0"
STALL_PROXY_PID=$PROXY_PID; STALL_PROXY_PORT=$PROXY_PORT
start_node "$WORK/stall-a.log" --repl-ack quorum --repl-generation 1 \
    --repl-follower "127.0.0.1:$STALL_B_REPL" \
    --repl-follower "127.0.0.1:$STALL_PROXY_PORT"
STALL_A_PID=$NODE_PID; STALL_A_PORT=$NODE_PORT

await_phase "$WORK/stall-proxy.log" 1 stall
"$BIN" loadgen --port "$STALL_A_PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$WORK/stall.json" >/dev/null
P7_MAX_MICROS="$(sed -n 's/.*"max": \([0-9]*\).*/\1/p' "$WORK/stall.json")"
P7_DEMOTIONS="$(metric_of "$STALL_A_PORT" cp_repl_slow_demotions_total)"
P7_STALL_MAX="$(metric_of "$STALL_A_PORT" cp_repl_ack_stall_max_micros)"
[ -n "$P7_DEMOTIONS" ] && [ "$P7_DEMOTIONS" -ge 1 ] \
    || { echo "cluster: the stall never demoted the silent peer"; FAIL=1; }
[ -n "$P7_MAX_MICROS" ] && [ "$P7_MAX_MICROS" -lt 2500000 ] \
    || { echo "cluster: a client write stalled ${P7_MAX_MICROS:-?} us behind a silent peer"; FAIL=1; }
grep -q '"status_5xx": 0' "$WORK/stall.json" \
    || { echo "cluster: quorum writes failed while one follower was stalled"; FAIL=1; }

await_phase "$WORK/stall-proxy.log" 2 open
await_converged "$STALL_A_PORT" "$STALL_C_PORT" 30 "stalled follower" || FAIL=1
"$BIN" get --port "$STALL_A_PORT" /v1/marks >"$WORK/stall-a.marks"
"$BIN" get --port "$STALL_C_PORT" /v1/marks >"$WORK/stall-c.marks"
cmp -s "$WORK/stall-a.marks" "$WORK/stall-c.marks" \
    || { echo "cluster: the healed stalled follower diverged"; FAIL=1; }
stop_one "$STALL_A_PORT" "$STALL_A_PID"
stop_one "$STALL_B_PORT" "$STALL_B_PID"
stop_one "$STALL_C_PORT" "$STALL_C_PID"
kill -9 "$STALL_PROXY_PID" 2>/dev/null || true

# Zero panics anywhere, including the killed primary's partial log.
if grep -q "panicked" "$WORK"/*.log; then
    echo "cluster: a process panicked:"
    grep "panicked" "$WORK"/*.log
    FAIL=1
fi

[ "$FAIL" = "0" ] || { echo "cluster: FAILED"; exit 1; }

# ---- Report ---------------------------------------------------------------
ACKED_N="$(wc -l <"$WORK/acked.marks" | tr -d ' ')"
FINAL_N="$(wc -l <"$WORK/final.marks" | tr -d ' ')"
ORACLE_N="$(wc -l <"$WORK/oracle.marks" | tr -d ' ')"
RETRIED="$(sed -n 's/.*"retried_requests": \([0-9]*\).*/\1/p' "$WORK/failover.json")"
RESYNCS_OBS="$(sed -n 's/.*"resyncs_observed": \([0-9]*\).*/\1/p' "$WORK/failover.json")"
FAILOVER_STALL="$(sed -n 's/.*"max_ack_stall_micros": \([0-9]*\).*/\1/p' "$WORK/failover.json")"
RATIO="$(awk -v clu="$CLUSTER_RPS" -v one="$SINGLE_RPS" \
    'BEGIN { printf "%.3f", (one + 0 > 0) ? clu / one : 0 }')"
cat >"$OUT" <<EOF
{
  "requests": $REQUESTS,
  "threads": $THREADS,
  "seed": $SEED,
  "single_node_rps": $SINGLE_RPS,
  "cluster_rps": $CLUSTER_RPS,
  "cluster_over_single": $RATIO,
  "failover": {
    "failovers": $FAILOVERS,
    "generation": $GENERATION,
    "blackout_ms": ${BLACKOUT_MS:-0},
    "records_replayed": ${PROMOTION_SEQ:-0},
    "retried_requests": ${RETRIED:-0},
    "acked_marks": $ACKED_N,
    "final_marks": $FINAL_N,
    "oracle_marks": $ORACLE_N,
    "resyncs_observed": ${RESYNCS_OBS:-0},
    "max_ack_stall_micros": ${FAILOVER_STALL:-0}
  },
  "resync": {
    "partition_heal_converge_ms": ${HEAL_CONVERGE_MS:-0},
    "partition_resyncs": ${P5_RESYNCS:-0},
    "resync_records_replayed": ${P5_RECORDS:-0},
    "restart_converge_ms": ${RESTART_CONVERGE_MS:-0},
    "restart_bootstrap_hints": ${P6_HINTS:-0},
    "stall_demotions": ${P7_DEMOTIONS:-0},
    "stall_write_max_micros": ${P7_MAX_MICROS:-0},
    "max_ack_stall_micros": ${P7_STALL_MAX:-0}
  }
}
EOF

echo "cluster: ${ACKED_N} acked / ${FINAL_N} final / ${ORACLE_N} oracle marks;" \
    "failover blackout ${BLACKOUT_MS:-0} ms at promotion seq ${PROMOTION_SEQ:-0};" \
    "cluster/single rps ${RATIO}"
echo "cluster: partition healed in ${HEAL_CONVERGE_MS:-0} ms (${P5_RECORDS:-0} records replayed);" \
    "restart reconverged in ${RESTART_CONVERGE_MS:-0} ms;" \
    "stall demoted ${P7_DEMOTIONS:-0} peer(s), worst write ${P7_MAX_MICROS:-0} us"
echo "cluster: report written to $OUT"
