#!/usr/bin/env sh
# Kill-recovery harness: prove the durable store survives `kill -9` under
# injected storage faults, losing nothing it acked and inventing nothing.
#
# Phases and gates:
#
#   1. oracle     — an in-memory server takes the full seeded load; its
#                   mark set is the reference and its rps the baseline.
#   2. durable    — a `--data-dir --fsync batch` server takes the *same*
#                   load: marks must be byte-identical to the oracle, the
#                   WAL must have journaled records, and a clean restart
#                   must replay zero records (the shutdown snapshot covers
#                   the log). Full profile only: durable rps must hold
#                   0.7x the in-memory baseline.
#   3. crash      — a fresh durable server with deterministic storage
#                   faults (short writes, torn records, failed fsync,
#                   ENOSPC) is killed with SIGKILL mid-load; faults must
#                   actually have fired before the kill.
#   4. recover    — a restart on the crashed dir must replay a non-empty
#                   WAL tail and serve a mark set with no acked mark lost
#                   (client acks are a lower bound: every response the
#                   load generator saw was written after the WAL append)
#                   and zero marks invented vs the oracle.
#   5. replay     — recovering a byte-for-byte copy of the crashed dir
#                   yields the identical mark set (recovery is a pure
#                   function of the bytes on disk), and a clean restart
#                   after recovery replays zero records.
#
# Usage: scripts/crash.sh [requests] [threads] [seed] [fault_rate]
#   SMOKE=1 scripts/crash.sh    # tiny CI profile (~15s): 2k requests,
#                               # report goes to /tmp, repo untouched,
#                               # throughput gate skipped (too noisy)
set -eu

cd "$(dirname "$0")/.."

REQUESTS="${1:-20000}"
THREADS="${2:-4}"
SEED="${3:-7}"
RATE="${4:-0.2}"
OUT="BENCH_crash.json"
GATE_RPS=1
if [ "${SMOKE:-0}" = "1" ]; then
    REQUESTS=2000
    OUT="$(mktemp /tmp/bench_crash.XXXXXX.json)"
    GATE_RPS=0
fi

export CARGO_NET_OFFLINE=true
cargo build --release --quiet
BIN=target/release/cookiepicker

WORK="$(mktemp -d /tmp/cp_crash.XXXXXX)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# The serve banner prints (and flushes) the bound address; poll for it.
# Sets PORT, fails the run if the server never comes up.
await_port() {
    PORT=""
    for _ in $(seq 1 50); do
        # The log appears only once the backgrounded process opens its
        # redirect; until then the process is simply not up yet.
        [ -f "$1" ] && PORT="$(sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$1")"
        [ -n "$PORT" ] && return 0
        sleep 0.1
    done
    echo "crash: server did not start:"
    cat "$1"
    exit 1
}

# Graceful stop through the shutdown endpoint: drains in-flight work,
# flushes the WAL, and writes the final snapshot before the process exits.
stop_server() {
    "$BIN" get --port "$PORT" --post /v1/shutdown >/dev/null
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

rps_of() {
    sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' "$1"
}

# ---- Phase 1: in-memory oracle --------------------------------------------
ORACLE_LOG="$WORK/oracle.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" >"$ORACLE_LOG" &
SERVER_PID=$!
await_port "$ORACLE_LOG"
"$BIN" loadgen --port "$PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$WORK/oracle.json" --marks-out "$WORK/oracle.marks" >/dev/null
stop_server
MEM_RPS="$(rps_of "$WORK/oracle.json")"
[ -s "$WORK/oracle.marks" ] || { echo "crash: oracle run marked nothing"; exit 1; }

# ---- Phase 2: durable baseline (fault-free) -------------------------------
DUR_LOG="$WORK/durable.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/base" --fsync batch >"$DUR_LOG" &
SERVER_PID=$!
await_port "$DUR_LOG"
"$BIN" loadgen --port "$PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$WORK/durable.json" --marks-out "$WORK/durable.marks" >/dev/null
stop_server
DUR_RPS="$(rps_of "$WORK/durable.json")"

FAIL=0
cmp -s "$WORK/oracle.marks" "$WORK/durable.marks" \
    || { echo "crash: durability changed the mark set (must be a pure journaling layer)"; FAIL=1; }
grep -q '"status_5xx": 0' "$WORK/durable.json" \
    || { echo "crash: durable baseline saw 5xx responses"; FAIL=1; }
grep -q '"wal_records": 0' "$WORK/durable.json" \
    && { echo "crash: durable baseline journaled nothing"; FAIL=1; }

# Clean restart on the same dir: the shutdown snapshot covers the WAL.
DUR2_LOG="$WORK/durable_restart.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/base" --fsync batch >"$DUR2_LOG" &
SERVER_PID=$!
await_port "$DUR2_LOG"
grep -q "replayed 0 records" "$DUR2_LOG" \
    || { echo "crash: clean restart replayed records:"; cat "$DUR2_LOG"; FAIL=1; }
stop_server

# ---- Phase 3: kill -9 mid-load with storage faults ------------------------
CRASH_LOG="$WORK/crash.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/crashed" --fsync batch \
    --storage-fault-rate "$RATE" --storage-fault-seed "$SEED" >"$CRASH_LOG" &
SERVER_PID=$!
await_port "$CRASH_LOG"
# An oversized request budget guarantees the generator is still mid-flight
# at the kill; after the SIGKILL it drains fast on connection-refused.
"$BIN" loadgen --port "$PORT" --threads "$THREADS" --requests "$((REQUESTS * 50))" \
    --seed "$SEED" --marks-out "$WORK/acked.marks" >/dev/null &
LOADGEN_PID=$!
sleep 1
WAL_FAULTS="$("$BIN" get --port "$PORT" /metrics \
    | awk -F' ' '/^cp_wal_faults_total/ { sum += $2 } END { print sum + 0 }')"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
wait "$LOADGEN_PID" || true
[ "$WAL_FAULTS" -gt 0 ] \
    || { echo "crash: no storage faults fired before the kill (rate $RATE)"; FAIL=1; }
[ -s "$WORK/acked.marks" ] \
    || { echo "crash: no marks were acked before the kill"; FAIL=1; }
cp -r "$WORK/crashed" "$WORK/crashed_copy"

# ---- Phase 4: recover the crashed dir -------------------------------------
REC_LOG="$WORK/recover.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/crashed" --fsync batch >"$REC_LOG" &
SERVER_PID=$!
await_port "$REC_LOG"
REPLAYED="$(sed -n 's/.*replayed \([0-9]*\) records.*/\1/p' "$REC_LOG")"
RECOVERY_MS="$(sed -n 's/.* in \([0-9.]*\) ms.*/\1/p' "$REC_LOG")"
[ -n "$REPLAYED" ] && [ "$REPLAYED" -gt 0 ] \
    || { echo "crash: kill -9 left no WAL tail to replay:"; cat "$REC_LOG"; FAIL=1; }
"$BIN" get --port "$PORT" /v1/marks >"$WORK/recovered.marks"

# Gate: no acked mark lost. Every mark the client saw acknowledged was
# WAL-appended before the response was written, so acked is a lower bound
# on what recovery must restore.
LOST="$(comm -23 "$WORK/acked.marks" "$WORK/recovered.marks")"
if [ -n "$LOST" ]; then
    echo "crash: recovery lost acked marks:"
    echo "$LOST"
    FAIL=1
fi
# Gate: zero invented marks. The recovered set may exceed the acked set
# (a mark can be journaled but its response lost to the kill), yet every
# recovered mark must be one the fault-free oracle also makes.
INVENTED="$(comm -23 "$WORK/recovered.marks" "$WORK/oracle.marks")"
if [ -n "$INVENTED" ]; then
    echo "crash: recovery invented marks the oracle never made:"
    echo "$INVENTED"
    FAIL=1
fi
stop_server

# Clean restart after recovery: the post-recovery snapshot covers the log.
REC2_LOG="$WORK/recover_restart.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/crashed" --fsync batch >"$REC2_LOG" &
SERVER_PID=$!
await_port "$REC2_LOG"
grep -q "replayed 0 records" "$REC2_LOG" \
    || { echo "crash: restart after recovery replayed records:"; cat "$REC2_LOG"; FAIL=1; }
stop_server

# ---- Phase 5: recovery is deterministic -----------------------------------
REC3_LOG="$WORK/recover_copy.log"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --data-dir "$WORK/crashed_copy" --fsync batch >"$REC3_LOG" &
SERVER_PID=$!
await_port "$REC3_LOG"
"$BIN" get --port "$PORT" /v1/marks >"$WORK/recovered_copy.marks"
cmp -s "$WORK/recovered.marks" "$WORK/recovered_copy.marks" \
    || { echo "crash: two recoveries of the same bytes diverged"; FAIL=1; }
stop_server

# Zero panics anywhere, including the killed server's partial log.
if grep -q "panicked" "$WORK"/*.log; then
    echo "crash: server panicked:"
    grep "panicked" "$WORK"/*.log
    FAIL=1
fi

[ "$FAIL" = "0" ] || { echo "crash: FAILED"; exit 1; }

# ---- Report + throughput gate ---------------------------------------------
ACKED_N="$(wc -l <"$WORK/acked.marks" | tr -d ' ')"
RECOVERED_N="$(wc -l <"$WORK/recovered.marks" | tr -d ' ')"
ORACLE_N="$(wc -l <"$WORK/oracle.marks" | tr -d ' ')"
RATIO="$(awk -v dur="$DUR_RPS" -v mem="$MEM_RPS" \
    'BEGIN { printf "%.3f", (mem + 0 > 0) ? dur / mem : 0 }')"
cat >"$OUT" <<EOF
{
  "requests": $REQUESTS,
  "threads": $THREADS,
  "seed": $SEED,
  "storage_fault_rate": $RATE,
  "in_memory_rps": $MEM_RPS,
  "durable_batch_rps": $DUR_RPS,
  "durable_over_in_memory": $RATIO,
  "crash": {
    "wal_faults_before_kill": $WAL_FAULTS,
    "records_replayed": $REPLAYED,
    "recovery_ms": $RECOVERY_MS,
    "acked_marks": $ACKED_N,
    "recovered_marks": $RECOVERED_N,
    "oracle_marks": $ORACLE_N
  }
}
EOF

# The durability tax is bounded: group-committed batch fsync must keep at
# least 0.7x the in-memory throughput. SMOKE runs are too short for a
# stable ratio, so the gate applies to the full profile only.
if [ "$GATE_RPS" = "1" ]; then
    awk -v dur="$DUR_RPS" -v mem="$MEM_RPS" 'BEGIN {
        if (dur + 0 < 0.7 * (mem + 0)) {
            printf "crash: durable throughput too low: %s rps vs %s rps in-memory\n", dur, mem
            exit 1
        }
    }'
fi

echo "crash: ${ACKED_N} acked / ${RECOVERED_N} recovered / ${ORACLE_N} oracle marks;" \
    "replayed ${REPLAYED} records in ${RECOVERY_MS} ms; durable/in-memory rps ${RATIO}"
echo "crash: report written to $OUT"
