#!/usr/bin/env bash
# Scripted otrepaird session: boots the daemon on a loopback port, drives a
# full client lifecycle (ping / load / plans / repair / info / evict), and
# pins the serving determinism contract by comparing the served bytes against
# an offline `otrepair apply` run with the same plan and seed, for a scalar
# and a joint plan.
#
# Run from the repository root after `cargo build --release --bins`:
#
#     bash ci/serve_session.sh
#
# Override BIN / DAEMON to point at different builds (e.g. debug binaries).
# Exits non-zero on any protocol drift, lifecycle failure, or byte mismatch.
set -euo pipefail

BIN=${BIN:-target/release/otrepair}
DAEMON=${DAEMON:-target/release/otrepaird}
FIXTURES=${FIXTURES:-ci/fixtures}
SEED=13

WORK=$(mktemp -d)
PID=""
PID2=""
PID3=""
cleanup() {
    for p in "$PID" "$PID2" "$PID3"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
        [ -n "$p" ] && wait "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== design a plan and produce the offline reference =="
"$BIN" design --research "$FIXTURES/research.csv" --out "$WORK/plan.json" --nq 24
"$BIN" apply --plan "$WORK/plan.json" --data "$FIXTURES/archive.csv" \
    --out "$WORK/offline.csv" --seed "$SEED"
"$BIN" design --joint --research "$FIXTURES/research.csv" --out "$WORK/joint.json"
"$BIN" apply --plan "$WORK/joint.json" --data "$FIXTURES/archive.csv" \
    --out "$WORK/joint-offline.csv" --seed "$SEED"

echo "== boot otrepaird on an ephemeral loopback port =="
"$DAEMON" --bind 127.0.0.1:0 --shards 7 --port-file "$WORK/port" &
PID=$!
for _ in $(seq 100); do
    [ -s "$WORK/port" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "otrepaird exited before publishing its port" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$WORK/port" ] || { echo "timed out waiting for port file" >&2; exit 1; }
ADDR=$(cat "$WORK/port")
echo "daemon is listening on $ADDR"

echo "== client session: ping / load / plans / repair / info / evict =="
"$BIN" client ping --addr "$ADDR" | grep -q pong
"$BIN" client load --addr "$ADDR" --plan "$WORK/plan.json" --name ci-plan --version 2
"$BIN" client plans --addr "$ADDR" | grep -q 'ci-plan@2'
"$BIN" client repair --addr "$ADDR" --name ci-plan \
    --data "$FIXTURES/archive.csv" --out "$WORK/served.csv" --seed "$SEED"
"$BIN" client info --addr "$ADDR" | grep -q '1 plans'
"$BIN" client evict --addr "$ADDR" --name ci-plan --version 2
"$BIN" client plans --addr "$ADDR" | grep -q 'no plans registered'

echo "== eviction must surface UnknownPlan to the client =="
if "$BIN" client repair --addr "$ADDR" --name ci-plan \
    --data "$FIXTURES/archive.csv" --out "$WORK/ghost.csv" --seed "$SEED" 2>"$WORK/err"; then
    echo "repair against an evicted plan unexpectedly succeeded" >&2
    exit 1
fi
grep -qi 'UnknownPlan' "$WORK/err"

echo "== serving determinism: served bytes == offline apply bytes =="
cmp "$WORK/offline.csv" "$WORK/served.csv"

echo "== joint plan: served bytes == offline apply bytes, no kind flag anywhere =="
"$BIN" client load --addr "$ADDR" --plan "$WORK/joint.json" --name ci-joint | grep -q '(joint)'
"$BIN" client plans --addr "$ADDR" | grep -q 'ci-joint@1  joint  dim=2'
"$BIN" client repair --addr "$ADDR" --name ci-joint \
    --data "$FIXTURES/archive.csv" --out "$WORK/joint-served.csv" --seed "$SEED"
cmp "$WORK/joint-offline.csv" "$WORK/joint-served.csv"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== overload probe: connections past --max-conns are rejected politely =="
"$DAEMON" --bind 127.0.0.1:0 --max-conns 2 --port-file "$WORK/port2" &
PID2=$!
for _ in $(seq 100); do
    [ -s "$WORK/port2" ] && break
    if ! kill -0 "$PID2" 2>/dev/null; then
        echo "overload-probe otrepaird exited before publishing its port" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$WORK/port2" ] || { echo "timed out waiting for port2 file" >&2; exit 1; }
ADDR2=$(cat "$WORK/port2")
HOST2=${ADDR2%:*}
PORT2=${ADDR2##*:}
echo "overload-probe daemon is listening on $ADDR2"

# Pin both governor slots with idle raw connections (max-conns + 1 total
# once the client connects), then assert the client's connection is
# rejected with the polite Overloaded error frame rather than hanging.
exec 3<>"/dev/tcp/$HOST2/$PORT2"
exec 4<>"/dev/tcp/$HOST2/$PORT2"
sleep 0.3 # let the daemon's accept loop account for both holds
if "$BIN" client ping --addr "$ADDR2" --retries 0 2>"$WORK/err2"; then
    echo "ping past --max-conns unexpectedly succeeded" >&2
    exit 1
fi
grep -qi 'Overloaded' "$WORK/err2"

# Release the holds; the retrying client must ride out the slot-release
# lag and the session must still complete end to end.
exec 3<&- 3>&-
exec 4<&- 4>&-
"$BIN" client ping --addr "$ADDR2" --retries 5 | grep -q pong
"$BIN" client load --addr "$ADDR2" --plan "$WORK/plan.json" --name ov-plan
"$BIN" client repair --addr "$ADDR2" --name ov-plan \
    --data "$FIXTURES/archive.csv" --out "$WORK/served-ov.csv" --seed "$SEED"
cmp "$WORK/offline.csv" "$WORK/served-ov.csv"
"$BIN" client info --addr "$ADDR2" | grep -q 'rejected overloaded'

kill "$PID2"
wait "$PID2" 2>/dev/null || true
PID2=""

echo "== drift lifecycle probe: watch / trip / hot-swap / audit =="
mkdir "$WORK/plans"
"$DAEMON" --bind 127.0.0.1:0 --plans "$WORK/plans" --port-file "$WORK/port3" &
PID3=$!
for _ in $(seq 100); do
    [ -s "$WORK/port3" ] && break
    if ! kill -0 "$PID3" 2>/dev/null; then
        echo "drift-probe otrepaird exited before publishing its port" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$WORK/port3" ] || { echo "timed out waiting for port3 file" >&2; exit 1; }
ADDR3=$(cat "$WORK/port3")
echo "drift-probe daemon is listening on $ADDR3"

"$BIN" client load --addr "$ADDR3" --plan "$WORK/plan.json" --name drift-plan --version 1
# A plan loaded over the wire must land in --plans too.
[ -f "$WORK/plans/drift-plan@1.json" ] || {
    echo "wire-loaded plan was not persisted to --plans" >&2
    exit 1
}
"$BIN" client watch --addr "$ADDR3" --name drift-plan \
    --threshold 0.2 --trips 2 --check-every 100 --min-rows 200 | grep -q 'watching drift-plan@1'

# Shift the archive fixture hard enough that the cumulative stratum
# histograms leave the plan's research marginals behind.
"$BIN" drift --data "$FIXTURES/archive.csv" --out "$WORK/drifted.csv" --mean-shift 3,3

# Stream the drifted archive through the watched plan until the monitor
# trips and the daemon hot-swaps (bounded rounds; each round feeds 600
# drifted rows past deterministic row-count checkpoints).
SWAPPED=""
for _ in $(seq 5); do
    "$BIN" client repair --addr "$ADDR3" --name drift-plan \
        --data "$WORK/drifted.csv" --out "$WORK/drift-served.csv" --seed "$SEED"
    if "$BIN" client drift --addr "$ADDR3" --name drift-plan | grep -q ', 1 swap(s)'; then
        SWAPPED=yes
        break
    fi
done
[ -n "$SWAPPED" ] || { echo "drifted stream never tripped the watch" >&2; exit 1; }

# The swap registered and persisted version 2, and the audit trail
# names the lineage.
"$BIN" client plans --addr "$ADDR3" | grep -q 'drift-plan@2'
"$BIN" client audit --addr "$ADDR3" --name drift-plan | grep -q 'drift-plan@2 <- drift-plan@1'
[ -f "$WORK/plans/drift-plan@2.json" ] || {
    echo "hot-swapped version was not persisted to --plans" >&2
    exit 1
}

echo "== swapped-in version serves bytes identical to offline apply of its artifact =="
"$BIN" apply --plan "$WORK/plans/drift-plan@2.json" --data "$FIXTURES/archive.csv" \
    --out "$WORK/offline-v2.csv" --seed "$SEED"
"$BIN" client repair --addr "$ADDR3" --name drift-plan --version 2 \
    --data "$FIXTURES/archive.csv" --out "$WORK/served-v2.csv" --seed "$SEED"
cmp "$WORK/offline-v2.csv" "$WORK/served-v2.csv"

kill "$PID3"
wait "$PID3" 2>/dev/null || true
PID3=""

echo "serve session OK: lifecycle clean, overload handled politely, drift trip hot-swapped and audited, served scalar and joint output byte-identical to offline apply"
