#!/usr/bin/env bash
# End-to-end exercise of the HTTP front door against a real build: boot
# re2xolap_server on a freshly built snapshot (in --live mode), drive it
# with real HTTP — health, metrics, a successful query, one
# guard-cancelled query (504: the arrival-anchored deadline expires
# inside an injected execution delay), one shed query (503 +
# Retry-After: capacity 1 + queue 1 held, fresh probes until one is shed),
# an ingest round (POST /ingest applies a batch, the very next query
# sees the new triple, no restart) and a compaction round (more batches
# reach the layer threshold, the background fold replaces the mmap'd
# base, the query still sees every triple) — then SIGTERM it and require
# a clean drain: exit code 0 and a schema-valid JSONL query log. Run in
# the Release and ASan jobs so the socket, ingest, drain, and log-flush
# paths stay exercised (and leak-clean) on every push.
set -euo pipefail

BUILD_DIR="${1:?usage: server_smoke.sh <build-dir>}"
SNAP_CLI="$BUILD_DIR/examples/re2xolap_snapshot"
SERVER="$BUILD_DIR/examples/re2xolap_server"
WORK="$BUILD_DIR/server_smoke"
rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "server_smoke: $*" >&2; exit 1; }

cat > "$WORK/data.nt" <<'EOF'
<http://e/obs1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs1> <http://e/dest> <http://e/de> .
<http://e/obs1> <http://e/count> "42"^^xsd:integer .
<http://e/obs2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs2> <http://e/dest> <http://e/fr> .
<http://e/obs2> <http://e/count> "7"^^xsd:integer .
<http://e/de> <http://e/label> "Germany" .
<http://e/fr> <http://e/label> "France" .
EOF

"$SNAP_CLI" build "$WORK/data.nt" "$WORK/data.snap" http://e/Obs

# Capacity 1 + queue 1 and a 500ms injected delay per engine execution:
# small enough to saturate with three curls, slow enough that a 50ms
# request deadline reliably expires mid-execution.
RE2XOLAP_FAILPOINTS="engine.execute=delay:500" \
  "$SERVER" "$WORK/data.snap" --port=0 --workers=1 --queue=1 --live \
  --query-log="$WORK/query_log.jsonl" > "$WORK/server.out" 2> "$WORK/server.err" &
SERVER_PID=$!
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

# The bound (ephemeral) port is printed as "listening on <addr>:<port>".
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$WORK/server.out")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed its port"
BASE="http://127.0.0.1:$PORT"
# Distinct query texts per probe: the engine caches results by query, and
# a cache hit bypasses execution (and so the injected delay) entirely —
# reusing one text would let the timeout and shed probes answer from
# cache instead of exercising the guard and the admission queue.
QUERY='SELECT ?s WHERE { ?s a <http://e/Obs> }'
Q_TIMEOUT='SELECT ?t WHERE { ?t a <http://e/Obs> }'
Q_PIN1='SELECT ?p1 WHERE { ?p1 a <http://e/Obs> }'
Q_PIN2='SELECT ?p2 WHERE { ?p2 a <http://e/Obs> }'
Q_INGEST='SELECT ?i WHERE { ?i a <http://e/Obs> }'
Q_COMPACT='SELECT ?c WHERE { ?c a <http://e/Obs> }'

# Health + metrics.
curl -sf "$BASE/healthz" | grep -q '"status": "serving"' \
  || fail "healthz not serving"
curl -sf "$BASE/metrics" | grep -q '^server_requests' \
  || fail "metrics missing server_requests"

# A successful query (rides out the injected 500ms delay).
OK_BODY="$(curl -sf --max-time 10 -X POST --data "$QUERY" "$BASE/query")"
echo "$OK_BODY" | grep -q '"row_count": 2' \
  || fail "query did not return 2 observations: $OK_BODY"

# Guard-cancelled query: a 50ms deadline (anchored at arrival) expires
# inside the 500ms execution delay -> 504 Gateway Timeout.
CODE="$(curl -s --max-time 10 -o "$WORK/timeout.out" -w '%{http_code}' \
  -X POST --data "$Q_TIMEOUT" "$BASE/query?timeout_ms=50")"
[ "$CODE" = "504" ] || fail "deadline query returned $CODE, want 504"

# Shed: with the single worker and the queue slot held, a request must be
# refused with 503 + Retry-After. Two background queries pin both; fresh
# probe texts are then sent until one is shed. A probe that is admitted
# instead (a pin had not reached the server yet) holds a slot itself: its
# client gives up after 0.25s, but the server runs it through the 500ms
# delay, so a later probe finds the worker and the queue taken. No sleep
# decides the outcome.
curl -s --max-time 10 -X POST --data "$Q_PIN1" "$BASE/query" > /dev/null &
C1=$!
curl -s --max-time 10 -X POST --data "$Q_PIN2" "$BASE/query" > /dev/null &
C2=$!
SHED=""
for i in $(seq 1 40); do
  PROBE="$(curl -si --max-time 0.25 -X POST \
    --data "SELECT ?x$i WHERE { ?x$i a <http://e/Obs> }" "$BASE/query" || true)"
  if echo "$PROBE" | head -1 | grep -q '503'; then
    SHED="$PROBE"
    break
  fi
done
wait "$C1" "$C2"
[ -n "$SHED" ] || fail "no query was shed while the worker and queue were held"
echo "$SHED" | grep -qi '^retry-after:' || fail "shed response lacks Retry-After"
# Admitted probes may still hold the worker; one admitted query (a cache
# hit, behind them in the FIFO queue) returns once they are done.
IDLE=""
for _ in $(seq 1 100); do
  if curl -sf --max-time 10 -X POST --data "$QUERY" "$BASE/query" > /dev/null; then
    IDLE=1
    break
  fi
  sleep 0.1
done
[ -n "$IDLE" ] || fail "server never admitted a query after the shed probe"

# Ingest round: the server booted with --live, so POST /ingest applies
# an N-Triples batch atomically and the very next query must see the
# new observation — no re-freeze, no restart.
curl -sf "$BASE/healthz" | grep -q '"live": true' \
  || fail "healthz does not report the store live"
INGEST_BODY="$(curl -sf --max-time 10 -X POST --data \
  '<http://e/obs3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .' \
  "$BASE/ingest")"
echo "$INGEST_BODY" | grep -q '"added": 1' \
  || fail "ingest did not apply the batch: $INGEST_BODY"
AFTER_BODY="$(curl -sf --max-time 10 -X POST --data "$Q_INGEST" "$BASE/query")"
echo "$AFTER_BODY" | grep -q '"row_count": 3' \
  || fail "query after ingest did not see 3 observations: $AFTER_BODY"

# Compaction round: three more one-triple batches bring the chain to the
# default compact_threshold_layers = 4 (the batch above made the first
# layer; a fifth could land after the fold and leave a layer behind), so
# a background compaction folds it into a compacted base that replaces
# the mmap'd snapshot base. Poll /healthz until the fold is published,
# then the query must see every ingested observation.
for N in 4 5 6; do
  BATCH_BODY="$(curl -sf --max-time 10 -X POST --data \
    "<http://e/obs$N> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> ." \
    "$BASE/ingest")"
  echo "$BATCH_BODY" | grep -q '"added": 1' \
    || fail "ingest of obs$N did not apply: $BATCH_BODY"
done
HEALTH=""
COMPACTED=""
for _ in $(seq 1 100); do
  HEALTH="$(curl -sf --max-time 10 "$BASE/healthz")"
  if echo "$HEALTH" | grep -q '"compacted_base": true' \
      && echo "$HEALTH" | grep -Eq '"chain_depth": 0[^0-9]'; then
    COMPACTED=1
    break
  fi
  sleep 0.1
done
[ -n "$COMPACTED" ] || fail "compaction never published: $HEALTH"
COMPACT_BODY="$(curl -sf --max-time 10 -X POST --data "$Q_COMPACT" "$BASE/query")"
echo "$COMPACT_BODY" | grep -q '"row_count": 6' \
  || fail "query after compaction did not see 6 observations: $COMPACT_BODY"

# SIGTERM -> graceful drain: the process must exit 0 on its own.
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
[ "$RC" -eq 0 ] || fail "server exited $RC after SIGTERM (want 0)"
trap - EXIT

# The drain flushed the query log; every line must be a schema-valid
# record (same contract as query_log_smoke.sh).
test -s "$WORK/query_log.jsonl" || fail "drain wrote no query-log lines"
python3 - "$WORK/query_log.jsonl" <<'EOF'
import json, sys

required = {
    "id", "op", "fingerprint", "epoch", "cache", "status",
    "degraded", "rows", "scanned", "bindings", "plan_ms",
    "exec_ms", "total_ms", "start_us",
}
n = 0
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"line {lineno}: invalid JSON: {e}")
        missing = required - rec.keys()
        if missing:
            sys.exit(f"line {lineno}: missing keys {sorted(missing)}")
        n += 1
print(f"server_smoke: query log OK ({n} records)")
EOF

echo "server_smoke: OK (port $PORT)"
