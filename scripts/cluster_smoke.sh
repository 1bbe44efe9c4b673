#!/bin/sh
# End-to-end cluster smoke: boot a 2-worker cluster, push mixed
# traffic (one-shot solves + a dyn session), SIGKILL one worker, and
# check the router survives, the session answers bit-identically after
# journal replay, and the aggregated exposition reports the restart.
# Used by CI; runnable locally from the repo root after `dune build`.
set -eu

OCR=${OCR_BIN:-_build/default/bin/main.exe}
[ -x "$OCR" ] || { echo "cluster_smoke: $OCR not built" >&2; exit 2; }
case "$OCR" in /*) ;; *) OCR="$PWD/$OCR" ;; esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() { echo "cluster_smoke: FAIL: $1" >&2; sed 's/^/  out: /' out.log >&2; sed 's/^/  err: /' err.log >&2; exit 1; }

# wait until a pattern shows up in out.log (10s budget)
waitlog() {
  for _ in $(seq 1 100); do
    grep -q "$1" out.log && return 0
    sleep 0.1
  done
  fail "timeout waiting for $1"
}

"$OCR" gen sprand 64 192 --seed 7 --output g.ocr >/dev/null
# one-shot solves are routed by graph fingerprint: g.ocr lands on
# worker 1 and this ring on worker 0, so both workers serve traffic and
# expose the per-worker histograms checked below
"$OCR" gen ring 4 --output r.ocr >/dev/null

mkfifo req
"$OCR" cluster --workers 2 --request-timeout-ms 2000 < req > out.log 2> err.log &
cluster=$!
exec 3>req

# mixed traffic: solves on both graphs, a session (id "a", pinned to worker 1) with an update and a query
printf '%s\n' g.ocr r.ocr \
  '{"op":"open","session":"a","graph":"g.ocr"}' \
  '{"op":"set_weight","session":"a","arc":0,"weight":-3}' \
  '{"op":"query","session":"a"}' >&3
waitlog '"lambda"'
baseline=$(grep '"lambda"' out.log | tail -1)

# SIGKILL the worker hosting session "a" (worker 1; pinned by
# test_cluster.ml, same placement as test/cram/cluster.t relies on)
printf 'status\n' >&3
waitlog '"pid1"'
pid=$(grep -o '"pid1":[0-9]*' out.log | tail -1 | cut -d: -f2)
kill -9 "$pid"
for _ in $(seq 1 100); do
  printf 'status\n' >&3
  sleep 0.1
  grep -q '"restarts1":1' out.log && break
done
grep -q '"restarts1":1' out.log || fail "worker never respawned"

# the replayed session must answer bit-identically
printf '%s\n' '{"op":"query","session":"a"}' >&3
for _ in $(seq 1 100); do
  [ "$(grep -c '"lambda"' out.log)" -ge 2 ] && break
  sleep 0.1
done
replayed=$(grep '"lambda"' out.log | tail -1)
[ "$replayed" = "$baseline" ] || fail "replayed answer differs: $replayed vs $baseline"

# aggregated exposition: restart attributed to worker 1, solves counted
printf 'metrics\n' >&3
waitlog '^ocr_worker_sessions'
grep -q '^ocr_worker_restarts_total 1$' out.log || fail "aggregate restart count"
grep -q '^ocr_worker_restarts_total{worker="1"} 1$' out.log || fail "labeled restart count"
grep -q '^ocr_worker_up{worker="0"} 1$' out.log || fail "worker 0 up gauge"
grep -q '^ocr_requests_total' out.log || fail "merged engine counters missing"

# the per-worker latency histograms ride the same exposition
grep -q '^ocr_queue_wait_ms_bucket{worker="0",le="+Inf"}' out.log \
  || fail "queue wait histogram missing"
grep -q '^ocr_request_total_ms_count{worker="' out.log \
  || fail "request total histogram missing"

printf 'quit\n' >&3
exec 3>&-
wait "$cluster" || fail "router exited nonzero"

# ------------------------------------------------------------------
# traced session: every request must appear in BOTH the router's and
# a worker's track of the merged trace, phases must land in the
# access log, and summarize must attribute the critical path
# ------------------------------------------------------------------
mkdir traces
mkfifo req2
"$OCR" cluster --workers 2 --trace-dir traces --access-log access.ndjson \
  < req2 > out2.log 2> err2.log &
cluster=$!
exec 4>req2
printf '%s\n' g.ocr r.ocr g.ocr quit >&4
exec 4>&-
wait "$cluster" || fail "traced router exited nonzero"

[ -s traces/router.json ] || fail "router trace missing"
[ -s traces/worker-0.json ] || fail "worker 0 trace missing"
[ -s traces/worker-1.json ] || fail "worker 1 trace missing"

"$OCR" trace merge traces/router.json traces/worker-0.json \
  traces/worker-1.json -o merged.json || fail "trace merge failed"

# each of the three requests: router span + worker span + flow pair
for id in 1 2 3; do
  grep -q "\"name\":\"rt.request\",\"cat\":\"ocr\",\"ph\":\"b\",\"id\":\"$id\"" merged.json \
    || fail "request $id missing from the router track"
  grep -q "\"name\":\"engine.request\",\"cat\":\"ocr\",\"ph\":\"b\",\"id\":\"$id\"" merged.json \
    || fail "request $id missing from every worker track"
  grep -q "\"ph\":\"s\",\"id\":\"$id\"" merged.json \
    || fail "request $id has no flow start"
  grep -q "\"ph\":\"f\",\"id\":\"$id\"" merged.json \
    || fail "request $id has no flow end"
done

# access log: one line per request, every field present, ids propagate
[ "$(wc -l < access.ndjson)" -eq 3 ] || fail "access log line count"
for id in 1 2 3; do
  grep -q "\"trace\":$id,\"req\":$id," access.ndjson \
    || fail "access log misses request $id"
done
grep -vq '"dispatch_ms":' access.ndjson \
  && fail "access log line without phase fields"
grep -cq '"status":"ok"' access.ndjson || fail "access log status"

# summarize attributes the per-request critical path over the merge
"$OCR" trace summarize merged.json | grep -q 'per-request critical path (3 requests)' \
  || fail "per-request attribution missing"

echo "cluster_smoke: OK (baseline == replayed: $baseline; 3 traced requests merged)"
