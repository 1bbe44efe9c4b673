#!/bin/sh
# The CI bench smoke in one pass: every smoke-tier experiment at
# --seeds 1 writing bench-eNN.json (experiments without a JSON emitter
# just ignore the flag), then every applicable check_regress gate —
# the E14 multicore-speedup promise and each committed BENCH_pr*.json
# baseline against the file this run just wrote, then the E9 table
# (Lawler/Lawler+ oracle calls, Howard iterations: deterministic
# counts) against bench/e9.expected.  Timings gate loose
# (2.5x + 1 ms slack; CI boxes are noisy and differ from the box that
# recorded the baselines), the identical / exact_matches_float flags
# gate strict.  Used by CI; runnable locally from the repo root after
# `dune build`.
set -eu

run() { dune exec bench/main.exe -- "$@"; }
gate() { dune exec bench/check_regress.exe -- "$@"; }

for e in 1 11 12 13 14 15 16 18 19 20; do
  run --only "E$e" --seeds 1 --bench-json "bench-e$e.json"
done

# the multicore promise: on a >=4-core host the E14 giant-SCC sweep
# must show jobs=4 at least 1.2x over jobs=1 (passes with a notice on
# smaller hosts, where the curve cannot physically show a speedup)
gate --speedup bench-e14.json 4 1.2

# committed baselines vs this run.  BENCH_pr7.json supersedes
# BENCH_pr4.json as the E14 baseline (same workload, recorded after
# the Bigarray CSR + adaptive-granularity rework); BENCH_pr9.json's
# exact_matches_float flags are the zero-tolerance exact-answer gate;
# BENCH_pr10.json gates the E19 cluster-observability run (identical
# and access_complete strict; its workers=2 timing skips when the
# host core count differs from the recording box); BENCH_pr17.json
# gates E20's loader and SCC rows (identical strict: round-trip,
# component ids and subproblems equal the reference implementations);
# BENCH_pr23.json gates the same run again with E20's fingerprint rows
# added (identical strict: equal structures fingerprint equal, and a
# session's fingerprint equals its snapshot's through scripted edits).
gate \
  BENCH_pr2.json bench-e12.json \
  BENCH_pr3.json bench-e13.json \
  BENCH_pr7.json bench-e14.json \
  BENCH_pr5.json bench-e15.json \
  BENCH_pr6.json bench-e16.json \
  BENCH_pr9.json bench-e18.json \
  BENCH_pr10.json bench-e19.json \
  BENCH_pr17.json bench-e20.json \
  BENCH_pr23.json bench-e20.json

# E9 counts oracle calls and iterations only, so its table must match
# the committed one line for line (the timing footer is dropped)
run --only E9 --seeds 1 | grep -v '^\[E9 done in' > e9.out
diff bench/e9.expected e9.out
rm -f e9.out

echo "bench_smoke: OK"
