#!/usr/bin/env bash
# Build-and-test matrix for the repo. Run from anywhere; builds land in
# build-verify-<config> next to the sources so the default build/ tree is
# left alone.
#
# Matrix:
#   metrics-on   default config (TDBG_METRICS=ON)  — full test suite
#   metrics-off  -DTDBG_METRICS=OFF                — obs layer compiled to
#                no-ops; hammering tests GTEST_SKIP; everything else must
#                still pass
#   tsan         -DTDBG_TSAN=ON                    — ThreadSanitizer build;
#                runs the concurrency-heavy suites
#                (ctest -L "mpi|trace|perf|fault|telemetry|exec|session|server")
#                and must report zero races — the fault label covers the
#                injection seams, which perturb the hot path from extra
#                threadside angles; telemetry covers the flight-recorder
#                seqlock rings and the health heartbeat; exec covers the
#                analysis thread pool and the segmented store's shared
#                LRU cache under concurrent readers; server covers the
#                reader/dispatcher threads, the session cache, and the
#                8-client stress test
#   asan-ubsan   -DTDBG_ASAN=ON                    — Address+UB sanitizers;
#                runs the store/query-heavy suites and the runtime
#                (ctest -L "mpi|trace|analysis|viz|fault|telemetry|exec|session|server")
#                and must report zero memory or UB findings (payload
#                corruption and held-message buffers live here; the
#                session label adds the AnalysisSession invalidation
#                and incremental-recompute contract; server adds the
#                wire codec's malformed-frame handling; mpi adds the wait
#                ledger, the channel-FIFO and oversubscription tests and
#                the replay suite)
#
# Extras under metrics-on:
#   - grep gate           (matching / vector-clock computation confined
#                          to src/analysis; everything else consumes
#                          Session artifacts; no unordered_map/_set in
#                          src/analysis or src/causality; no sleep_for/
#                          sleep_until in src/mpi or src/replay)
#   - ctest -L obs        (the obs label must select the obs suite)
#   - abl_pass_fusion     (asserts fused-sweep ≥2x cpu-time over the
#                          N-scan baseline and incremental ≥10x over
#                          full recompute; exits nonzero on drift)
#   - abl_metrics_cost    (asserts the disabled-metric ≤ relaxed-load
#                          budget contract; exits nonzero on drift)
#   - abl_fault_overhead  (asserts the null-injector pointer-test
#                          budget contract; exits nonzero on drift)
#   - abl_telemetry_overhead (asserts the suppressed-TDBG_LOG ≤
#                          relaxed-load budget contract; exits nonzero
#                          on drift)
#   - abl_parallel_analysis (asserts analysis reports are byte-identical
#                          at 1/2/4/8 threads, and the ≥3x speedup gate
#                          where 8 hardware threads exist)
#   - abl_columnar_store  (asserts v3-vs-v2 artifact byte-identity, the
#                          ≤0.35x on-disk size gate, the ≥2x cold-sweep
#                          gate, and the ≥4x rank-window gate)
#   - trace conversion round-trip smoke (v2 → v3 → v2 must be
#     byte-identical; converted v3 reports as binary-v3 in `info`)
#   - tdbg_cli ring4 --stats smoke (per-rank sends/recvs/bytes visible)
#   - tdbg_cli ring4 --fault-plan deadlock_ring smoke (injected hold
#     must deadlock the ring, flush a readable partial trace, auto-dump
#     a flight log naming the hold, and export a Chrome trace with app
#     events plus ≥4 distinct debugger self-span names)
#   - tdbg_client e2e smoke (serve the deadlock_ring partial trace with
#     `tdbg_cli serve`, then ping / match / deadlock (must report
#     STALLED, exit 3) / shutdown over the Unix socket, and the server
#     must drain cleanly)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local bdir="$repo/build-verify-$name"
  echo "=== config $name: cmake $* ==="
  cmake -B "$bdir" -S "$repo" "$@" >/dev/null
  cmake --build "$bdir" -j "$jobs"
  (cd "$bdir" && ctest --output-on-failure -j "$jobs")
}

run_config metrics-on
run_config metrics-off -DTDBG_METRICS=OFF

echo "=== config tsan: lock-free mailbox + trace paths under ThreadSanitizer ==="
tsan_bdir="$repo/build-verify-tsan"
cmake -B "$tsan_bdir" -S "$repo" -DTDBG_TSAN=ON >/dev/null
cmake --build "$tsan_bdir" -j "$jobs"
# halt_on_error so a race fails the test that triggered it instead of
# scrolling past; second_deadlock_stack for readable lock reports.
(cd "$tsan_bdir" && \
 TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
 ctest -L 'mpi|trace|perf|fault|telemetry|exec|session|server' --output-on-failure -j "$jobs")

echo "=== config asan-ubsan: trace store + query layers under ASan/UBSan ==="
asan_bdir="$repo/build-verify-asan-ubsan"
cmake -B "$asan_bdir" -S "$repo" -DTDBG_ASAN=ON >/dev/null
cmake --build "$asan_bdir" -j "$jobs"
# The segmented store's eviction + by-value event API is exactly the
# kind of code where a stale reference survives by luck: fail loudly.
(cd "$asan_bdir" && \
 ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
 UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
 ctest -L 'mpi|trace|analysis|viz|fault|telemetry|exec|session|server' --output-on-failure -j "$jobs")

bdir="$repo/build-verify-metrics-on"

echo "=== grep gate: matching/vector clocks computed only in src/analysis ==="
# The AnalysisSession owns the fused sweep artifacts.  No consumer
# outside src/analysis/ may invoke the pass-level compute entry points
# or construct a CausalOrder directly (src/causality implements the
# clock math the session invokes; everything else goes through
# Session::match_report()/causal_order()/...).
leaks="$(grep -rnE 'compute_match_report|compute_rank_index|compute_traffic|compute_sweep|extend_sweep|CausalOrder\(' \
         "$repo/src" "$repo/tools" "$repo/examples" \
         --include='*.cpp' --include='*.hpp' \
       | grep -vE "^$repo/src/(analysis|causality)/" || true)"
if [[ -n "$leaks" ]]; then
  echo "FAIL: matching/vector-clock computation outside src/analysis:" >&2
  echo "$leaks" >&2
  exit 1
fi
# The passes read the dense per-event index (trace::RankIndex): no hash
# map or set keyed by event index in the analysis or causality layers.
hashed="$(grep -rnE 'unordered_(map|set)' "$repo/src/analysis" "$repo/src/causality" \
          --include='*.cpp' --include='*.hpp' || true)"
if [[ -n "$hashed" ]]; then
  echo "FAIL: hash containers in src/analysis or src/causality:" >&2
  echo "$hashed" >&2
  exit 1
fi
# Runtime and replay progress decisions are made on the wait ledger's
# events (a woken rank is marked running before it is woken), never by
# sleeping and re-polling.  Injected delays live in src/fault and
# src/server, outside this gate.
sleeps="$(grep -rnE 'sleep_(for|until)' "$repo/src/mpi" "$repo/src/replay" \
          --include='*.cpp' --include='*.hpp' || true)"
if [[ -n "$sleeps" ]]; then
  echo "FAIL: sleep-and-poll in src/mpi or src/replay:" >&2
  echo "$sleeps" >&2
  exit 1
fi
echo "grep gate OK"

echo "=== ctest -L obs ==="
(cd "$bdir" && ctest -L obs --output-on-failure)

echo "=== abl_metrics_cost contract ==="
"$bdir/bench/abl_metrics_cost" --benchmark_min_time=0.05

echo "=== abl_fault_overhead contract ==="
"$bdir/bench/abl_fault_overhead" --benchmark_min_time=0.05

echo "=== abl_telemetry_overhead contract ==="
"$bdir/bench/abl_telemetry_overhead" --benchmark_min_time=0.05

echo "=== abl_pass_fusion fusion + incremental contract ==="
# Asserts, on best-of-5 cpu-time: fused all-analyses sweep >= 2x
# cheaper than the pre-refactor N-scan baseline, and the incremental
# sweep update after a 1% append >= 10x cheaper than a full recompute
# (exit 1 on either failure; the contract runs in main()).
"$bdir/bench/abl_pass_fusion" --benchmark_filter='^$'

echo "=== abl_parallel_analysis determinism + speedup contract ==="
# The binary asserts byte-identical reports at 1/2/4/8 threads before
# any timing, and enforces the 3x gate where 8 hardware threads exist
# (exit 1 on either failure).  Filter out the timed section: the
# contract runs in main().
"$bdir/bench/abl_parallel_analysis" --benchmark_filter='^$'

echo "=== abl_columnar_store size + sweep + window contract ==="
# Asserts analysis artifacts over the v3 columnar store are
# byte-identical to v2 before any timing, then (best-of-reps) the on-
# disk gate (v3 <= 0.35x of v2), the cold full-sweep gate (>= 2x wall
# and cpu), and the rank-filtered window-query gate (>= 4x wall and
# cpu) on a ~2.1M-event trace; exit 1 on any miss.
"$bdir/bench/abl_columnar_store" --reps 5

echo "=== trace format conversion round-trip smoke ==="
# A v2 -> v3 -> v2 conversion chain must reproduce the original v2
# file byte for byte: the columnar encode/decode is lossless and the
# row writer is deterministic.
conv_tmp="$(mktemp -d)"
(cd "$conv_tmp" && \
 "$bdir/tools/tdbg_cli" ring4 --fault-seed 42 --fault-plan deadlock_ring \
   --auto-record </dev/null >/dev/null 2>&1) || true
[[ -f "$conv_tmp/tdbg_fault_partial.trc" ]] || {
  echo "FAIL: no recorded trace to convert" >&2; exit 1; }
"$bdir/tools/tdbg_trace" convert "$conv_tmp/tdbg_fault_partial.trc" \
  "$conv_tmp/trace.v2.trc" v2 >/dev/null
"$bdir/tools/tdbg_trace" convert "$conv_tmp/trace.v2.trc" \
  "$conv_tmp/trace.v3.trc" v3 >/dev/null
"$bdir/tools/tdbg_trace" convert "$conv_tmp/trace.v3.trc" \
  "$conv_tmp/trace.rt.trc" v2 >/dev/null
cmp "$conv_tmp/trace.v2.trc" "$conv_tmp/trace.rt.trc" || {
  echo "FAIL: v2 -> v3 -> v2 conversion is not byte-identical" >&2; exit 1; }
"$bdir/tools/tdbg_trace" info "$conv_tmp/trace.v3.trc" | grep -q 'binary-v3' || {
  echo "FAIL: converted v3 trace not reported as binary-v3" >&2; exit 1; }
rm -rf "$conv_tmp"
echo "conversion round-trip OK"

echo "=== tdbg_cli fault-plan smoke ==="
fault_tmp="$(mktemp -d)"
(cd "$fault_tmp" && \
 printf 'faults\nflightrec\nquit\n' | \
 "$bdir/tools/tdbg_cli" ring4 --fault-seed 42 --fault-plan deadlock_ring \
   --auto-record --chrome-trace chrome.json >cli.out 2>cli.err) || true
grep -q 'DEADLOCKED' "$fault_tmp/cli.out" || {
  echo "FAIL: deadlock_ring plan did not deadlock the ring" >&2; exit 1; }
grep -q 'fault plan' "$fault_tmp/cli.out" || {
  echo "FAIL: faults command missing from CLI output" >&2; exit 1; }
[[ -f "$fault_tmp/tdbg_fault_partial.trc" ]] || {
  echo "FAIL: hung faulted run did not flush a partial trace" >&2; exit 1; }
[[ -f "$fault_tmp/tdbg_flight.log" ]] || {
  echo "FAIL: hung faulted run did not auto-dump a flight log" >&2; exit 1; }
grep -q 'fault.hold' "$fault_tmp/tdbg_flight.log" || {
  echo "FAIL: flight log does not name the injected hold" >&2; exit 1; }
python3 - "$fault_tmp/chrome.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
app = [e for e in events if e.get("ph") == "X" and e.get("pid") == 1]
spans = {e["name"] for e in events if e.get("ph") == "X" and e.get("pid") == 2}
assert app, "chrome trace has no app events"
assert len(spans) >= 4, f"expected >=4 distinct self-span names, got {sorted(spans)}"
print(f"chrome trace OK: {len(app)} app events, self-spans {sorted(spans)}")
PY
rm -rf "$fault_tmp"

echo "=== tdbg_cli ring4 --stats smoke ==="
out="$(printf 'record\nquit\n' | "$bdir/tools/tdbg_cli" ring4 --stats)"
echo "$out" | grep -q 'runtime.calls.send' || {
  echo "FAIL: --stats output missing runtime.calls.send" >&2; exit 1; }
echo "$out" | grep -q 'runtime.bytes_sent' || {
  echo "FAIL: --stats output missing runtime.bytes_sent" >&2; exit 1; }
echo "smoke OK"

echo "=== tdbg_client e2e smoke: serve + query a deadlocked trace ==="
# Record a deadlock_ring partial trace, serve it with `tdbg_cli serve`,
# and drive the server over the wire: ping, match, deadlock (the held
# ring must come back STALLED, exit 3), then a clean drain.
srv_tmp="$(mktemp -d /tmp/tdbg_vfy_XXXXXX)"
(cd "$srv_tmp" && \
 "$bdir/tools/tdbg_cli" ring4 --fault-seed 42 --fault-plan deadlock_ring \
   --auto-record </dev/null >/dev/null 2>&1) || true
[[ -f "$srv_tmp/tdbg_fault_partial.trc" ]] || {
  echo "FAIL: no partial trace to serve" >&2; exit 1; }
sock="$srv_tmp/s.sock"
"$bdir/tools/tdbg_cli" serve --socket "$sock" >"$srv_tmp/serve.out" 2>&1 &
srv_pid=$!
for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.05; done
[[ -S "$sock" ]] || { echo "FAIL: server socket never appeared" >&2; exit 1; }
client="$bdir/tools/tdbg_client"
"$client" "unix:$sock" ping >/dev/null
"$client" "unix:$sock" match "$srv_tmp/tdbg_fault_partial.trc" \
  >"$srv_tmp/match.out"
grep -q 'unmatched' "$srv_tmp/match.out" || {
  echo "FAIL: served match report missing unmatched counts" >&2; exit 1; }
dl_rc=0
"$client" "unix:$sock" deadlock "$srv_tmp/tdbg_fault_partial.trc" \
  >"$srv_tmp/deadlock.out" || dl_rc=$?
[[ "$dl_rc" -eq 3 ]] || {
  echo "FAIL: deadlock op on held ring expected exit 3, got $dl_rc" >&2
  exit 1; }
grep -q 'STALLED' "$srv_tmp/deadlock.out" || {
  echo "FAIL: served deadlock report not STALLED" >&2; exit 1; }
"$client" "unix:$sock" shutdown >/dev/null
wait "$srv_pid" || {
  echo "FAIL: served tdbg_cli did not drain cleanly" >&2; exit 1; }
grep -q 'drained' "$srv_tmp/serve.out" || {
  echo "FAIL: serve mode missing drain summary" >&2; exit 1; }
rm -rf "$srv_tmp"
echo "server e2e smoke OK"

echo "=== verify: all configs green ==="
