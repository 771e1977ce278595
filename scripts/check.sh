#!/usr/bin/env bash
# CI-style gate: every analysis pass must come back green.
#
#   1. default        — RelWithDebInfo build, full test suite (includes the
#                       fzcheck simulator-hazard tests: any SanitizerReport
#                       diagnostic fails test_sanitizer)
#   1b. service smoke — fzd selftest (job taxonomy, byte-identity vs a
#                       direct Codec, policy/params rejection) plus a short
#                       concurrent soak against the admission queue; re-run
#                       under the tsan preset in full mode
#   2. bench smoke    — scripts/bench_smoke.sh guards the SIMD/fused and
#                       tile-parallel throughput against the checked-in
#                       BENCH_pr5.json baseline (tolerance via
#                       FZ_BENCH_TOLERANCE), and the random-access
#                       reader gate (byte-identical slices, hot-cache hit
#                       rate, prefetch effectiveness) via BENCH_pr6.json
#   3. trace smoke    — runs fz_cli under FZ_TRACE and --trace, plus a
#                       small bench/regress run under FZ_TRACE; in each
#                       case scripts/validate_trace.py checks the Chrome
#                       JSON parses, spans nest per thread, and the
#                       expected stage/chunk spans were recorded — the
#                       regress trace must contain the per-strip
#                       "fused-strip" spans of the tile-parallel pass, and
#                       the cli selftest traces must contain the reader's
#                       "reader-read" spans plus one pool-worker
#                       "chunk-fetch" span per container chunk
#   4. lint-static    — tools/fzlint over src/tools/examples/tests/bench:
#                       layering DAG, lock/allocation discipline in hot-path
#                       files, on-disk-layout audit, hygiene bans.  Built
#                       from this repo, so it ALWAYS runs — including under
#                       --fast; scripts/lint_gate.sh is the standalone
#                       wrapper and archives build/fzlint_report.json
#   5. asan-ubsan     — full suite under AddressSanitizer + UBSanitizer,
#                       plus the trace smoke re-run against the asan build
#                       (the env-sink exit flush must be sanitizer-clean)
#                       and an explicit re-run of the fused-parallel
#                       and fused-decompress schedule-independence suites
#                       (thread-scaling byte-identity under the sanitizers)
#                       and of the reader's concurrency tests
#   6. tsan           — pool/codec/chunked/threading tests and the golden
#                       streams (byte identity at every worker count) under
#                       ThreadSanitizer (host-side concurrency)
#   7. lint           — clang-tidy over src/ (.clang-tidy profile,
#                       WarningsAsErrors: any warning fails); skipped with a
#                       notice when clang-tidy is not installed, unless
#                       FZ_REQUIRE_LINT=1, which turns the skip into a
#                       failure (docs/SANITIZER.md has the install note)
#
# Any sanitizer finding fails the suite (-fno-sanitize-recover=all aborts
# the offending test; TSan exits nonzero on a report; clang-tidy exits
# nonzero on any warning-as-error; fzlint exits nonzero on any finding).
# Every stage runs even when an earlier one fails; the script then lists
# the failed stages and exits nonzero.
#
# Usage: scripts/check.sh [--fast]
#   --fast   default configuration + lint-static only (skip sanitizer
#            builds and clang-tidy)
set -uo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

run_preset() {
  local preset="$1"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
}

trace_smoke() {
  # $1: fz_cli binary.  The selftest covers single-stream, f64 and chunked
  # paths, so the trace exercises stage, chunk and per-worker spans.
  local cli="$1"
  local tmp
  tmp=$(mktemp -d)
  FZ_TRACE="${tmp}/env.json" "${cli}" selftest > /dev/null
  "${cli}" --trace "${tmp}/cli.json" selftest > /dev/null 2> "${tmp}/summary.txt"
  python3 scripts/validate_trace.py "${tmp}/env.json" \
    --expect compress decompress chunk-compress fused-quant-shuffle-mark \
    fused-strip reader-read chunk-fetch \
    --min-count reader-read=2 chunk-fetch=4
  python3 scripts/validate_trace.py "${tmp}/cli.json" \
    --expect compress compress-chunked chunk-compress chunk-decompress \
    reader-read chunk-fetch \
    --min-count reader-read=2 chunk-fetch=4
  grep -q "spans by name" "${tmp}/summary.txt" ||
    { echo "trace smoke: --trace printed no summary" >&2; return 1; }
  rm -rf "${tmp}"
}

service_smoke() {
  # $1: fzd binary.  selftest covers the full job taxonomy (roundtrip
  # byte-identity vs a direct Codec, policy/params rejection, stats text);
  # the short soak hammers the admission queue from concurrent clients and
  # fails on any response mismatch or dropped worker exception.
  local fzd="$1"
  echo "---- fzd selftest (${fzd}) ----"
  "${fzd}" selftest > /dev/null
  echo "---- fzd soak: 600 mixed requests / 6 clients ----"
  "${fzd}" soak --requests 600 --clients 6 --queue 16 > /dev/null
}

failed=()

# Run one stage: "$@" in a subshell under `set -e`, recording a failure
# instead of stopping the script.
stage() {
  local name="$1"
  shift
  echo "==== ${name} ===="
  ( set -e; "$@" )
  local rc=$?
  if (( rc != 0 )); then
    echo "==== ${name}: FAILED (exit ${rc}) ====" >&2
    failed+=("${name}")
  fi
}

traced_regress() {
  # A traced bench run: every env-sink codec in regress records into one
  # trace, covering the fused compress and decompress graphs (the only
  # graphs a V2 run takes) — including the per-strip spans of both
  # tile-parallel passes.  All three reports go to the scratch directory
  # so the checked-in BENCH_*.json baselines stay untouched.
  local tmp
  tmp=$(mktemp -d)
  FZ_TRACE="${tmp}/regress.json" build/bench/regress \
    --scale 0.05 --iters 1 --out "${tmp}/bench.json" \
    --huff-out "${tmp}/huff.json" --pr10-out "${tmp}/pr10.json" \
    > /dev/null
  python3 scripts/validate_trace.py "${tmp}/regress.json" \
    --expect compress fused-quant-shuffle-mark fused-strip decompress \
    fused-decode fused-decode-strip
  rm -rf "${tmp}"
}

schedule_independence_asan() {
  # The thread-scaling byte-identity suite again, explicitly, under the
  # sanitizers: worker counts {1,2,3,8} x dtypes x SIMD tiers must stay
  # byte-identical and fault-free.
  build-asan/tests/test_fused_parallel
  # The fused decode's strips re-decode the tile straddling each strip
  # edge and read the previous strip's last line: the out-of-bounds risk.
  build-asan/tests/test_fused_decompress
  # Reader demand misses decode on the calling thread with leased codecs
  # while prefetches decode on the pool: the concurrency tests again.
  build-asan/tests/test_reader
  build-asan/tests/test_threading \
    --gtest_filter='Threading.SharedSinkAcrossFusedStripWorkers'
}

clang_tidy() {
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake --build build --target lint
  elif [[ "${FZ_REQUIRE_LINT:-0}" == "1" ]]; then
    echo "lint: clang-tidy not found on PATH and FZ_REQUIRE_LINT=1 —" \
      "failing (docs/SANITIZER.md has the install note)" >&2
    return 1
  else
    echo "lint: clang-tidy not found on PATH; skipping (install clang-tidy to enable, or set FZ_REQUIRE_LINT=1 to make this fatal)"
  fi
}

stage "configure/build/test: default" run_preset default
stage "service smoke: fzd selftest + concurrent soak" \
  service_smoke build/src/fzd
stage "bench smoke: SIMD + fused-pipeline + random-access guards" \
  scripts/bench_smoke.sh build/bench/regress build/bench/random_access
stage "trace smoke: telemetry export validates" \
  trace_smoke build/examples/fz_cli
stage "trace smoke: traced bench/regress" traced_regress
stage "lint-static: fzlint (layering / lock discipline / layout / hygiene)" \
  scripts/lint_gate.sh build

if [[ "${1:-}" != "--fast" ]]; then
  stage "configure/build/test: asan-ubsan" run_preset asan-ubsan
  stage "trace smoke (asan-ubsan)" trace_smoke build-asan/examples/fz_cli
  stage "fused-parallel schedule independence (asan-ubsan)" \
    schedule_independence_asan
  stage "configure/build/test: tsan" run_preset tsan
  stage "service smoke (tsan): fzd selftest + concurrent soak" \
    service_smoke build-tsan/src/fzd
  stage "lint: clang-tidy over src/" clang_tidy
fi

if (( ${#failed[@]} != 0 )); then
  echo "check.sh: ${#failed[@]} stage(s) failed:" >&2
  printf '  - %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "check.sh: all configurations green"
