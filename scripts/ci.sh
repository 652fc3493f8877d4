#!/usr/bin/env bash
#===-- scripts/ci.sh - Full CI sweep ---------------------------------------===#
#
# Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
#
# Builds and tests four presets, and builds the benchmark:
#
#   1. default   - RelWithDebInfo, the tier-1 gate (all labels)
#   2. release   - Release (-O3), all labels: GCC 12 raises warnings
#                  (false -Wrestrict positives) at -O3 that -O2 does not
#   3. asan      - AddressSanitizer + UBSan, unit + fuzz labels plus the
#                  serve, slice, snapshot, Prop. 1, flag-error and output
#                  smokes and the bench_scale smoke; then one driver run
#                  with LeakSanitizer on, which proves the epoch the
#                  one-shot driver keeps at exit (instead of freeing it)
#                  raises no leak report
#   4. tsan      - ThreadSanitizer, unit label (the parallel query
#                  paths are what TSan is here for; the fuzz sweep under
#                  TSan is slow and adds no thread coverage), then the
#                  EpochConcurrency suite and the parallel lint run
#                  (LintGoverned.ParallelRunMatchesSerial) ten more times
#
# The benchmark (perfbench/, its own CMake project over src/) is built
# but not run, so a src/ API change that breaks it fails here first.
#
# Usage: scripts/ci.sh [--fast]
#   --fast  skip the sanitizer presets (tier-1 only)
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run_preset() {
  local dir=$1; shift
  local cmake_args=$1; shift
  local label_args=("$@")
  echo "=== preset ${dir} (${cmake_args:-default}) ==="
  # shellcheck disable=SC2086
  cmake -B "${dir}" -S . ${cmake_args} >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" "${label_args[@]}")
}

# Tier 1: the default build runs every registered test (unit, fuzz,
# bench-smoke, lint-smoke, snapshot-smoke, gen-smoke, prop1-smoke,
# flag-smoke, output-smoke, examples).  output-smoke includes the
# cross-process snapshot round trip (scripts/all_labels_paths_smoke.sh).
run_preset build ""

# The benchmark harness compiles against src/ directly; building it here
# catches an API change before the benchmark pipeline does.
echo "=== perfbench build ==="
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "${JOBS}"

# Release: under -Werror, -O3 fails on warnings -O2 never raises (GCC 12's
# false -Wrestrict positives), so the configuration must build and pass
# the whole tier-1 suite on its own.
run_preset build-release "-DCMAKE_BUILD_TYPE=Release"

# The SIMD seam: the kernel/bitset/generator tests rerun with the row-OR
# dispatch pinned to the scalar path (STCFA_FORCE_SCALAR=1), so a vector
# kernel bug shows up as a native-vs-scalar split instead of green CI on
# machines that happen to lack AVX.  The interning cases (Compression*,
# the pool checks inside LabelSetKernel.*) and the snapshot suites that
# persist and adopt the kernel's pool rerun with them.  The differential fuzzes ride along —
# the shape fuzz crosses the kernel against StandardCFA, and the delta
# edit-sequence fuzz crosses incremental views against from-scratch
# rebuilds (with its batch steps forced through the kernel) — so this is
# the bit-exactness proof for whichever path the hardware dispatched.
echo "=== forced-scalar rerun (STCFA_FORCE_SCALAR=1) ==="
STCFA_FORCE_SCALAR=1 ./build/tests/stcfa_tests \
  --gtest_filter='SimdOps.*:LabelSetKernel.*:QueryEngineKernel.*:ShapeGen.*:Compression.*:*CompressionEquivalence.*:SnapshotRoundTrip.*:SnapshotDamage.*' \
  --gtest_brief=1
STCFA_FORCE_SCALAR=1 ./build/tests/stcfa_fuzz_tests \
  --gtest_filter='*DifferentialFuzzShapes*:DeltaFuzz*' --gtest_brief=1

# Daemon smoke: the real binary in --serve mode, driven through a pipe
# (load -> query -> lint -> metrics -> shutdown, plus one garbage line
# that must produce a structured error, not a crash).  docs/SERVE.md has
# the protocol; the sanitizer presets below rerun this under ASan/UBSan
# via the serve-smoke ctest label.
echo "=== serve smoke (load -> query -> lint -> shutdown over a pipe) ==="
scripts/serve_smoke.sh ./build/src/driver/stcfa

# Slice smoke: dependence export, the cross-process half of the residual
# oracle (a second process reparses and runs the emitted residual), a
# witnessed slice, and slice-over-snapshot parity (docs/SLICE.md).  The
# ASan/UBSan preset below reruns this via the slice-smoke ctest label.
echo "=== slice smoke (export -> dce round trip -> witnessed slice) ==="
scripts/slice_smoke.sh ./build/src/driver/stcfa \
  examples/lint/dead_function.stml

# Static analysis: clang-tidy over the lint subsystem and its driver
# wiring (.clang-tidy at the repo root picks the check families).  Scoped
# to the newest code so the stage stays fast; gated on the tool being
# installed so the sweep still runs on minimal containers.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy (bugprone, performance, concurrency) ==="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p build --quiet src/lint/*.cpp src/driver/Main.cpp
else
  echo "=== clang-tidy not installed; skipping static-analysis stage ==="
fi

if [[ "${FAST}" == 0 ]]; then
  # serve-smoke rides along under ASan/UBSan so the daemon's line reader,
  # fault fallbacks, and epoch teardown get leak/overflow coverage,
  # flag-smoke so every malformed flag value is parsed under UBSan,
  # output-smoke so the streamed label-set output (its write-error exit
  # and the cross-path snapshot byte check) runs under both, and
  # snapshot-smoke and prop1-smoke because the driver answers through a
  # `serve::Epoch`: the snapshot epoch's lazy parse (lint over a snapshot)
  # and every analysis's epoch tail run there; the unit tier already
  # includes the in-process serve tests, which is what gives TSan its
  # epoch-swap coverage.
  run_preset build-asan "-DSTCFA_SANITIZE=address,undefined" \
    -L 'unit|fuzz|serve-smoke|slice-smoke|snapshot-smoke|prop1-smoke|flag-smoke|output-smoke'
  # The linearity sweep's smoke drives every front-half layer in forked
  # children, one per family.
  (cd build-asan && ctest --output-on-failure -R '^bench_scale_smoke$')
  # The one-shot driver hands its finished epoch to a static instead of
  # tearing it down; the epoch stays reachable, so LSan must stay quiet.
  echo "=== LSan: one-shot driver keeps its epoch at exit ==="
  ASAN_OPTIONS=detect_leaks=1 ./build-asan/src/driver/stcfa \
    --corpus=cubic:32 --query=all-labels >/dev/null
  run_preset build-tsan "-DSTCFA_SANITIZE=thread" -L unit
  # The lock-free point-query suite hammers one epoch from five threads,
  # and the parallel lint run shares the `call_once`-built called-once
  # and effects tables across four pass threads; a race in either can
  # hide in one interleaving, so rerun both until they fail, ten times
  # over.
  (cd build-tsan && ctest --output-on-failure --repeat until-fail:10 \
    -R 'EpochConcurrency|LintGoverned\.ParallelRunMatchesSerial')
fi

echo "=== ci.sh: all presets green ==="
