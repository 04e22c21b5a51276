#!/usr/bin/env bash
# Full verification sweep. Stages, in order:
#
#  1. Selftests of the Python checkers (perf_compare, the stats
#     schema, the accuracy gate).
#  2. Release: build and run every ctest, whatever its label (the
#     slow determinism sweep included). The CycleTaxonomy partition
#     tests run here, in the observability suite.
#  3. AddressSanitizer/UBSan: build and run -L unit. The golden suite
#     asserts exact cycle counts that are identical across
#     configurations anyway, and simulating the sweep twice more under
#     ASan adds minutes for no extra signal.
#  4. ThreadSanitizer: build the unit and robustness test binaries with
#     -DVCA_SANITIZE=thread and run the tests that put simulations on
#     several threads at once: the thread pool and its parallelFor, the
#     parallel workload selection, memories sharing one copy-on-write
#     program image, and the in-process sweeps whose pool workers
#     simulate concurrently. Any report fails the stage.
#  5. Accuracy gate: sampled and SimPoint runs of the Release vca-sim
#     against detailed IPC (scripts/accuracy_gate.py).
#  6. Isolate-overhead gate: enabled but idle, the fault-tolerant sweep
#     layer must not slow a warm cached sweep beyond
#     CHECK_ROBUST_THRESHOLD. (Its end-to-end chaos smoke is the
#     robustness.chaos_smoke ctest in the Release configuration.)
#
# Usage: scripts/check.sh [extra ctest args...]
#   CHECK_JOBS=N            parallelism (default: nproc)
#   CHECK_BUILD_DIR=dir     build-tree root (default: build-check)
#   CHECK_ROBUST_GATE=0     skip the isolate-overhead gate
#   CHECK_ROBUST_THRESHOLD=F allowed fractional wall-clock cost of the
#                           enabled-but-idle robustness layer on a
#                           warm cached sweep (default 0.02, plus a
#                           fixed 50 ms slack for host noise)
#   CHECK_ACCURACY_GATE=0   skip the sampled-mode accuracy gate
#   CHECK_ACCURACY_EPS=F    allowed fractional sampled-vs-detailed IPC
#                           error (default 0.03)
#   CHECK_ACCURACY_SPEEDUP=F required functional-vs-detailed host-MIPS
#                           factor of sampled runs (default 5.0)
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${CHECK_JOBS:-$(nproc)}"
root="${CHECK_BUILD_DIR:-build-check}"

run_config() {
    local name="$1"
    local label="$2"
    shift 2
    local dir="$root/$name"
    local -a label_args=()
    [[ -n "$label" ]] && label_args=(-L "$label")
    echo "== configure $name =="
    cmake -B "$dir" -S . "$@" >/dev/null
    echo "== build $name =="
    cmake --build "$dir" -j "$jobs"
    echo "== test $name =="
    (cd "$dir" &&
         ctest --output-on-failure -j "$jobs" "${label_args[@]}" \
               "${CTEST_ARGS[@]}")
}

CTEST_ARGS=("$@")

if command -v python3 >/dev/null; then
    echo "== perf_compare selftest =="
    python3 scripts/perf_compare.py --selftest
    echo "== check_stats_schema selftest =="
    python3 scripts/check_stats_schema.py --selftest
    echo "== accuracy_gate selftest =="
    python3 scripts/accuracy_gate.py --selftest
fi

run_config release "" -DCMAKE_BUILD_TYPE=Release
run_config asan-ubsan unit \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVCA_SANITIZE=address,undefined

echo "== configure tsan =="
cmake -B "$root/tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVCA_SANITIZE=thread >/dev/null
echo "== build tsan =="
cmake --build "$root/tsan" -j "$jobs" --target vca_tests \
      vca_robustness_tests
echo "== test tsan =="
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$root/tsan/tests/vca_tests" --gtest_brief=1 --gtest_filter=\
'ThreadPool*.*:SharedBaseMemory.*:WorkloadSelection.*:Runner.*:'\
'TraceTest.TraceCycleIsPerThread'
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$root/tsan/tests/vca_robustness_tests" --gtest_brief=1 \
    --gtest_filter='RobustPool.*:RobustCache.*:'\
'RobustRunner.IsolateWithoutTempDirFallsBackInProcess'

# Accuracy gate: the sampled execution modes on the real CLI. For
# every renamer architecture, a --mode=sampled run must land within
# CHECK_ACCURACY_EPS of the detailed IPC and its functional
# fast-forward side must beat the detailed side's host-MIPS by
# CHECK_ACCURACY_SPEEDUP. The in-process twin of this gate is
# `ctest -L accuracy` (already covered by the release configuration
# above); this stage proves the vca-sim plumbing end to end.
if [[ "${CHECK_ACCURACY_GATE:-1}" != 0 ]] && command -v python3 >/dev/null
then
    echo "== accuracy gate =="
    python3 scripts/accuracy_gate.py \
            --sim "$root/release/tools/vca-sim" \
            --eps "${CHECK_ACCURACY_EPS:-0.03}" \
            --speedup "${CHECK_ACCURACY_SPEEDUP:-5.0}" \
            --simpoint
fi

# Robustness overhead gate: with isolation and checksums enabled but
# no fault firing, a warm (pure-cache-hit) sweep must cost no more
# than the stripped-down configuration. The chaos smoke itself is the
# robustness.chaos_smoke ctest the release configuration already runs.
if [[ "${CHECK_ROBUST_GATE:-1}" != 0 ]] && command -v python3 >/dev/null
then
    echo "== isolate-overhead gate =="
    sim="$PWD/$root/release/tools/vca-sim"
    work="$PWD/$root/robust-gate"
    rm -rf "$work"
    python3 - "$sim" "$work/overhead-cache" <<'EOF'
import os
import subprocess
import sys
import time

sim, cache = sys.argv[1], sys.argv[2]
args = [sim, "--bench=crafty", "--arch=all", "--warmup=2000",
        "--insts=20000", "--sweep-regs=" + ",".join(
            str(r) for r in range(64, 257, 16))]

def best_of(runs, extra):
    env = dict(os.environ, VCA_CACHE_DIR=cache, VCA_FAULT_INJECT="",
               **extra)
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(args, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best

best_of(1, {})  # populate the cache; timed runs below are pure hits
base = best_of(5, {"VCA_CACHE_VERIFY": "0", "VCA_ISOLATE": "0"})
cand = best_of(5, {"VCA_ISOLATE": "1"})
threshold = float(os.environ.get("CHECK_ROBUST_THRESHOLD", "0.02"))
slack = 0.05
print("isolate-overhead gate: base %.1f ms, robust %.1f ms" %
      (base * 1e3, cand * 1e3))
if cand > base * (1 + threshold) + slack:
    sys.exit("robust clean path %.3fs exceeds base %.3fs by more "
             "than %.0f%% + %.0f ms slack" %
             (cand, base, threshold * 100, slack * 1e3))
EOF
fi

echo "== all configurations passed =="
