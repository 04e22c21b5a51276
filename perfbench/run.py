#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, Release + LTO)
from source, runs iterations of one workload -- each a fresh driver
process -- for the requested number of seconds, and prints one JSON
result object as the last line of stdout:

    python3 perfbench/run.py --workload detailed_sweep --seed 1 \
        --seconds 48 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics (traced iterations alternate with untraced ones so the tracing
overhead is measured). Every value is the median over the run's
iterations. Provenance (build, host, seed, workers) is printed on the
line before the result and saved with it under <build>/results/.

--regen re-simulates every point any seed can choose and rewrites
perfbench/refs/<workload>.txt. --size tiny runs the small variant of a
workload that perfbench/test_perfbench.py uses.

The build directory is $CARGO_TARGET_DIR (relative to the working
directory) or .bench_build at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("detailed_sweep", "smt_rerun", "sampled_sweep")

# (name, unit, better) -- BENCHMARK.json must list the same.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
]

ARCHS = ("baseline", "regwindow", "ideal", "vca")
BATCHES = ARCHS + ("ref1t", "fig7", "fig8", "sampled", "simpoint")

PER_LAYER = (
    [("mips." + a, "MIPS", "higher") for a in ARCHS]
    + [
        ("covered_mips.sampled", "MIPS", "higher"),
        ("covered_mips.simpoint", "MIPS", "higher"),
        ("ipc_err_pct.sampled", "%", "lower"),
        ("ipc_err_pct.simpoint", "%", "lower"),
        ("ci_cover_frac", "frac", "higher"),
        ("failed_frac", "frac", "lower"),
        ("wload.gen_s", "s", "lower"),
        ("func.oracle_s", "s", "lower"),
        ("func.oracle_insts", "count", "lower"),
        ("func.fast_mips", "MIPS", "higher"),
        ("isa.bb_build_s", "s", "lower"),
        ("analysis.select_s", "s", "lower"),
        ("analysis.select_runs", "count", "lower"),
        ("analysis.cluster_s", "s", "lower"),
        ("analysis.cache_load_us.p50", "us", "lower"),
        ("analysis.cache_load_us.p99", "us", "lower"),
        ("analysis.cache_store_us.p50", "us", "lower"),
        ("analysis.cache_store_us.p99", "us", "lower"),
        ("analysis.cache_hit_frac", "frac", "higher"),
        ("analysis.json_decode_us", "us", "lower"),
        ("analysis.json_encode_us", "us", "lower"),
    ]
    + [("analysis.batch_s." + b, "s", "lower") for b in BATCHES]
    + [
        ("analysis.pool_busy_frac", "frac", "higher"),
        ("analysis.tail_s", "s", "lower"),
    ]
    + [("analysis.point_ms.%s.%s" % (a, q), "ms", "lower")
       for a in ARCHS for q in ("p50", "p90")]
    + [("cpu.ns_per_cycle." + a, "ns", "lower") for a in ARCHS]
    + [
        ("cpu.cycles", "count", "lower"),
        ("cpu.insts", "count", "higher"),
        ("cpu.construct_us", "us", "lower"),
        ("cpu.switch_in_us", "us", "lower"),
        ("core.stalls_table_conflict", "count", "lower"),
        ("core.stalls_astq", "count", "lower"),
        ("mem.dcache_acc_per_inst", "acc/inst", "lower"),
        ("mem.copy_state_us", "us", "lower"),
        ("bpred.copy_state_us", "us", "lower"),
        ("analysis.simpoint_pick_s", "s", "lower"),
        ("analysis.sampling.func_s", "s", "lower"),
        ("analysis.sampling.detail_s", "s", "lower"),
        ("analysis.sampling.detail_inst_frac", "frac", "lower"),
        ("mem.tag_valid_frac", "frac", "higher"),
        ("bpred.occupancy", "frac", "higher"),
    ]
    + [("trace.self_s." + l, "s", "lower")
       for l in ("wload", "func", "cpu", "analysis", "sim")]
    + [
        ("trace.residual_s", "s", "lower"),
        ("trace.residual_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = os.path.abspath(target) if target else os.path.join(
        ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build(bdir, jobs):
    """Configure once, then build incrementally; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return False
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", str(jobs)]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def provenance(args, jobs, build_info):
    def git_describe():
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True, timeout=10)
            return out.stdout.strip() if out.returncode == 0 else "none"
        except (OSError, subprocess.SubprocessError):
            return "none"

    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_describe": git_describe(),
        "source_sha256": digest.hexdigest()[:16],
        "build": build_info,
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "workers": jobs,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
    }


def run_iteration(driver, args, work, traced):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--size", args.size,
           "--refs", args.refs, "--work", work]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=170)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        log("driver exited with %d" % proc.returncode)
        return None, elapsed
    return json.loads(proc.stdout), elapsed


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="reference directory (default perfbench/refs)")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite perfbench/refs/<workload>.txt")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir, max(1, min(4, os.cpu_count() or 1))):
        log("build failed")
        return 1
    driver = os.path.join(bdir, "perfbench_driver")

    if args.regen:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            rc = subprocess.call([driver, "--workload", name, "--regen",
                                  "--refs", args.refs])
            if rc != 0:
                return rc
        return 0
    if args.workload == "all":
        ap.error("--workload all is only valid with --regen")

    work = os.path.join(bdir, "work-%s-%d" % (args.workload, os.getpid()))
    untraced, traced = [], []
    start = time.monotonic()
    longest = 0.0
    try:
        while True:
            # Traced runs alternate with untraced ones so the overhead
            # compares iterations taken under the same host conditions.
            want_trace = args.trace == 1 and len(traced) < len(untraced)
            # Each iteration gets its own directory and all are removed
            # at the end: deleting files between iterations would put
            # file-system flushes into the next iteration's timings.
            iter_work = os.path.join(work, str(len(untraced) + len(traced)))
            result, elapsed = run_iteration(driver, args, iter_work,
                                            want_trace)
            if result is None:
                return 1
            (traced if want_trace else untraced).append(result)
            longest = max(longest, elapsed)
            if want_trace:
                trace_file = os.path.join(iter_work, "trace.json")
            # At least two iterations: one of each kind for a traced
            # run, two untraced ones otherwise.
            enough = (len(traced) >= 1 and len(untraced) >= 1
                      if args.trace else len(untraced) >= 2)
            if enough and time.monotonic() - start + longest > args.seconds:
                break
            if len(untraced) + len(traced) >= 200:
                break
        results_dir = os.path.join(os.path.dirname(bdir), "results")
        os.makedirs(results_dir, exist_ok=True)
        if traced and os.path.exists(trace_file):
            shutil.copy(trace_file, os.path.join(
                results_dir, "%s-trace.json" % args.workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = untraced + traced
    known = {name for name, _, _ in PER_LAYER}
    unknown = {k for r in traced for k in r["layer"]} - known
    if unknown:
        log("driver reported unlisted metrics: " + ", ".join(sorted(unknown)))
        return 1
    mismatches = [m for r in iterations for m in r["mismatches"]]
    for m in sorted(set(mismatches))[:20]:
        log("mismatch: " + m)
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)

    metrics = {}
    if args.trace == 0:
        for name, unit, _ in END_TO_END:
            values = [r["e2e"][name] for r in untraced]
            metrics[name] = {"value": median(values), "unit": unit}
    else:
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                base = median([r["e2e"]["wall_s"] for r in untraced])
                value = median([r["e2e"]["wall_s"] for r in traced]) / base - 1
            else:
                # A layer the workload does not exercise reads 0.
                value = median([r["layer"].get(name, 0.0) for r in traced])
            metrics[name] = {"value": value, "unit": unit}

    prov = provenance(args, iterations[0]["jobs"], iterations[0]["build"])
    prov["iterations"] = len(iterations)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "result": result,
                   "iterations": iterations}, f, indent=1)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
