#!/usr/bin/env python3
"""Builds the xfc benchmark harness and runs one workload.

    python3 perfbench/run.py --workload ingest --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest [--seed 7]

Run from the repository root. The harness is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); archives
and trace files land in <build>/run/<workload>/. The last line of standard
output is the run's JSON result. XFC_THREADS is pinned to 4 for every run.

--selftest checks the benchmark itself: the deterministic metrics must
repeat exactly under one seed and move under another.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "serve-hot", "serve-cold-put")
XFC_THREADS = "4"
HARNESS_TIMEOUT_S = 170

# Metrics that are pure functions of the seed: they must repeat exactly.
# The structure-fixed ones cannot move with the seed: the training schedule
# (train steps), the CFNN architecture (model bytes), the archive layout
# (index bytes: same fields and tile counts) and the write pattern (sync
# calls). Every other one must move.
DETERMINISTIC = ("ratio", "xf_gain_pct", "psnr_db", "crossfield.mono_gain_pct",
                 "io.bytes_written", "sz.bytes", "cfnn.train_steps",
                 "cfnn.model_bytes", "archive.index_bytes", "io.sync_calls")
SEED_FIXED = ("cfnn.train_steps", "cfnn.model_bytes", "archive.index_bytes",
              "io.sync_calls")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def build(bdir):
    """Configures (once) and builds the harness; returns its path or None."""
    if shutil.which("cmake") is None:
        log("error: cmake not found")
        return None
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                              "-DCMAKE_BUILD_TYPE=Release", *gen],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry cleanly next time
            log("error: configuring the benchmark failed")
            return None
    jobs = str(os.cpu_count() or 1)
    res = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log("error: building the benchmark failed")
        return None
    return bdir / "xfc_perfbench"


def run_harness(exe, bdir, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed result or None)."""
    outdir = bdir / "run" / workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--outdir", str(outdir), *extra]
    env = dict(os.environ, XFC_THREADS=XFC_THREADS)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, cwd=ROOT, timeout=HARNESS_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} ran past {HARNESS_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest(exe, bdir, seed):
    ok = True
    runs = []
    for s in (seed, seed, seed + 1):
        rc, res = run_harness(exe, bdir, "ingest", s, 1, 1, ("--all-metrics",))
        if rc != 0 or res is None:
            log(f"selftest: ingest run with seed {s} failed")
            return False
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
    for name in DETERMINISTIC:
        a, b, c = (r[name] for r in runs)
        repeat = a == b
        moves = a != c or name in SEED_FIXED
        log(f"selftest: {name:26s} seed {seed}: {a!r} / {b!r}   "
            f"seed {seed + 1}: {c!r}   "
            f"{'ok' if repeat and moves else 'FAIL'}")
        ok = ok and repeat and moves
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    if args.selftest:
        ok = selftest(exe, bdir, args.seed)
        log(f"selftest: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    rc, result = run_harness(exe, bdir, args.workload, args.seed,
                             args.seconds, args.trace)
    if result is None:
        log(f"error: {args.workload} printed no result (exit {rc})")
        return rc or 1
    want = declared_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("error: harness metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ want)}")
        return 1
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
