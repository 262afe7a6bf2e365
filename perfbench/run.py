"""cesaro-lmc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload ou-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repeat of the workload runs in a
fresh child process (``child.py``) with the BLAS/OpenMP pools pinned to one
thread, so peak memory and set-up are never inherited.

``--trace 0`` repeats the workload until the next repeat would end after
``--seconds`` (at least ``MIN_REPEATS``) and reports the median of each
end-to-end metric.  ``--trace 1`` ignores ``--seconds``: it runs one traced
repeat, one tracemalloc repeat and one untraced repeat, and reports the
per-layer metrics; all three must produce the same output bits.  Either way
the run stops starting repeats so that it ends within ``DEADLINE_S``.
Units are those listed for each metric in ``BENCHMARK.json``.

The last stdout line is the result (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it records the environment and every repeat.
Workloads, gates and metrics are described in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("ou-wide", "long-chain", "posterior-logistic")
MIN_REPEATS = 3
DEADLINE_S = 170.0  # the whole run ends within this, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload, seed, mode, tag, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--work", str(WORK / f"{workload}-{seed}-{tag}")]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "mode": mode, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    result["ok"] = result["failed"] == 0
    return result


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cesaro_lmc").glob("*.py")))
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def tally(results):
    """(correct, attempted, failed) over repeats; a crashed repeat fails all its ops."""
    ops = next((r["attempted"] for r in results if "attempted" in r), 1)
    attempted = sum(r.get("attempted", ops) for r in results)
    failed = sum(r.get("failed", ops) for r in results)
    digests = {r.get("digest") for r in results}
    correct = failed == 0 and all(r["ok"] for r in results) and len(digests) == 1
    return correct, attempted, failed


def measure(workload, seed, seconds, deadline):
    start = time.monotonic()
    results = []
    while True:
        results.append(run_child(workload, seed, "plain", f"r{len(results)}", deadline))
        elapsed = time.monotonic() - start
        per_repeat = elapsed / len(results)
        if len(results) >= MIN_REPEATS and (elapsed + per_repeat > seconds
                                            or time.monotonic() + per_repeat > deadline):
            break
    done = [r for r in results if "wall_s" in r]
    if not done:
        raise RuntimeError(f"no repeat of {workload} completed: {results[-1].get('error')}")
    values = {
        "wall_s": [r["wall_s"] for r in done],
        "setup_s": [r["setup_s"] for r in done],
        "chain_steps_per_s": [r["steps"] / (r["wall_s"] - r["setup_s"]) for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    return results, {k: statistics.median(v) for k, v in values.items()}


def trace(workload, seed, deadline):
    traced = run_child(workload, seed, "trace", "trace", deadline)
    alloc = run_child(workload, seed, "alloc", "alloc", deadline)
    plain = run_child(workload, seed, "plain", "plain", deadline)
    results = [traced, alloc, plain]
    missing = [r for r in results if "wall_s" not in r]
    if missing:
        raise RuntimeError(f"a {missing[0]['mode']} repeat of {workload} failed: {missing[0]['error']}")
    layers = dict(traced["layers"])
    peaks = alloc["peaks_mb"]
    layers["sampler.peak_alloc_mb"] = peaks.get("sampler", 0.0)
    layers["oracle.quadrature.peak_alloc_mb"] = peaks.get("oracle.quadrature", 0.0)
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return results, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of a --trace 0 run; --trace 1 ignores it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SystemExit unwinds through subprocess.run, which then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "cesaro_lmc" / "__init__.py").is_file():
        print(f"error: no cesaro_lmc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package sources do not compile", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            results, values = trace(args.workload, args.seed, deadline)
        else:
            results, values = measure(args.workload, args.seed, args.seconds, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stale in WORK.glob(f"{args.workload}-{args.seed}-*"):
            shutil.rmtree(stale, ignore_errors=True)
    correct, attempted, failed = tally(results)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    env = environment()
    env["numpy"] = results[0].get("numpy")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, "repeats": results}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
