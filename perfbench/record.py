"""Record a benchmark result set and print the baseline table.

    python3 perfbench/record.py [--name seed-baseline]
    python3 perfbench/record.py --spread 10 [--name seed-spread]

Every run goes through the command of ``BENCHMARK.json`` with its
``run_seconds``.  By default this runs every workload untraced and traced on
the working seed and on the held-out seed, and writes
``perfbench/results/<name>.json`` (the environment, each run's result line
and its repeats) and ``<name>.md`` (the baseline table).  The table covers
the per-shape rows of the ROADMAP baseline that these workloads exercise.

``--spread K`` instead runs each workload of ``BENCHMARK.json`` untraced on
K seeds that are neither the working nor the held-out seed, and writes and
prints the interquartile range over the median of each end-to-end metric
beside its bound.  Either way it exits 1 if any run is not correct, after
writing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKING_SEED, HELD_OUT_SEED = 1, 20201013  # the held-out seed is never used while tuning


SPREAD_SEED0 = 101
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace, "error": proc.stderr.strip()[-2000:]}
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def table(runs):
    """Baseline rows from the working-seed runs."""
    def find(workload, trace):
        return next(r for r in runs if r["seed"] == WORKING_SEED and r["workload"] == workload
                    and r["trace"] == trace and "result" in r)

    def metric(workload, trace, name):
        return find(workload, trace)["result"]["metrics"][name]["value"]

    rows = [("Philox noise over 2000 streams (ou-wide, traced)",
             f"{metric('ou-wide', 1, 'rng.ns_per_draw'):.1f} ns/draw")]
    per_op = {}
    for rep in find("long-chain", 0)["repeats"]:
        for call in rep.get("calls", []):
            per_op.setdefault(call["op"], []).append(call["s"] * 1e6 / call["steps"])
    for op, us in per_op.items():
        rows.append((f"`{op.split(':')[0]}`, {op.split(':')[1]}, M=1", f"{statistics.median(us):.1f} us/step"))
    for workload in ("ou-wide", "posterior-logistic"):
        for shape in find(workload, 1)["repeats"][0].get("shapes", []):
            m = shape["m"]
            rows.append((f"`replicate_runs`, {shape['potential']}, M={m}, N={shape['steps'] // m}",
                         f"{shape['us_per_step'] * m:.0f} us/step"))
    grad_calls = metric("posterior-logistic", 1, "bayes.grad.calls")
    rows.append(("posterior `grad` on a (200, 2) batch, n=1000",
                 f"{metric('posterior-logistic', 1, 'bayes.grad.busy_s') / grad_calls * 1e3:.2f} ms/call"))
    rows.append(("quadrature reference, 161^2 nodes, n=1000",
                 f"{metric('posterior-logistic', 1, 'oracle.quadrature.busy_s'):.2f} s"))
    for workload in ("ou-wide", "long-chain", "posterior-logistic"):
        rows.append((f"{workload}: wall / set-up / peak RSS",
                     f"{metric(workload, 0, 'wall_s'):.2f} s / {metric(workload, 0, 'setup_s'):.3f} s / "
                     f"{metric(workload, 0, 'peak_rss_mb'):.0f} MB"))
    env = find("ou-wide", 0)["env"]
    lines = [f"{env['cpu_model']}, {env['nproc']} CPUs, Python {env['python']}, numpy {env['numpy']}, "
             f"threads pinned to 1, {env['src_lines']} source lines in src/cesaro_lmc", "",
             "| layer / path | measured |", "|---|---|"]
    lines += [f"| {name} | {value} |" for name, value in rows]
    return "\n".join(lines)


def spread_table(runs):
    """IQR / median of each end-to-end metric over the seeds, per workload."""
    lines = ["| workload | metric | median | IQR / median | bound |", "|---|---|---|---|---|"]
    for w in BENCH["workloads"]:
        done = [r for r in runs if r["workload"] == w["name"] and "result" in r]
        for m in BENCH["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in done]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            lines.append(f"| {w['name']} | {m['name']} | {med:.4g} {m['unit']} | {(q3 - q1) / med:.3f} "
                         f"| {m['bound']} |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--name", default=None, help="default: seed-baseline, or seed-spread with --spread")
    ap.add_argument("--spread", type=int, default=0, metavar="K")
    args = ap.parse_args(argv)
    name = args.name or ("seed-spread" if args.spread else "seed-baseline")

    if args.spread:
        plan = [(w["name"], seed, 0) for w in BENCH["workloads"]
                for seed in range(SPREAD_SEED0, SPREAD_SEED0 + args.spread)]
    else:
        plan = [(workload, seed, trace) for seed in (WORKING_SEED, HELD_OUT_SEED)
                for workload in ("ou-wide", "long-chain", "posterior-logistic") for trace in (0, 1)]
    runs = []
    for workload, seed, trace in plan:
        runs.append(run(workload, seed, trace))
        res = runs[-1].get("result", {})
        print(f"{workload} seed={seed} trace={trace}: correct={res.get('correct')} "
              f"attempted={res.get('attempted')} failed={res.get('failed')}", file=sys.stderr)
    out = HERE / "results" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": BENCH["run_seconds"], "working_seed": WORKING_SEED,
                               "held_out_seed": HELD_OUT_SEED, "runs": runs}, indent=1) + "\n")
    text = spread_table(runs) if args.spread else table(runs)
    out.with_suffix(".md").write_text(text + "\n")
    print(text)
    return 0 if all(r.get("result", {}).get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
