"""One-time validation gate for the run's MSE interval.

``mse_experiment`` reports the normal 95% interval on the MSE, mean +- z
s / sqrt(m) (``diagnostics._normal_ci``), in place of a 2000-resample
percentile bootstrap.  The swap is adopted only if the normal interval's
coverage is within 1.5 points of the bootstrap's in every cell of m in
{20, 200, 2000} x d in {1, 2, 5}.

Each trial draws m chi^2_d squared errors (the squared error of a
d-dimensional standard normal estimate, whose mean d is the true MSE) and
builds both intervals: the package's normal interval, and this script's
own percentile bootstrap, the 2.5 and 97.5 percentiles of
``sq[rng.integers(0, m, (R, m))].mean(1)``.  The result, with the trials
only one of the two intervals covers, is recorded in
interval_coverage.json next to this script.

Usage: python validation/run_interval_coverage.py
"""

import json
import time
from pathlib import Path

import numpy as np

from cesaro_lmc.diagnostics import _normal_ci
from cesaro_lmc.rng import mix64, stream

# m -> (trials, bootstrap resamples)
SIZES = {20: (4000, 2000), 200: (2000, 2000), 2000: (400, 1000)}
DIMS = (1, 2, 5)
GAP, BASE_SEED = 0.015, 20201013


def cell(m, d, trials, resamples, seed):
    rng = stream(seed)
    boot = np.empty(trials, bool)
    normal = np.empty(trials, bool)
    widths = np.empty((trials, 2))
    for t in range(trials):
        sq = rng.chisquare(d, size=m)
        lo_b, hi_b = np.percentile(sq[rng.integers(0, m, (resamples, m))].mean(1), [2.5, 97.5])
        lo_n, hi_n = _normal_ci(sq)
        boot[t], normal[t] = lo_b <= d <= hi_b, lo_n <= d <= hi_n
        widths[t] = hi_b - lo_b, hi_n - lo_n
    cov_b, cov_n = float(boot.mean()), float(normal.mean())
    return {
        "m": m, "d": d, "trials": trials, "resamples": resamples, "seed": seed,
        "coverage_bootstrap": cov_b,
        "coverage_normal": cov_n,
        "gap": abs(cov_n - cov_b),
        "only_bootstrap_covers": int(np.sum(boot & ~normal)),
        "only_normal_covers": int(np.sum(normal & ~boot)),
        "width_ratio_normal_over_bootstrap": float(widths[:, 1].mean() / widths[:, 0].mean()),
    }


def main():
    t0 = time.time()
    cells = []
    for i, (m, (trials, resamples)) in enumerate(SIZES.items()):
        for j, d in enumerate(DIMS):
            cells.append(cell(m, d, trials, resamples, mix64(BASE_SEED, 3 * i + j)))
            c = cells[-1]
            print(f"  m={m} d={d}: bootstrap {c['coverage_bootstrap']:.4f}, "
                  f"normal {c['coverage_normal']:.4f} ({time.time() - t0:.0f}s)")
    record = {
        "settings": {"sizes": {str(m): {"trials": t, "resamples": r} for m, (t, r) in SIZES.items()},
                     "dims": list(DIMS), "base_seed": BASE_SEED, "level": 0.95},
        "cells": cells,
        "max_gap": max(c["gap"] for c in cells),
        "gate": f"|coverage_normal - coverage_bootstrap| <= {GAP} in every cell",
        "passed": all(c["gap"] <= GAP for c in cells),
        "elapsed_seconds": round(time.time() - t0, 1),
    }
    out = Path(__file__).parent / "interval_coverage.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["passed"]


if __name__ == "__main__":
    main()
