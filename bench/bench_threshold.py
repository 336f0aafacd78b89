#!/usr/bin/env python3
"""Layer benchmark of the threshold radii: level logs, their solve and the two scans.

    python3 bench/bench_threshold.py --label change
    python3 bench/bench_threshold.py --label parent --src <other checkout>/src

Times ``majority-scan --n-start 911 --n-stop 989`` and ``threshold-scan
--n-list 1007,1993 --alphas 0,sqrt,half`` through ``cli.main`` (stdout
captured), then the two layers under the majority scan for its 40 rows: the
level logs, and their solve.  A checkout with ``threshold._level_logs`` forms
the logs from 128-bit heads and solves them as one -inf-padded block with one
``radius._solve_reduced``; an older one forms each log from the full N-bit
product and bisects each row on its own with ``radius._one_radius``, as its
``_radius_exact`` did.  Each case reports the median of 5 runs, after one
untimed warm-up; a run is the mean of enough calls to last about 0.1 s (see
``bench_fwht.median_s``).  The numbers are added under ``--label`` to
``--out`` (``BENCH_threshold.json`` at the repository root by default)
together with the machine; repeated runs under one label are kept in order,
so parent and change can be run alternately.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from bench_fwht import ROOT, machine, median_s

MAJORITY_NS = range(911, 990, 2)
MAJORITY_ARGV = ["majority-scan", "--n-start", "911", "--n-stop", "989", "--workers", "1"]
SCAN_ARGV = ["threshold-scan", "--n-list", "1007,1993", "--alphas", "0,sqrt,half"]
CASES = {
    "majority_scan_911_989": "cli.main of " + " ".join(MAJORITY_ARGV),
    "threshold_scan_1007_1993": "cli.main of " + " ".join(SCAN_ARGV),
    "level_logs_911_989": "level logs of the 40 majority rows N = 911..989",
    "solve_911_989": "radius solve of those 40 rows of level logs",
}


def full_width_logs(threshold, N, alpha, T, lead) -> list:
    """The level logs as a checkout without heads forms them: full N-bit products."""
    num, den = N * lead, min(T, 2**N - T)
    c = threshold._krawtchouk(N, alpha)
    return [threshold._log_ratio(num * abs(ck), (k + 1) * den) if ck else -math.inf for k, ck in enumerate(c)]


def layer_calls(threshold, radius):
    """(level logs of the majority rows, solve of those logs) as this checkout does them."""
    rows = [(N, *threshold._tail_terms(N, 0)) for N in MAJORITY_NS]
    if hasattr(threshold, "_level_logs"):
        tail = np.full((len(rows), max(MAJORITY_NS)), -math.inf)
        for r, row in enumerate(rows):
            tail[r, : row[0]] = threshold._level_logs(*row)
        return (
            lambda: [threshold._level_logs(*row) for row in rows],
            lambda: radius._solve_reduced(tail, np.zeros(len(rows))),
        )
    logs = [np.array(full_width_logs(threshold, *row)) for row in rows]
    return (
        lambda: [full_width_logs(threshold, *row) for row in rows],
        lambda: [radius._one_radius(row, 0.0) for row in logs],
    )


def medians() -> dict:
    from cuberadius import cli, radius, threshold

    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        out["majority_scan_911_989"] = median_s(lambda: cli.main(MAJORITY_ARGV))
        out["threshold_scan_1007_1993"] = median_s(lambda: cli.main(SCAN_ARGV))
    logs, solve = layer_calls(threshold, radius)
    out["level_logs_911_989"] = median_s(logs)
    out["solve_911_989"] = median_s(solve)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the cuberadius package")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_threshold.json")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cuberadius

    if not Path(cuberadius.__file__).resolve().is_relative_to(src):
        print(f"cuberadius was imported from {cuberadius.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    result = medians()
    for name, t in result.items():
        print(f"{args.label:>10} {name:>24} {t * 1e3:10.3f} ms")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call (bench/bench_threshold.py)")
    data["cases"] = CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append({"machine": machine(), "median_s": result})
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
