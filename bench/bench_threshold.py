#!/usr/bin/env python3
"""Layer benchmark of the threshold radii: level logs, their solve and the two scans.

    python3 bench/bench_threshold.py --label change
    python3 bench/bench_threshold.py --label change --against <other checkout>/src

Times ``majority-scan --n-start 911 --n-stop 989``, ``threshold-scan
--n-list 1007,1993 --alphas 0,sqrt,half`` and ``radius --family majority --n
100001`` through ``cli.main`` (stdout captured), then the layers under them:
the level logs of the 40 majority rows, and two solves by
``radius._solve_reduced``, of those rows and of the scan's 6 rows, each block
padded with -inf to ``threshold._block_width`` of its longest row as
``threshold._radii_exact`` pads it.  The case ``tail_count_100001_25000``
times ``threshold._tail_count(100001, 25000)``, the exact tail count of the
row (100001, 50000) at the radius cap: 25,000 terms of 100,001 bits walked
from the middle end.  The case ``majority_scan_99981_100001`` times
``threshold.majority_scan`` over the 11 odd N 99981..100001 at the cap, whose
rows walk binom(N - 1, (N - 1)/2) from one math.comb.  Every input is built
by this checkout.  The two solves also report their minor page faults per
call (``ru_minflt`` of ``resource.getrusage``, over FAULT_CALLS calls after
one untimed call).

The cold cases run ``threshold-scan --n-list 1011,1991`` in COLD_RUNS fresh
processes and ``majority-scan --n-start 1 --n-stop 4001`` in LONG_RUNS, so the
imports of a first call are counted; each reports the median wall time of a
process and the median of its peak RSS (``harness.fresh_process``).  They run
on this checkout alone.  The timing, the A/B mode and the output file are
``harness.main``'s.
"""

from __future__ import annotations

import functools
import math
import resource
import statistics
import sys

import numpy as np

import harness

MAJORITY_ARGV = ["majority-scan", "--n-start", "911", "--n-stop", "989"]
SCAN_ARGV = ["threshold-scan", "--n-list", "1007,1993", "--alphas", "0,sqrt,half"]
RADIUS_ARGV = ["radius", "--family", "majority", "--n", "100001"]
COLD = {
    "cold_threshold_scan_1011_1991": (["-m", "cuberadius.cli", "threshold-scan", "--n-list", "1011,1991"], 11),
    "cold_majority_scan_1_4001": (["-m", "cuberadius.cli", "majority-scan", "--n-start", "1", "--n-stop", "4001"], 3),
}
CASES = {
    "majority_scan_911_989": "cli.main of " + " ".join(MAJORITY_ARGV),
    "threshold_scan_1007_1993": "cli.main of " + " ".join(SCAN_ARGV),
    "radius_majority_100001": "cli.main of " + " ".join(RADIUS_ARGV),
    "level_logs_911_989": "level logs of the 40 majority rows N = 911..989",
    "tail_count_100001_25000": "threshold._tail_count(100001, 25000), the tail walk of (100001, 50000) at the cap",
    "majority_scan_99981_100001": "threshold.majority_scan over the 11 odd N 99981..100001 at the cap",
    "solve_911_989": "radius solve of those 40 rows of level logs",
    "solve_scan_1007_1993": "radius solve of the 6 rows of the threshold scan",
    "cold_threshold_scan_1011_1991": "a fresh process running threshold-scan --n-list 1011,1991",
    "cold_majority_scan_1_4001": "a fresh process running majority-scan --n-start 1 --n-stop 4001",
}
TAIL_COUNT_ARGS = (100001, 25000)
CAP_MAJORITY = range(99981, 100002, 2)
MAJORITY_PAIRS = [(N, 0) for N in range(911, 990, 2)]
SCAN_PAIRS = [(N, a) for N in (1007, 1993) for a in (0, math.isqrt(N), N // 2)]
FAULT_CALLS = 20


def cases(this):
    threshold = this.threshold
    for name, argv in [("majority_scan_911_989", MAJORITY_ARGV), ("threshold_scan_1007_1993", SCAN_ARGV),
                       ("radius_majority_100001", RADIUS_ARGV)]:
        yield name, lambda tree: harness.cli_call(tree, argv)
    rows = [(N, *threshold._tail_terms(N, a)) for N, a in MAJORITY_PAIRS]
    yield "level_logs_911_989", lambda tree: lambda: [tree.threshold._level_logs(*row) for row in rows]
    yield "tail_count_100001_25000", lambda tree: functools.partial(tree.threshold._tail_count, *TAIL_COUNT_ARGS)
    yield "majority_scan_99981_100001", lambda tree: functools.partial(tree.threshold.majority_scan, CAP_MAJORITY)
    for name, pairs in [("solve_911_989", MAJORITY_PAIRS), ("solve_scan_1007_1993", SCAN_PAIRS)]:
        logs = [threshold._level_logs(N, *threshold._tail_terms(N, this.families.canonical_alpha(N, a))) for N, a in pairs]
        tail = np.full((len(logs), threshold._block_width(max(map(len, logs)))), -math.inf)
        for r, row in enumerate(logs):
            tail[r, : len(row)] = row
        yield name, lambda tree: functools.partial(tree.radius._solve_reduced, tail, np.zeros(len(logs)))


def readings(tree, name, call) -> dict:
    """Minor page faults per call of the two solves, over FAULT_CALLS calls after one untimed call."""
    if not name.startswith("solve_"):
        return {}
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_CALLS):
        call()
    return {"minor_faults_per_call": (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_CALLS}


def cold() -> dict:
    """The median wall seconds and peak RSS of each cold case's fresh processes."""
    out = {"median_s": {}, "cold_maxrss_mb": {}}
    for name, (argv, runs) in COLD.items():
        done = [harness.fresh_process(argv) for _ in range(runs)]
        out["median_s"][name] = statistics.median(wall for wall, _, _ in done)
        out["cold_maxrss_mb"][name] = statistics.median(mb for _, mb, _ in done)
    return out


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
