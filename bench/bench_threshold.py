#!/usr/bin/env python3
"""Layer benchmark of the threshold radii: level logs, their solve and the two scans.

    python3 bench/bench_threshold.py --label change
    python3 bench/bench_threshold.py --label parent --src <other checkout>/src

Times ``majority-scan --n-start 911 --n-stop 989`` and ``threshold-scan
--n-list 1007,1993 --alphas 0,sqrt,half`` through ``cli.main`` (stdout
captured), then the layers under them: the level logs of the 40 majority
rows, their solve as one -inf-padded block by ``radius._solve_reduced``, and
the solve of the scan's 6 rows.  Each block is padded as the checkout's
``threshold._radii_exact`` pads it: to ``_block_width`` of its longest row of
level logs where the checkout has that helper, else to that row's length (a
checkout whose ``_level_logs`` returns all N levels pads to the widest N).
Where the checkout's radius cap ``threshold.MAX_SYMMETRIC_N`` admits it, the
case ``radius_majority_100001`` times ``radius --family majority --n 100001``
through ``cli.main``; a checkout with a lower cap records null.  The case
``tail_count_100001_25000`` times ``threshold._tail_count(100001, 25000)``,
the exact tail count of the row (100001, 50000) at the radius cap: 25,000
terms of 100,001 bits walked from the middle end.  Each case
reports the median of 5 runs, after one untimed warm-up; a run is the mean of
enough calls to last about 0.1 s (see ``bench_fwht.median_s``).  The two
solves also report their minor page faults per call (``ru_minflt`` of
``resource.getrusage``, over 20 calls after the warm-up).

A cold case runs ``threshold-scan --n-list 1011,1991`` in COLD_RUNS fresh
processes (``python -m cuberadius.cli`` with ``--src`` as PYTHONPATH, stdout
to the null device), so the imports of a first call are counted; it reports
the median wall time of a process and the median of its peak RSS
(``ru_maxrss`` from ``os.wait4``).  The same is done for ``majority-scan
--n-start 1 --n-stop 4001`` in LONG_RUNS fresh processes.

The numbers are added under ``--label`` to ``--out`` (``BENCH_threshold.json``
at the repository root by default) together with the machine; repeated runs
under one label are kept in order, so parent and change can be run
alternately.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_fwht import ROOT, machine, median_s

MAJORITY_ARGV = ["majority-scan", "--n-start", "911", "--n-stop", "989"]
SCAN_ARGV = ["threshold-scan", "--n-list", "1007,1993", "--alphas", "0,sqrt,half"]
CASES = {
    "majority_scan_911_989": "cli.main of " + " ".join(MAJORITY_ARGV),
    "threshold_scan_1007_1993": "cli.main of " + " ".join(SCAN_ARGV),
    "level_logs_911_989": "level logs of the 40 majority rows N = 911..989",
    "solve_911_989": "radius solve of those 40 rows of level logs",
    "solve_scan_1007_1993": "radius solve of the 6 rows of the threshold scan",
    "cold_threshold_scan_1011_1991": "a fresh process running threshold-scan --n-list 1011,1991",
    "radius_majority_100001": "cli.main of radius --family majority --n 100001 (null where the cap is lower)",
    "tail_count_100001_25000": "threshold._tail_count(100001, 25000), the tail walk of (100001, 50000) at the cap",
    "cold_majority_scan_1_4001": "a fresh process running majority-scan --n-start 1 --n-stop 4001",
}
COLD_ARGV = ["-m", "cuberadius.cli", "threshold-scan", "--n-list", "1011,1991"]
COLD_RUNS = 11
LONG_ARGV = ["-m", "cuberadius.cli", "majority-scan", "--n-start", "1", "--n-stop", "4001"]
LONG_RUNS = 3
RADIUS_ARGV = ["radius", "--family", "majority", "--n", "100001"]
TAIL_COUNT_ARGS = (100001, 25000)
MAJORITY_PAIRS = [(N, 0) for N in range(911, 990, 2)]
SCAN_PAIRS = [(N, a) for N in (1007, 1993) for a in (0, math.isqrt(N), N // 2)]
FAULT_CALLS = 20


def minor_faults(call) -> float:
    """Minor page faults per call over FAULT_CALLS calls, after one untimed call."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(FAULT_CALLS):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_CALLS


def solve_call(threshold, radius, pairs):
    """The solve of the rows of ``pairs`` as one block padded as this checkout pads it."""
    from cuberadius.families import canonical_alpha

    logs = [threshold._level_logs(N, *threshold._tail_terms(N, canonical_alpha(N, a))) for N, a in pairs]
    width = getattr(threshold, "_block_width", lambda n: n)(max(map(len, logs)))
    tail = np.full((len(logs), width), -math.inf)
    for r, row in enumerate(logs):
        tail[r, : len(row)] = row
    return lambda: radius._solve_reduced(tail, np.zeros(len(logs)))


def cold_process(src: Path, argv) -> tuple:
    """(wall seconds, peak RSS in MB) of one fresh process running argv."""
    env = dict(os.environ, PYTHONPATH=str(src))
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def cold_medians(src: Path, argv, runs: int) -> tuple:
    done = [cold_process(src, argv) for _ in range(runs)]
    return statistics.median(w for w, _ in done), statistics.median(m for _, m in done)


def medians() -> tuple:
    from cuberadius import cli, radius, threshold

    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        out["majority_scan_911_989"] = median_s(lambda: cli.main(MAJORITY_ARGV))
        out["threshold_scan_1007_1993"] = median_s(lambda: cli.main(SCAN_ARGV))
        capped = threshold.MAX_SYMMETRIC_N < int(RADIUS_ARGV[-1])
        out["radius_majority_100001"] = None if capped else median_s(lambda: cli.main(RADIUS_ARGV))
    rows = [(N, *threshold._tail_terms(N, a)) for N, a in MAJORITY_PAIRS]
    out["level_logs_911_989"] = median_s(lambda: [threshold._level_logs(*row) for row in rows])
    out["tail_count_100001_25000"] = median_s(lambda: threshold._tail_count(*TAIL_COUNT_ARGS))
    faults = {}
    for name, pairs in [("solve_911_989", MAJORITY_PAIRS), ("solve_scan_1007_1993", SCAN_PAIRS)]:
        solve = solve_call(threshold, radius, pairs)
        out[name] = median_s(solve)
        faults[name] = minor_faults(solve)
    return out, faults


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
    result, faults = medians()
    maxrss = {}
    for name, argv, runs in [("cold_threshold_scan_1011_1991", COLD_ARGV, COLD_RUNS),
                             ("cold_majority_scan_1_4001", LONG_ARGV, LONG_RUNS)]:
        result[name], maxrss[name] = cold_medians(src, argv, runs)
    for name, t in result.items():
        print(f"{args.label:>10} {name:>29} " + ("      null" if t is None else f"{t * 1e3:10.3f} ms"))
    for name, f in faults.items():
        print(f"{args.label:>10} {name:>29} {f:10.1f} minor faults per call")
    for name, m in maxrss.items():
        print(f"{args.label:>10} {name:>29} {m:10.1f} MB peak RSS")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call (bench/bench_threshold.py)")
    data["cases"] = CASES
    run = {"machine": machine(), "median_s": result, "minor_faults_per_call": faults, "cold_maxrss_mb": maxrss}
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
