#!/usr/bin/env python3
"""Layer benchmark of the threshold radii: level logs, their solve and the two scans.

    python3 bench/bench_threshold.py --label change
    python3 bench/bench_threshold.py --label parent --src <other checkout>/src

Times ``majority-scan --n-start 911 --n-stop 989`` and ``threshold-scan
--n-list 1007,1993 --alphas 0,sqrt,half`` through ``cli.main`` (stdout
captured), then the layers under them: the level logs of the 40 majority
rows, their solve as one -inf-padded block by ``radius._solve_reduced``, and
the solve of the scan's 6 rows.  Each block is padded as the checkout's
``threshold._radii_exact`` pads it: to ``_block_width`` of its widest row
where the checkout has that helper, else to the widest row.  Each case
reports the median of 5 runs, after one untimed warm-up; a run is the mean of
enough calls to last about 0.1 s (see ``bench_fwht.median_s``).  The two
solves also report their minor page faults per call (``ru_minflt`` of
``resource.getrusage``, over 20 calls after the warm-up).

A cold case runs ``threshold-scan --n-list 1011,1991`` in COLD_RUNS fresh
processes (``python -m cuberadius.cli`` with ``--src`` as PYTHONPATH, stdout
to the null device), so the imports of a first call are counted; it reports
the median wall time of a process and the median of its peak RSS
(``ru_maxrss`` from ``os.wait4``).

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

MAJORITY_ARGV = ["majority-scan", "--n-start", "911", "--n-stop", "989", "--workers", "1"]
SCAN_ARGV = ["threshold-scan", "--n-list", "1007,1993", "--alphas", "0,sqrt,half"]
CASES = {
    "majority_scan_911_989": "cli.main of " + " ".join(MAJORITY_ARGV),
    "threshold_scan_1007_1993": "cli.main of " + " ".join(SCAN_ARGV),
    "level_logs_911_989": "level logs of the 40 majority rows N = 911..989",
    "solve_911_989": "radius solve of those 40 rows of level logs",
    "solve_scan_1007_1993": "radius solve of the 6 rows of the threshold scan",
    "cold_threshold_scan_1011_1991": "a fresh process running threshold-scan --n-list 1011,1991",
}
COLD_ARGV = ["-m", "cuberadius.cli", "threshold-scan", "--n-list", "1011,1991"]
COLD_RUNS = 11
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

    rows = [(N, *threshold._tail_terms(N, canonical_alpha(N, a))) for N, a in pairs]
    width = getattr(threshold, "_block_width", lambda n: n)(max(N for N, _ in pairs))
    tail = np.full((len(rows), width), -math.inf)
    for r, row in enumerate(rows):
        tail[r, : row[0]] = threshold._level_logs(*row)
    return lambda: radius._solve_reduced(tail, np.zeros(len(rows)))


def cold_process(src: Path) -> tuple:
    """(wall seconds, peak RSS in MB) of one fresh process running COLD_ARGV."""
    env = dict(os.environ, PYTHONPATH=str(src))
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + COLD_ARGV, env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(COLD_ARGV)} failed with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def cold_medians(src: Path) -> tuple:
    runs = [cold_process(src) for _ in range(COLD_RUNS)]
    return statistics.median(w for w, _ in runs), statistics.median(m for _, m in runs)


def medians() -> tuple:
    from cuberadius import cli, radius, threshold

    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        out["majority_scan_911_989"] = median_s(lambda: cli.main(MAJORITY_ARGV))
        out["threshold_scan_1007_1993"] = median_s(lambda: cli.main(SCAN_ARGV))
    rows = [(N, *threshold._tail_terms(N, a)) for N, a in MAJORITY_PAIRS]
    out["level_logs_911_989"] = median_s(lambda: [threshold._level_logs(*row) for row in rows])
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
    result["cold_threshold_scan_1011_1991"], maxrss = cold_medians(src)
    for name, t in result.items():
        print(f"{args.label:>10} {name:>29} {t * 1e3:10.3f} ms")
    for name, f in faults.items():
        print(f"{args.label:>10} {name:>29} {f:10.1f} minor faults per call")
    print(f"{args.label:>10} {'cold_threshold_scan_1011_1991':>29} {maxrss:10.1f} MB peak RSS")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call (bench/bench_threshold.py)")
    data["cases"] = CASES
    run = {"machine": machine(), "median_s": result, "minor_faults_per_call": faults,
           "cold_maxrss_mb": {"cold_threshold_scan_1011_1991": maxrss}}
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
