#!/usr/bin/env python3
"""Layer benchmark of the Walsh-Hadamard butterfly, ``cube._fwht_inplace``.

    python3 bench/bench_fwht.py --label change
    python3 bench/bench_fwht.py --label parent --src <other checkout>/src

Times the in-place butterfly on single rows of 2^n doubles (n = 10, 16, 20,
22, 24) and on the batches (16, 2^10) and (2^16, 16), the brute force's
shape.  Each case reports the median of 5 runs, after one untimed warm-up;
a run is the mean of enough calls to last about 0.1 s, and each call starts
from the same input, copied in outside the timed region.  The numbers are
added under ``--label`` to ``--out`` (``BENCH_fwht.json`` at the repository
root by default) together with the machine: core count, Python and numpy
versions; repeated runs under one label are kept in order, so parent and
change can be run alternately.  The n = 24 case holds two 128 MiB arrays.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = {f"n{n}": (2**n,) for n in (10, 16, 20, 22, 24)} | {"batch_16x2^10": (16, 2**10), "batch_2^16x16": (2**16, 16)}
RUNS = 5
RUN_S = 0.1


def time_case(fwht, shape) -> float:
    """Median over RUNS of the mean seconds per call."""
    src = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=shape)
    work = np.empty_like(src)

    def calls(number: int) -> float:
        total = 0.0
        for _ in range(number):
            np.copyto(work, src)
            t0 = time.perf_counter()
            fwht(work)
            total += time.perf_counter() - t0
        return total

    number = max(1, round(RUN_S / max(calls(1), 1e-6)))
    return statistics.median(calls(number) / number for _ in range(RUNS))


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the cuberadius package")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_fwht.json")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from cuberadius import cube

    if not Path(cube.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"cuberadius was imported from {cube.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    median_s = {}
    for name, shape in CASES.items():
        median_s[name] = time_case(cube._fwht_inplace, shape)
        print(f"{args.label:>10} {name:>14} {median_s[name] * 1e3:10.3f} ms", flush=True)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "cube._fwht_inplace, median of 5 runs of the mean seconds per call")
    data.setdefault("shapes", {name: list(shape) for name, shape in CASES.items()})
    data.setdefault("runs", {}).setdefault(args.label, []).append({"machine": machine(), "median_s": median_s})
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
