#!/usr/bin/env python3
"""Layer benchmark of the dense path: the Walsh-Hadamard butterfly and the
public calls around it.

    python3 bench/bench_fwht.py --label change
    python3 bench/bench_fwht.py --label parent --src <other checkout>/src

Times the in-place butterfly ``cube._fwht_inplace`` on single rows of 2^n
doubles (n = 10, 16, 20, 22, 24) and on the batches (16, 2^10) and
(2^16, 16), the brute force's shape; each call starts from the same input,
copied in outside the timed region.  Then it times the public calls of a
dense radius or spectrum: ``families.threshold`` and ``walsh_transform`` at
n = 24, ``level_profile`` of that spectrum, ``dumps_spectrum`` at n = 17,
``dumps_truth_table`` of 2^17 subnormals (every value written by ``%.17g``
itself, the vector writer's worst case), ``loads_truth_table`` of the JSON text
of a uniform(-1, 1) table at n = 17 and 18, and ``brute_force_bn_radius(4)``.
It also times three whole commands through ``cli.main`` (stdout captured):
``radius --input`` of that n = 18 table from a file, ``spectrum --input`` of
the n = 17 table, and ``radius --family threshold --n 24``, which builds no table:
that radius is solved from exact integer level weights, so the case times the
CLI, not the dense layer.  Each case reports the median of 5 runs,
after one untimed warm-up; a run is the mean of enough calls to last about 0.1 s.
The numbers are added under ``--label`` to ``--out`` (``BENCH_fwht.json`` at
the repository root by default) together with the machine: core count,
Python and numpy versions; repeated runs under one label are kept in order,
so parent and change can be run alternately.  The n = 24 cases hold up to
three 128 MiB arrays.

Uses only the standard library and the package's own dependencies; it is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = {f"n{n}": (2**n,) for n in (10, 16, 20, 22, 24)} | {"batch_16x2^10": (16, 2**10), "batch_2^16x16": (2**16, 16)}
LAYER_CASES = {
    "threshold_n24": "families.threshold(ThresholdSpec(24, 1.5))",
    "walsh_transform_n24": "cube.walsh_transform of that table",
    "level_profile_n24": "radius.level_profile of that spectrum",
    "dumps_spectrum_n17": "serialize.dumps_spectrum of a uniform(-1, 1) table's spectrum",
    "dumps_truth_table_n17_subnormal": "serialize.dumps_truth_table of 2^17 subnormals, each left to %.17g",
    "loads_truth_table_n17": "serialize.loads_truth_table of a uniform(-1, 1) table's JSON text",
    "loads_truth_table_n18": "serialize.loads_truth_table of a uniform(-1, 1) table's JSON text",
    "radius_input_n18": "cli.main of radius --input <file of that n = 18 table>",
    "spectrum_input_n17": "cli.main of spectrum --input <file of that n = 17 table>",
    "brute_force_n4": "radius.brute_force_bn_radius(4)",
}
RADIUS_ARGV = ["radius", "--family", "threshold", "--n", "24", "--alpha", "1.5"]
LAYER_CASES["radius_threshold_n24"] = "cli.main of " + " ".join(RADIUS_ARGV)
RUNS = 5
RUN_S = 0.1


def median_s(call, reset=None) -> float:
    """Median over RUNS of the mean seconds per call; ``reset`` runs untimed before each."""

    def calls(number: int) -> float:
        total = 0.0
        for _ in range(number):
            if reset is not None:
                reset()
            t0 = time.perf_counter()
            call()
            total += time.perf_counter() - t0
        return total

    number = max(1, round(RUN_S / max(calls(1), 1e-6)))
    return statistics.median(calls(number) / number for _ in range(RUNS))


def butterfly_case(fwht, shape) -> float:
    src = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=shape)
    work = np.empty_like(src)
    return median_s(lambda: fwht(work), lambda: np.copyto(work, src))


def layer_medians() -> dict:
    """The public-call cases, each timed on inputs built just before it."""
    from cuberadius import cli, cube, families, radius, serialize

    spec = families.ThresholdSpec(24, 1.5)
    out = {"threshold_n24": median_s(lambda: families.threshold(spec))}
    f = families.threshold(spec)
    out["walsh_transform_n24"] = median_s(lambda: cube.walsh_transform(f))
    s = cube.walsh_transform(f)
    out["level_profile_n24"] = median_s(lambda: radius.level_profile(s, 1.0))
    table = np.random.default_rng(17).uniform(-1.0, 1.0, size=2**17)
    s17 = cube.walsh_transform(cube.from_truth_table(17, table))
    out["dumps_spectrum_n17"] = median_s(lambda: serialize.dumps_spectrum(s17))
    tiny = cube.from_truth_table(17, np.random.default_rng(17).uniform(-1.0, 1.0, size=2**17) * 1e-310)
    out["dumps_truth_table_n17_subnormal"] = median_s(lambda: serialize.dumps_truth_table(tiny))
    texts = {}
    for n in (17, 18):
        table = np.random.default_rng(n).uniform(-1.0, 1.0, size=2**n)
        texts[n] = serialize.dumps_truth_table(cube.from_truth_table(n, table))
        out[f"loads_truth_table_n{n}"] = median_s(lambda: serialize.loads_truth_table(texts[n]))
    out["brute_force_n4"] = median_s(lambda: radius.brute_force_bn_radius(4))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        paths = {n: Path(tmp) / f"table{n}.json" for n in texts}
        for n, path in paths.items():
            path.write_text(texts[n])
        out["radius_input_n18"] = median_s(lambda: cli.main(["radius", "--input", str(paths[18])]))
        out["spectrum_input_n17"] = median_s(lambda: cli.main(["spectrum", "--input", str(paths[17])]))
        out["radius_threshold_n24"] = median_s(lambda: cli.main(RADIUS_ARGV))
    return out


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
    medians = {name: butterfly_case(cube._fwht_inplace, shape) for name, shape in CASES.items()}
    medians |= layer_medians()
    for name, t in medians.items():
        print(f"{args.label:>10} {name:>31} {t * 1e3:10.3f} ms")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call")
    data.setdefault("shapes", {name: list(shape) for name, shape in CASES.items()})
    data["layer_cases"] = LAYER_CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append({"machine": machine(), "median_s": medians})
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
