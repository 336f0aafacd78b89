"""Seeded inputs, operations and output checks of the benchmark workloads.

``make_inputs`` turns a seed into the inputs of one workload (and writes the
input files); it needs only numpy, so the program receives nothing but the
generated inputs.  ``operations`` lists the calls one pass makes, each with a
check of properties that hold for any seed.

Run as a script it performs one timed set-up, the unit ``setup_s`` measures:

    python3 perfbench/workloads.py --workload dense --seed 1 --dir <empty dir>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("suites", "threshold", "dense")

RESIDUAL_TOL = 1e-10
SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# Band widths keep the cost of a pass the same for every seed: the exact
# threshold path costs about N^2 |alpha| bigint work.
SUITE_SAMPLES = 10
SCAN_BANDS = ((1001, 1021), (1981, 2001))
MAJORITY_START_BAND = (901, 921)
MAJORITY_COUNT = 40
SPECTRUM_N_BAND = (3991, 4001)
DENSE_N = (22, 24)
PARSE_N = 18
EMIT_N = 17
HOMOGENEOUS = (10, 2, 200)  # N, m, trials


def import_cuberadius():
    """Import the package from ``src`` of this checkout, never from elsewhere."""
    if not (SRC / "cuberadius" / "__init__.py").is_file():
        raise ImportError(f"no cuberadius package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuberadius
    import cuberadius.cli

    if Path(cuberadius.__file__).resolve().parent != SRC / "cuberadius":
        raise ImportError(f"cuberadius was imported from {cuberadius.__file__}, not from {SRC}")


def _odd_in(rng, band) -> int:
    lo, hi = band
    return lo + 2 * int(rng.integers(0, (hi - lo) // 2 + 1))


def _write_table(path: Path, values: np.ndarray, n: int) -> None:
    text = '{"n": %d, "values": [%s]}\n' % (n, ", ".join("%.17g" % v for v in values.tolist()))
    path.write_text(text)


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "suites":
        return {"verify_seed": int(rng.integers(0, 2**31))}
    if workload == "threshold":
        start = _odd_in(rng, MAJORITY_START_BAND)
        n_spec = _odd_in(rng, SPECTRUM_N_BAND)
        return {
            "scan_ns": [_odd_in(rng, band) for band in SCAN_BANDS],
            "majority": (start, start + 2 * (MAJORITY_COUNT - 1)),
            "spectrum": (n_spec, n_spec // 2 - int(rng.integers(0, 8))),
        }
    if workload == "dense":
        params = {
            "alphas": [round(float(rng.uniform(0.0, 4.0)), 3) for _ in DENSE_N],
            "homogeneous_seed": int(rng.integers(0, 2**31)),
            "tables": {},
        }
        for n in (PARSE_N, EMIT_N):
            values = rng.uniform(-1.0, 1.0, size=2**n)
            path = workdir / f"table{n}.json"
            _write_table(path, values, n)
            params["tables"][n] = (path, values)
        return params
    raise ValueError(f"unknown workload {workload!r}")


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]  # () -> (exit code, output text)
    check: Callable[[str], list]  # problems in the output of a run that exited 0


def _cli(argv):
    from cuberadius import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    return run


def _csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_verify(text):
    report = json.loads(text)
    problems = []
    if report["failures"] != 0:
        problems.append(f"{report['failures']} inequality failures")
    if report["samples"] < 1:
        problems.append("no samples checked")
    return problems


def _check_scan(ns):
    def check(text):
        problems = []
        rows = _csv_rows(text)
        if {int(r["n"]) for r in rows} != set(ns):
            problems.append("scan rows do not cover the requested N")
        for r in rows:
            if r["sandwich_ok"] != "true":
                problems.append(f"sandwich fails at n={r['n']} alpha={r['alpha']}")
            if not 0.0 <= float(r["mckay_c"]) <= SQRT_HALF_PI:
                problems.append(f"mckay_c {r['mckay_c']} outside [0, sqrt(pi/2)]")
        return problems

    return check


def _check_majority(start, stop):
    def check(text):
        problems = []
        rows = _csv_rows(text)
        if [int(r["n"]) for r in rows] != list(range(start, stop + 1, 2)):
            problems.append("majority rows do not match the requested range")
        for r in rows:
            if not 0.95 <= float(r["ratio_to_gamma"]) <= 1.05:
                problems.append(f"ratio {r['ratio_to_gamma']} outside [0.95, 1.05] at n={r['n']}")
        return problems

    return check


def _check_symmetric(n):
    def check(text):
        problems = []
        obj = json.loads(text)
        if obj["n"] != n or len(obj["log_abs"]) != n + 1:
            return problems + ["wrong spectrum size"]
        # Parseval for a +-1 function: sum_m binom(n, m) ghat([m])^2 = 1
        terms = [
            math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1) + 2.0 * float(la)
            for m, la in enumerate(obj["log_abs"])
            if la != "-inf"
        ]
        top = max(terms)
        energy = math.exp(top) * math.fsum(math.exp(t - top) for t in terms)
        if abs(energy - 1.0) > 1e-9:
            problems.append(f"Parseval energy {energy!r} != 1")
        return problems

    return check


def _check_radius(sup, table=None):
    def check(text):
        problems = _check_table_file(*table) if table else []
        obj = json.loads(text)
        if not isinstance(obj["radius"], float) or not 0.0 < obj["radius"] <= 1.0:
            problems.append(f"radius {obj['radius']!r} outside (0, 1]")
        if not obj["residual"] <= RESIDUAL_TOL * max(1.0, sup):
            problems.append(f"residual {obj['residual']!r} above {RESIDUAL_TOL} * max(1, sup)")
        return problems

    return check


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_table_file(path, values):
    """The program reads the generated table bit-exactly and writes it back losslessly."""
    from cuberadius import serialize

    f = serialize.loads_truth_table(path.read_text())
    problems = [] if _same_bits(f.values, values) else [f"{path.name} did not parse bit-exactly"]
    if not _same_bits(serialize.loads_truth_table(serialize.dumps_truth_table(f)).values, values):
        problems.append("truth-table JSON does not round-trip bit-exactly")
    return problems


def _check_spectrum(n, path, values):
    def check(text):
        from cuberadius import serialize

        problems = _check_table_file(path, values)
        s = serialize.loads_spectrum(text)
        if s.n != n:
            return problems + ["wrong spectrum size"]
        if serialize.dumps_spectrum(s) != text:
            problems.append("spectrum JSON does not round-trip byte-exactly")
        energy, power = float(np.sum(s.coeffs**2)), float(np.mean(values**2))
        if abs(energy - power) > 1e-12 * power:
            problems.append(f"Parseval: sum fhat^2 = {energy!r}, E f^2 = {power!r}")
        return problems

    return check


def _check_brute(text):
    obj = json.loads(text)
    problems = []
    if not abs(obj["brute_force"] - (2.0**0.25 - 1.0)) <= 1e-10 or obj["match"] is not True:
        problems.append(f"brute force {obj['brute_force']!r} != 2^(1/4) - 1")
    return problems


def _homogeneous(seed):
    from cuberadius import radius

    def run():
        return 0, repr(radius.homogeneous_class_scan(*HOMOGENEOUS, seed))

    return run


def _check_homogeneous(text):
    r = float(text)
    lower = 2.0 ** (1.0 / HOMOGENEOUS[0]) - 1.0  # radius of the class of all functions
    return [] if lower <= r <= 1.0 else [f"homogeneous scan radius {r!r} outside [{lower}, 1]"]


def operations(workload: str, params: dict) -> list:
    if workload == "suites":
        argv = "verify --suite all --n-max 10 --samples %d --seed %d --workers 1"
        argv = (argv % (SUITE_SAMPLES, params["verify_seed"])).split()
        return [Op("verify", _cli(argv), _check_verify)]
    if workload == "threshold":
        ns = params["scan_ns"]
        start, stop = params["majority"]
        n, alpha = params["spectrum"]
        return [
            Op(
                "threshold-scan",
                _cli(["threshold-scan", "--n-list", ",".join(map(str, ns)), "--alphas", "0,sqrt,half"]),
                _check_scan(ns),
            ),
            Op(
                "majority-scan",
                _cli(["majority-scan", "--n-start", str(start), "--n-stop", str(stop), "--workers", "1"]),
                _check_majority(start, stop),
            ),
            Op(
                "spectrum-symmetric",
                _cli(["spectrum", "--family", "threshold", "--n", str(n), "--alpha", str(alpha), "--symmetric"]),
                _check_symmetric(n),
            ),
        ]
    if workload == "dense":
        ops = [
            Op(
                f"radius-threshold-{n}",
                _cli(["radius", "--family", "threshold", "--n", str(n), "--alpha", str(alpha)]),
                _check_radius(1.0),
            )
            for n, alpha in zip(DENSE_N, params["alphas"])
        ]
        parse_path, parse_values = params["tables"][PARSE_N]
        emit_path, emit_values = params["tables"][EMIT_N]
        ops += [
            Op(
                "radius-input",
                _cli(["radius", "--input", str(parse_path)]),
                _check_radius(float(np.max(np.abs(parse_values))), (parse_path, parse_values)),
            ),
            Op(
                "spectrum-input",
                _cli(["spectrum", "--input", str(emit_path), "--n", str(EMIT_N)]),
                _check_spectrum(EMIT_N, emit_path, emit_values),
            ),
            Op("bn-brute", _cli(["bn", "--n", "4", "--brute", "--workers", "2"]), _check_brute),
            Op("homogeneous-scan", _homogeneous(params["homogeneous_seed"]), _check_homogeneous),
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed benchmark set-up")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    import_cuberadius()
    make_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
