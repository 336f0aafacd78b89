#!/usr/bin/env python3
"""Layer benchmark of the exact symmetric spectrum, its JSON emitter and its radius.

    python3 bench/bench_symmetric.py --label change
    python3 bench/bench_symmetric.py --label parent --src <other checkout>/src
    python3 bench/bench_symmetric.py --label change --against <other checkout>/src

Times ``threshold.threshold_spectrum_exact``,
``serialize.dumps_symmetric_spectrum`` and the whole document from (N, alpha)
(``serialize.dumps_threshold_spectrum``; in a checkout without it, the
``dumps_symmetric_spectrum(threshold_spectrum_exact(N, alpha))`` that its CLI
runs) at (N, alpha) = (3995, 1994), (4001, 0) and the formal (4000, -1), one whole ``spectrum --family threshold --n 3995
--alpha 1994 --symmetric`` through ``cli.main`` (stdout captured),
``radius.boolean_radius_symmetric`` of the spectra at (4001, 1998) and
(3995, 1994) with sup norm 1 (each spectrum built outside the timed call), and the
cold ``import cuberadius.cli``, timed inside a fresh interpreter (so without
the interpreter's own start-up).  Alone, each in-process case reports the
median of 5 runs, after one untimed warm-up; a run is the mean of enough
calls to last about 0.1 s (see ``bench_fwht.median_s``).  The cold import
reports the median of 9 fresh processes.

With ``--against`` the other checkout is imported too, as the package
``cuberadius_against`` (``bench_solve.load_tree``), and every in-process case
is timed on both trees alternately by ``bench_solve.interleaved``: the median
seconds per call of each side, the median per-pair ratio (this tree over the
other) and the pairs this tree won.  The outputs of the two trees are
compared first (the spectra by their numerators and denominators); a
difference is reported, not timed.  The cold import is left out of this mode.

The numbers are added under ``--label`` to ``--out`` (``BENCH_symmetric.json``
at the repository root by default) together with the machine; repeated runs
under one label are kept in order.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_fwht import ROOT, machine, median_s
from bench_solve import interleaved, load_tree, submodules

POINTS = ((3995, 1994), (4001, 0), (4000, -1))
SPECTRUM_ARGV = ["spectrum", "--family", "threshold", "--n", "3995", "--alpha", "1994", "--symmetric"]
CASES = {}
for _n, _a in POINTS:
    CASES[f"exact_{_n}_{_a}"] = f"threshold.threshold_spectrum_exact({_n}, {_a})"
    CASES[f"dumps_{_n}_{_a}"] = f"serialize.dumps_symmetric_spectrum of threshold_spectrum_exact({_n}, {_a})"
    CASES[f"dumps_threshold_{_n}_{_a}"] = f"serialize.dumps_threshold_spectrum({_n}, {_a}), the text from (N, alpha)"
RADIUS_POINTS = ((4001, 1998), (3995, 1994))
for _n, _a in RADIUS_POINTS:
    CASES[f"radius_symmetric_{_n}_{_a}"] = f"radius.boolean_radius_symmetric(threshold_spectrum_exact({_n}, {_a}), 1.0)"
CASES["spectrum_symmetric_3995"] = "cli.main of " + " ".join(SPECTRUM_ARGV)
CASES["cold_import_cli"] = "import cuberadius.cli in a fresh interpreter"
COLD_RUNS = 9
COLD_CODE = "import time; t = time.perf_counter(); import cuberadius.cli; print(time.perf_counter() - t)"


def cold_import_s(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [
        float(subprocess.run([sys.executable, "-c", COLD_CODE], env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(COLD_RUNS)
    ]
    return statistics.median(runs)


def case_calls(tree) -> dict:
    """One zero-argument call per in-process case of ``tree``, each spectrum built outside its call."""
    cli, radius, serialize, threshold = tree.cli, tree.radius, tree.serialize, tree.threshold

    def from_pair(n, a):  # what spectrum --symmetric emits in a checkout without dumps_threshold_spectrum
        return serialize.dumps_symmetric_spectrum(threshold.threshold_spectrum_exact(n, a))

    document = getattr(serialize, "dumps_threshold_spectrum", from_pair)
    calls = {}
    for n, a in POINTS:
        s = threshold.threshold_spectrum_exact(n, a)
        calls[f"exact_{n}_{a}"] = functools.partial(threshold.threshold_spectrum_exact, n, a)
        calls[f"dumps_{n}_{a}"] = functools.partial(serialize.dumps_symmetric_spectrum, s)
        calls[f"dumps_threshold_{n}_{a}"] = functools.partial(document, n, a)
    for n, a in RADIUS_POINTS:
        s = threshold.threshold_spectrum_exact(n, a)
        calls[f"radius_symmetric_{n}_{a}"] = functools.partial(radius.boolean_radius_symmetric, s, 1.0)

    def spectrum():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(SPECTRUM_ARGV)
        return out.getvalue()

    calls["spectrum_symmetric_3995"] = spectrum
    return calls


def output(value):
    """What the two trees must agree on: a spectrum's exact levels, any other result's repr."""
    if hasattr(value, "level_coeffs"):
        return [(c.numerator, c.denominator) for c in value.level_coeffs]
    return repr(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the cuberadius package")
    ap.add_argument("--against", type=Path, help="another checkout's src, timed alternately with --src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_symmetric.json")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cuberadius

    if not Path(cuberadius.__file__).resolve().is_relative_to(src):
        print(f"cuberadius was imported from {cuberadius.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    mine = case_calls(submodules(cuberadius))
    run = {"machine": machine(), "src": str(args.src), "against": None if args.against is None else str(args.against)}
    if args.against is None:
        run["median_s"] = {name: median_s(call) for name, call in mine.items()}
        run["median_s"]["cold_import_cli"] = cold_import_s(src)
        for name, t in run["median_s"].items():
            print(f"{args.label:>10} {name:>26} {t * 1e3:10.3f} ms")
    else:
        theirs = case_calls(load_tree(args.against.resolve(), "cuberadius_against"))
        run["cases"] = {}
        for name, call in mine.items():
            same = output(call()) == output(theirs[name]())
            got = run["cases"][name] = interleaved(call, theirs[name]) if same else {"same_output": False}
            print(
                f"{args.label:>10} {name:>26} "
                + (f"{got['this_s'] * 1e3:9.3f} ms against {got['against_s'] * 1e3:9.3f} ms, ratio {got['ratio']:.3f}, "
                   f"won {got['this_faster_pairs']}/{got['pairs']}" if same else "OUTPUTS DIFFER")
            )
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call; cold_import_cli: median of 9 processes")
    data["cases"] = CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
