#!/usr/bin/env python3
"""Layer benchmark of the exact symmetric spectrum, its JSON emitter and its radius.

    python3 bench/bench_symmetric.py --label change
    python3 bench/bench_symmetric.py --label parent --src <other checkout>/src

Times ``threshold.threshold_spectrum_exact``,
``serialize.dumps_symmetric_spectrum`` and the whole document from (N, alpha)
(``serialize.dumps_threshold_spectrum``; in a checkout without it, the
``dumps_symmetric_spectrum(threshold_spectrum_exact(N, alpha))`` that its CLI
runs) at (N, alpha) = (3995, 1994), (4001, 0) and the formal (4000, -1), one whole ``spectrum --family threshold --n 3995
--alpha 1994 --symmetric`` through ``cli.main`` (stdout captured),
``radius.boolean_radius_symmetric`` of the spectra at (4001, 1998) and
(3995, 1994) with sup norm 1 (each spectrum built outside the timed call), and the
cold ``import cuberadius.cli``, timed inside a fresh interpreter (so without
the interpreter's own start-up).  Each in-process case reports the median of 5
runs, after one untimed warm-up; a run is the mean of enough calls to last
about 0.1 s (see ``bench_fwht.median_s``).  The cold import reports the median
of 9 fresh processes.  The numbers are added under ``--label`` to ``--out``
(``BENCH_symmetric.json`` at the repository root by default) together with
the machine; repeated runs under one label are kept in order, so parent and
change can be run alternately.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_fwht import ROOT, machine, median_s

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


def medians(src: Path) -> dict:
    from cuberadius import cli, radius, serialize, threshold

    def from_pair(n, a):  # what spectrum --symmetric emits in a checkout without dumps_threshold_spectrum
        return serialize.dumps_symmetric_spectrum(threshold.threshold_spectrum_exact(n, a))

    document = getattr(serialize, "dumps_threshold_spectrum", from_pair)
    out = {}
    for n, a in POINTS:
        out[f"exact_{n}_{a}"] = median_s(lambda: threshold.threshold_spectrum_exact(n, a))
        s = threshold.threshold_spectrum_exact(n, a)
        out[f"dumps_{n}_{a}"] = median_s(lambda: serialize.dumps_symmetric_spectrum(s))
        out[f"dumps_threshold_{n}_{a}"] = median_s(lambda: document(n, a))
    for n, a in RADIUS_POINTS:
        s = threshold.threshold_spectrum_exact(n, a)
        out[f"radius_symmetric_{n}_{a}"] = median_s(lambda: radius.boolean_radius_symmetric(s, 1.0))
    with contextlib.redirect_stdout(io.StringIO()):
        out["spectrum_symmetric_3995"] = median_s(lambda: cli.main(SPECTRUM_ARGV))
    out["cold_import_cli"] = cold_import_s(src)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the cuberadius package")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_symmetric.json")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cuberadius

    if not Path(cuberadius.__file__).resolve().is_relative_to(src):
        print(f"cuberadius was imported from {cuberadius.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    result = medians(src)
    for name, t in result.items():
        print(f"{args.label:>10} {name:>26} {t * 1e3:10.3f} ms")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "median of 5 runs of the mean seconds per call; cold_import_cli: median of 9 processes")
    data["cases"] = CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append({"machine": machine(), "median_s": result})
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
