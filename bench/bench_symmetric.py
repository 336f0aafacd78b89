#!/usr/bin/env python3
"""Layer benchmark of the exact symmetric spectrum, its JSON emitter and its radius.

    python3 bench/bench_symmetric.py --label change
    python3 bench/bench_symmetric.py --label change --against <other checkout>/src

Times ``threshold.threshold_spectrum_exact``,
``serialize.dumps_symmetric_spectrum`` and the whole document from (N, alpha),
``serialize.dumps_threshold_spectrum``, at (N, alpha) = (3995, 1994), (4001, 0)
and the formal (4000, -1), one whole ``spectrum --family threshold --n 3995
--alpha 1994 --symmetric`` through ``cli.main`` (stdout captured), and
``radius.boolean_radius_symmetric`` of the spectra at (4001, 1998) and
(3995, 1994) with sup norm 1.  Every spectrum fed to a timed call is built by
this checkout, outside the call.  The timing, the A/B mode and the output file
are ``harness.main``'s.

The cold case times ``import cuberadius.cli`` inside a fresh interpreter (so
without the interpreter's own start-up) and reports the median of COLD_RUNS
processes; it runs on this checkout alone.
"""

from __future__ import annotations

import functools
import statistics
import sys

import harness

POINTS = ((3995, 1994), (4001, 0), (4000, -1))
RADIUS_POINTS = ((4001, 1998), (3995, 1994))
SPECTRUM_ARGV = ["spectrum", "--family", "threshold", "--n", "3995", "--alpha", "1994", "--symmetric"]
CASES = {}
for _n, _a in POINTS:
    CASES[f"exact_{_n}_{_a}"] = f"threshold.threshold_spectrum_exact({_n}, {_a})"
    CASES[f"dumps_{_n}_{_a}"] = f"serialize.dumps_symmetric_spectrum of threshold_spectrum_exact({_n}, {_a})"
    CASES[f"dumps_threshold_{_n}_{_a}"] = f"serialize.dumps_threshold_spectrum({_n}, {_a}), the text from (N, alpha)"
for _n, _a in RADIUS_POINTS:
    CASES[f"radius_symmetric_{_n}_{_a}"] = f"radius.boolean_radius_symmetric(threshold_spectrum_exact({_n}, {_a}), 1.0)"
CASES["spectrum_symmetric_3995"] = "cli.main of " + " ".join(SPECTRUM_ARGV)
CASES["cold_import_cli"] = "import cuberadius.cli in a fresh interpreter"
COLD_RUNS = 9
COLD_CODE = "import time; t = time.perf_counter(); import cuberadius.cli; print(time.perf_counter() - t)"


def cases(this):
    for n, a in POINTS:
        s = this.threshold.threshold_spectrum_exact(n, a)
        yield f"exact_{n}_{a}", lambda tree: functools.partial(tree.threshold.threshold_spectrum_exact, n, a)
        yield f"dumps_{n}_{a}", lambda tree: functools.partial(tree.serialize.dumps_symmetric_spectrum, s)
        yield f"dumps_threshold_{n}_{a}", lambda tree: functools.partial(tree.serialize.dumps_threshold_spectrum, n, a)
    for n, a in RADIUS_POINTS:
        s = this.threshold.threshold_spectrum_exact(n, a)
        yield f"radius_symmetric_{n}_{a}", lambda tree: functools.partial(tree.radius.boolean_radius_symmetric, s, 1.0)
    yield "spectrum_symmetric_3995", lambda tree: harness.cli_call(tree, SPECTRUM_ARGV)


def cold() -> dict:
    runs = [float(harness.fresh_process(["-c", COLD_CODE])[2]) for _ in range(COLD_RUNS)]
    return {"median_s": {"cold_import_cli": statistics.median(runs)}}


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
