#!/usr/bin/env python3
"""Layer benchmark of the dense path: the Walsh-Hadamard butterfly and the public calls around it.

    python3 bench/bench_fwht.py --label change
    python3 bench/bench_fwht.py --label change --against <other checkout>/src

Times the in-place butterfly ``cube._fwht_inplace`` on single rows of 2^n
doubles (n = 10, 16, 20, 22, 24) and on the batches (16, 2^10) and
(2^16, 16), the brute force's shape; each call starts from the same input,
copied in outside the timed region.  Then it times the public calls of a
dense radius or spectrum: ``families.threshold`` and ``walsh_transform`` at
n = 24, ``level_profile`` of that spectrum, ``dumps_spectrum`` at n = 17,
``dumps_truth_table`` of 2^17 subnormals (every value written by ``%.17g``
itself, the vector writer's worst case), ``loads_truth_table`` of the JSON text
of a uniform(-1, 1) table at n = 17 and 18; ``bench_solve.py`` times the
brute force.  It also times three whole commands through ``cli.main`` (stdout
captured): ``radius --input`` of that n = 18 table from a file, ``spectrum --input`` of
the n = 17 table, and ``radius --family threshold --n 24``, which builds no table:
that radius is solved from exact integer level weights, so the case times the
CLI, not the dense layer.  Every input is built by this checkout.  The timing,
the A/B mode and the output file are ``harness.main``'s.  The n = 24 cases hold
up to three 128 MiB arrays.
"""

from __future__ import annotations

import functools
import sys
import tempfile
from pathlib import Path

import numpy as np

import harness

SHAPES = {f"n{n}": (2**n,) for n in (10, 16, 20, 22, 24)} | {"batch_16x2^10": (16, 2**10), "batch_2^16x16": (2**16, 16)}
RADIUS_ARGV = ["radius", "--family", "threshold", "--n", "24", "--alpha", "1.5"]
CASES = {name: f"cube._fwht_inplace of uniform(-1, 1) doubles of shape {shape}" for name, shape in SHAPES.items()} | {
    "threshold_n24": "families.threshold(ThresholdSpec(24, 1.5))",
    "walsh_transform_n24": "cube.walsh_transform of that table",
    "level_profile_n24": "radius.level_profile of that spectrum",
    "dumps_spectrum_n17": "serialize.dumps_spectrum of a uniform(-1, 1) table's spectrum",
    "dumps_truth_table_n17_subnormal": "serialize.dumps_truth_table of 2^17 subnormals, each left to %.17g",
    "loads_truth_table_n17": "serialize.loads_truth_table of a uniform(-1, 1) table's JSON text",
    "loads_truth_table_n18": "serialize.loads_truth_table of a uniform(-1, 1) table's JSON text",
    "radius_input_n18": "cli.main of radius --input <file of that n = 18 table>",
    "spectrum_input_n17": "cli.main of spectrum --input <file of that n = 17 table>",
    "radius_threshold_n24": "cli.main of " + " ".join(RADIUS_ARGV),
}


def cases(this):
    for name, shape in SHAPES.items():
        src = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=shape)
        work = np.empty_like(src)
        yield name, lambda tree: functools.partial(tree.cube._fwht_inplace, work), functools.partial(np.copyto, work, src)
    spec = this.families.ThresholdSpec(24, 1.5)
    yield "threshold_n24", lambda tree: functools.partial(tree.families.threshold, spec)
    f = this.families.threshold(spec)
    yield "walsh_transform_n24", lambda tree: functools.partial(tree.cube.walsh_transform, f)
    s = this.cube.walsh_transform(f)
    yield "level_profile_n24", lambda tree: functools.partial(tree.radius.level_profile, s, 1.0)
    del f, s
    table = np.random.default_rng(17).uniform(-1.0, 1.0, size=2**17)
    s17 = this.cube.walsh_transform(this.cube.from_truth_table(17, table))
    yield "dumps_spectrum_n17", lambda tree: functools.partial(tree.serialize.dumps_spectrum, s17)
    tiny = this.cube.from_truth_table(17, table * 1e-310)
    yield "dumps_truth_table_n17_subnormal", lambda tree: functools.partial(tree.serialize.dumps_truth_table, tiny)
    texts = {}
    for n in (17, 18):
        table = np.random.default_rng(n).uniform(-1.0, 1.0, size=2**n)
        texts[n] = this.serialize.dumps_truth_table(this.cube.from_truth_table(n, table))
        yield f"loads_truth_table_n{n}", lambda tree: functools.partial(tree.serialize.loads_truth_table, texts[n])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / f"table{n}.json" for n in texts}
        for n, path in paths.items():
            path.write_text(texts[n])
        yield "radius_input_n18", lambda tree: harness.cli_call(tree, ["radius", "--input", str(paths[18])])
        yield "spectrum_input_n17", lambda tree: harness.cli_call(tree, ["spectrum", "--input", str(paths[17])])
    yield "radius_threshold_n24", lambda tree: harness.cli_call(tree, RADIUS_ARGV)


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
