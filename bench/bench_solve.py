#!/usr/bin/env python3
"""Layer benchmark of the radius solve, ``radius._solve_reduced``, and of one command over it.

    python3 bench/bench_solve.py --label change
    python3 bench/bench_solve.py --label change --against <other checkout>/src

Times the solve on the inputs it meets in the CLI:
- the 14 level-sum blocks that ``verify --suite all --n-max 10 --samples 10``
  solves (captured from one ``run_suite`` of this tree at SUITE_SEED);
- the majority-scan block: the 40 rows N = 911..989 of threshold level logs,
  padded with -inf to ``_block_width`` as ``threshold._radii_exact`` pads them;
- the 172 distinct level profiles of the brute force at N = 4;
- then ``threshold.exact_radius(24, 1)``, one row with its level logs;
- and ``cli.main`` of that ``verify`` command (stdout captured).

Every case is built once, from this tree, and fed unchanged to each tree.
Each case also reports its evaluations: the calls of the tail-sum evaluators
that ``radius._tail_sums`` builds, over one call of the case.

Alone, each case reports the median of 5 runs of the mean seconds per call
(see ``bench_fwht.median_s``).  With ``--against`` the other checkout is
imported too, as the package ``cuberadius_against``, and the two trees are
timed alternately, call by call: PAIRS pairs of one batch each, a batch being
enough calls of the case to last about BATCH_S, which side goes first
alternating from pair to pair.  A case then reports the median seconds per
call of each side, the median of the per-pair ratios (this tree over the
other) and how many pairs this tree won.  The outputs of the two trees are
compared byte for byte first; a difference is reported, not timed.

The numbers are added under ``--label`` to ``--out`` (``BENCH_solve.json`` at
the repository root by default) together with the machine; repeated runs
under one label are kept in order.

Uses only the standard library and numpy; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_fwht import ROOT, machine, median_s

VERIFY_ARGV = ["verify", "--suite", "all", "--n-max", "10", "--samples", "10"]
SUITE_SEED = 20240601
CASES = {
    "suites_blocks": "radius._solve_reduced of the 14 blocks of run_suite('all', 10, 10, SUITE_SEED)",
    "majority_911_989": "radius._solve_reduced of the 40 majority rows N = 911..989, as one padded block",
    "brute_profiles_n4": "radius._solve_reduced of the 172 distinct level profiles of the brute force at N = 4",
    "exact_radius_24_1": "threshold.exact_radius(24, 1), one row with its level logs",
    "verify_all_10_10": "cli.main of " + " ".join(VERIFY_ARGV),
}
PAIRS = 21
BATCH_S = 0.02


def load_tree(src: Path, name: str):
    """The cuberadius package under ``src``, imported as the package ``name``."""
    init = src / "cuberadius" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return submodules(package)


def submodules(package):
    """``package`` with the modules that the cases call imported into it."""
    for module in ("cli", "cube", "inequalities", "radius", "threshold"):
        importlib.import_module(f"{package.__name__}.{module}")
    return package


def inputs(tree) -> dict:
    """The solve inputs of the three block cases, built by ``tree``."""
    radius, threshold = tree.radius, tree.threshold
    blocks, solve = [], radius._solve_reduced

    def capture(log_tail, log_target):
        blocks.append((log_tail.copy(), log_target.copy()))
        return solve(log_tail, log_target)

    radius._solve_reduced = capture
    try:
        tree.inequalities.run_suite("all", 10, 10, SUITE_SEED)
    finally:
        radius._solve_reduced = solve
    logs = [threshold._level_logs(N, *threshold._tail_terms(N, 0)) for N in range(911, 990, 2)]
    tail = np.full((len(logs), threshold._block_width(max(map(len, logs)))), -math.inf)
    for r, row in enumerate(logs):
        tail[r, : len(row)] = row
    points = 16
    ks = np.arange(2 ** (points - 1), dtype=np.uint64)
    table = 1.0 - 2.0 * ((ks[:, None] >> np.arange(points, dtype=np.uint64)) & 1)
    sums = np.unique(radius._level_sums(tree.cube._walsh_rows(table), np.abs), axis=0)
    with np.errstate(divide="ignore"):
        brute = [(np.log(sums[:, 1:]), radius._log_targets(sums[:, 0], 1.0))]
    return {"suites_blocks": blocks, "majority_911_989": [(tail, np.zeros(len(logs)))], "brute_profiles_n4": brute}


def case_calls(tree, data: dict) -> dict:
    """One zero-argument call per case, each returning bytes to compare across trees."""
    solve = lambda blocks: lambda: b"".join(part.tobytes() for args in blocks for part in tree.radius._solve_reduced(*args))
    calls = {name: solve(data[name]) for name in ("suites_blocks", "majority_911_989", "brute_profiles_n4")}
    calls["exact_radius_24_1"] = lambda: repr(tree.threshold.exact_radius(24, 1)).encode()

    def verify():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            tree.cli.main(VERIFY_ARGV)
        return out.getvalue().encode()

    calls["verify_all_10_10"] = verify
    return calls


def evaluations(tree, call) -> int:
    """Calls of the tail-sum evaluators built by ``tree.radius._tail_sums`` during one call."""
    radius, build, count = tree.radius, tree.radius._tail_sums, [0]

    def counting(log_tail):
        sums = build(log_tail)

        def counted(*args, **kwargs):
            count[0] += 1
            return sums(*args, **kwargs)

        return counted

    radius._tail_sums = counting
    try:
        call()
    finally:
        radius._tail_sums = build
    return count[0]


def batch_seconds(call, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - t0) / number


def interleaved(mine, theirs) -> dict:
    """Seconds per call of each side over PAIRS alternating batches, and their ratios."""
    mine(), theirs()
    t0 = time.perf_counter()
    mine()
    number = max(1, round(BATCH_S / max(time.perf_counter() - t0, 1e-6)))
    pairs = []
    for i in range(PAIRS):
        if i % 2:
            b = batch_seconds(theirs, number)
            a = batch_seconds(mine, number)
        else:
            a = batch_seconds(mine, number)
            b = batch_seconds(theirs, number)
        pairs.append((a, b))
    return {
        "this_s": statistics.median(a for a, _ in pairs),
        "against_s": statistics.median(b for _, b in pairs),
        "ratio": statistics.median(a / b for a, b in pairs),
        "this_faster_pairs": sum(a < b for a, b in pairs),
        "pairs": PAIRS,
        "calls_per_batch": number,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the cuberadius package")
    ap.add_argument("--against", type=Path, help="another checkout's src, timed alternately with --src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_solve.json")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cuberadius

    if not Path(cuberadius.__file__).resolve().is_relative_to(src):
        print(f"cuberadius was imported from {cuberadius.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    tree = submodules(cuberadius)
    mine = case_calls(tree, inputs(tree))
    run = {"machine": machine(), "src": str(args.src), "against": None if args.against is None else str(args.against)}
    if args.against is None:
        run["median_s"] = {name: median_s(call) for name, call in mine.items()}
        run["evaluations"] = {name: evaluations(tree, call) for name, call in mine.items()}
        for name, t in run["median_s"].items():
            print(f"{args.label:>10} {name:>20} {t * 1e3:10.3f} ms {run['evaluations'][name]:6d} evaluations")
    else:
        other = load_tree(args.against.resolve(), "cuberadius_against")
        theirs = case_calls(other, inputs(tree))
        run["cases"], run["evaluations"] = {}, {}
        for name in CASES:
            same = mine[name]() == theirs[name]()
            run["evaluations"][name] = {"this": evaluations(tree, mine[name]), "against": evaluations(other, theirs[name])}
            run["cases"][name] = interleaved(mine[name], theirs[name]) if same else {"same_output": False}
            got = run["cases"][name]
            print(
                f"{args.label:>10} {name:>20} "
                + (f"{got['this_s'] * 1e3:9.3f} ms against {got['against_s'] * 1e3:9.3f} ms, ratio {got['ratio']:.3f}, "
                   f"won {got['this_faster_pairs']}/{got['pairs']}" if same else "OUTPUTS DIFFER")
                + f"; evaluations {run['evaluations'][name]['this']} against {run['evaluations'][name]['against']}"
            )
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("what", "seconds per call of the radius-solve cases (bench/bench_solve.py)")
    data["cases"] = CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
