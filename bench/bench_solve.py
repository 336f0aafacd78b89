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
- ``cli.main`` of that ``verify`` command (stdout captured);
- and the whole ``radius.brute_force_bn_radius(4)``: half-table butterflies,
  level sums, the distinct profiles and their one solve.

Every input is built by this checkout.  Each case also reports its
evaluations: the calls of the tail-sum evaluators that ``radius._tail_sums``
builds, over one call of the case.  The timing, the A/B mode and the output
file are ``harness.main``'s.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

import harness

VERIFY_ARGV = ["verify", "--suite", "all", "--n-max", "10", "--samples", "10"]
SUITE_SEED = 20240601
CASES = {
    "suites_blocks": "radius._solve_reduced of the 14 blocks of run_suite('all', 10, 10, SUITE_SEED)",
    "majority_911_989": "radius._solve_reduced of the 40 majority rows N = 911..989, as one padded block",
    "brute_profiles_n4": "radius._solve_reduced of the 172 distinct level profiles of the brute force at N = 4",
    "exact_radius_24_1": "threshold.exact_radius(24, 1), one row with its level logs",
    "verify_all_10_10": "cli.main of " + " ".join(VERIFY_ARGV),
    "brute_force_4": "radius.brute_force_bn_radius(4), the whole brute force",
}


def cases(this):
    radius, threshold = this.radius, this.threshold
    blocks, solve = [], radius._solve_reduced

    def capture(log_tail, log_target):
        blocks.append((log_tail.copy(), log_target.copy()))
        return solve(log_tail, log_target)

    radius._solve_reduced = capture
    try:
        this.inequalities.run_suite("all", 10, 10, SUITE_SEED)
    finally:
        radius._solve_reduced = solve
    logs = [threshold._level_logs(N, *threshold._tail_terms(N, 0)) for N in range(911, 990, 2)]
    tail = np.full((len(logs), threshold._block_width(max(map(len, logs)))), -math.inf)
    for r, row in enumerate(logs):
        tail[r, : len(row)] = row
    points = 16
    ks = np.arange(2 ** (points - 1), dtype=np.uint64)
    table = 1.0 - 2.0 * ((ks[:, None] >> np.arange(points, dtype=np.uint64)) & 1)
    sums = np.unique(radius._level_sums(this.cube._walsh_rows(table), np.abs), axis=0)
    with np.errstate(divide="ignore"):
        brute = [(np.log(sums[:, 1:]), radius._log_targets(sums[:, 0], 1.0))]
    for name, block in [("suites_blocks", blocks), ("majority_911_989", [(tail, np.zeros(len(logs)))]),
                        ("brute_profiles_n4", brute)]:
        yield name, lambda tree: lambda: [tree.radius._solve_reduced(*args) for args in block]
    yield "exact_radius_24_1", lambda tree: functools.partial(tree.threshold.exact_radius, 24, 1)
    yield "verify_all_10_10", lambda tree: harness.cli_call(tree, VERIFY_ARGV)
    yield "brute_force_4", lambda tree: functools.partial(tree.radius.brute_force_bn_radius, 4)


def readings(tree, name, call) -> dict:
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
    return {"evaluations": count[0]}


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
