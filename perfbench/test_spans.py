"""Self-test of the span tracer, on small inputs.

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.import_cuberadius()

from run import layer_metrics, run_pass  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = [
    "verify --suite all --n-max 4 --samples 2 --seed 3 --workers 1",
    "threshold-scan --n-list 101,202 --alphas 0,sqrt,half",
    "majority-scan --n-start 101 --n-stop 121 --workers 1",
    "spectrum --family threshold --n 201 --alpha 60 --symmetric",
    "radius --family threshold --n 10 --alpha 1.5",
    "bn --n 3 --brute --workers 2",
]


@pytest.fixture(scope="module")
def ops():
    out = [workloads.Op(argv.split()[0], workloads._cli(argv.split()), None) for argv in SMALL]
    out.append(workloads.Op("homogeneous", workloads._homogeneous(5), None))
    return out


def test_wrapped_calls_return_identical_results(ops):
    _, _, plain, _ = run_pass(ops)
    _, _, traced, _ = run_pass(ops, Tracer())
    assert traced == plain
    assert all(code == 0 for code, _ in plain)


def test_uninstall_restores_the_program():
    import cuberadius.cube as cube
    import cuberadius.inequalities as inequalities

    original = inequalities.walsh_transform
    tracer = Tracer()
    tracer.install()
    try:
        assert inequalities.walsh_transform is not original
        assert cube.walsh_transform is not original
    finally:
        tracer.uninstall()
    assert inequalities.walsh_transform is original is cube.walsh_transform


def test_self_times_are_nonnegative_and_fit_in_the_root(ops):
    tracer = Tracer()
    _, _, _, root = run_pass(ops, tracer)
    selfs = [g.self_s for g in tracer.groups.values()]
    assert min(selfs) >= 0.0
    assert root.self_s >= 0.0
    assert sum(selfs) <= root.duration
    assert sum(selfs) + root.self_s == pytest.approx(root.duration, rel=1e-9, abs=1e-9)


def test_counts_repeat_exactly(ops):
    def counts():
        tracer = Tracer()
        run_pass(ops, tracer)
        return {k: v for k, v in layer_metrics(tracer).items() if not k.endswith("_s")}

    first, second = counts(), counts()
    assert first == second
    assert first["cube.walsh.calls"] > 0
    assert first["threshold.spectrum.calls"] > 0
    assert first["inequalities.check.calls"] > 0
    assert first["inequalities.draw.per_substream"] == 8.0
