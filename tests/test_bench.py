"""The shared half of the ``bench/`` scripts: tree loading, the interleaved timer and the one parser."""

import importlib
import sys
from pathlib import Path

import pytest

import cuberadius
from cuberadius.threshold import exact_radius

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
harness = importlib.import_module("harness")
SCRIPTS = ["bench_fwht", "bench_threshold", "bench_solve", "bench_symmetric"]


def test_load_tree_imports_a_second_package():
    name = "cuberadius_bench_test"
    try:
        tree = harness.load_tree(harness.SRC, name)
        assert sys.modules["cuberadius"] is cuberadius
        assert tree.__name__ == name and tree.threshold.__name__ == f"{name}.threshold"
        assert Path(tree.__file__).resolve() == harness.SRC / "cuberadius" / "__init__.py"
        assert repr(tree.threshold.exact_radius(24, 1)) == repr(exact_radius(24, 1))
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def test_interleaved_reports_both_sides(monkeypatch):
    monkeypatch.setattr(harness, "BATCH_S", 1e-4)
    resets = []
    got = harness.interleaved(lambda: None, lambda: None, lambda: resets.append(1))
    assert set(got) == {"this_s", "against_s", "ratio", "this_faster_pairs", "pairs", "calls_per_batch"}
    assert got["pairs"] == harness.PAIRS
    assert 0 <= got["this_faster_pairs"] <= harness.PAIRS
    assert len(resets) == 2 * harness.PAIRS * got["calls_per_batch"] + 3


@pytest.mark.parametrize("script", SCRIPTS)
def test_one_parser_for_every_script(script, capsys):
    module = importlib.import_module(script)
    ap = harness.parser(module)
    args = ap.parse_args(["--label", "x", "--against", "other/src", "--out", "o.json"])
    assert (args.label, args.against, args.out) == ("x", Path("other/src"), Path("o.json"))
    assert ap.parse_args(["--label", "x"]).out == harness.ROOT / f"BENCH_{script.removeprefix('bench_')}.json"
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(["--label", "x", "--src", "other/src"])
    assert exc.value.code == 2
    assert "--src" in capsys.readouterr().err
