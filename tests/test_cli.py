import contextlib
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuberadius import cube, families, inequalities
from cuberadius import radius as radius_module
from cuberadius.cli import main
from cuberadius.serialize import dumps_truth_table, loads_symmetric_spectrum
from cuberadius.threshold import MAX_TN_N, threshold_radius


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestRadiusCommand:
    def test_extremal_family(self, capsys):
        code, out = run_cli(["radius", "--family", "extremal", "--n", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["radius"] == pytest.approx(2 ** 0.25 - 1, abs=1e-10)

    def test_majority(self, capsys):
        code, out = run_cli(["radius", "--family", "majority", "--n", "3"], capsys)
        assert json.loads(out)["radius"] == pytest.approx(0.5960716379833215, abs=1e-12)

    def test_parity_is_one(self, capsys):
        code, out = run_cli(["radius", "--family", "parity", "--n", "5"], capsys)
        assert json.loads(out)["radius"] == 1.0

    def test_constant_prints_inf(self, capsys):
        code, out = run_cli(["radius", "--family", "parity", "--n", "3", "--m", "0"], capsys)
        assert code == 0
        assert json.loads(out)["radius"] == "inf"

    def test_truth_table_input(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 2, "values": [-1, 1, 1, 1]}')
        code, out = run_cli(["radius", "--input", str(path)], capsys)
        assert json.loads(out)["radius"] == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    @pytest.mark.parametrize("command", ["radius", "spectrum"])
    def test_table_with_byte_order_mark(self, command, tmp_path, capsys):
        want = {
            "radius": '{"radius": 0.41421356237309503, "residual": 5.5511151231257827e-17, "iterations": 54, "method": "bisection"}\n',
            "spectrum": '{"n": 2, "coeffs": [0.5, -0.5, -0.5, -0.5]}\n',
        }[command]
        for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes the mark
            path = tmp_path / f"{encoding}.json"
            path.write_text('{"n": 2, "values": [-1, 1, 1, 1]}', encoding=encoding)
            assert run_cli([command, "--n", "2", "--input", str(path)], capsys) == (0, want), encoding

    def test_huge_finite_table_is_scaled(self, tmp_path, capsys):
        values = np.random.default_rng(7).choice([-1e308, 1e308], size=16)
        values[3] = 0.25e308
        e = math.frexp(1e308)[1]
        got = []
        for name, table in (("huge", values), ("by_hand", np.ldexp(values, -e))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"n": 4, "values": table.tolist()}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run_cli(["radius", "--input", str(path)], capsys)
            assert code == 0
            got.append(json.loads(out))
        huge, by_hand = got
        assert huge["radius"].hex() == by_hand["radius"].hex() and 0.0 < huge["radius"] < 1.0
        # the residual is reported for the table as given
        assert huge["residual"] == math.ldexp(by_hand["residual"], e)

    def test_huge_spectrum_input_is_scaled(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "values": [1e308, 1e308, -1e308, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["spectrum", "--n", "2", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["coeffs"] == [5e307, -5e307, 5e307, 5e307]

    def test_csv_format(self, capsys):
        code, out = run_cli(["radius", "--family", "dictator", "--n", "2", "--format", "csv"], capsys)
        assert (code, out) == (0, "radius,residual,iterations,method\n1,0,0,bisection\n")
        code, out = run_cli(["radius", "--family", "parity", "--n", "3", "--m", "0", "--format", "csv"], capsys)
        assert (code, out) == (0, "radius,residual,iterations,method\ninf,0,0,closed_form\n")

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "values": [1, 2]}')
        code, _ = run_cli(["radius", "--input", str(path)], capsys)
        assert code == 2

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": true, "values": [1.0, -1.0]}')
        assert main(["radius", "--input", str(path)]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_boolean_values_exit_2(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 2, "values": [true, true, false, true]}')
        assert main(["radius", "--input", str(path)]) == 2
        assert "values must hold numbers" in capsys.readouterr().err

    def test_missing_source_exits_2(self, capsys):
        code, _ = run_cli(["radius", "--n", "3"], capsys)
        assert code == 2

    def test_negative_parity_size_exits_2(self, capsys):
        assert main(["radius", "--family", "parity", "--n", "3", "--m", "-1"]) == 2
        assert "--m must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_nonfinite_lambda_exits_2(self, lam, capsys):
        assert main(["radius", "--family", "biased", "--n", "3", "--lambda", lam]) == 2
        assert "need 0 < lambda <= 1/2" in capsys.readouterr().err

    def test_family_without_n_exits_2(self, capsys):
        code, _ = run_cli(["radius", "--family", "extremal"], capsys)
        assert code == 2

    def test_threshold_without_alpha_exits_2(self, capsys):
        code, _ = run_cli(["radius", "--family", "threshold", "--n", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "args, radius, residual, iterations",
        [
            (["--family", "threshold", "--n", "24", "--alpha", "1.5"], 0.17627162439628852, 0.0, 55),
            (["--family", "majority", "--n", "23"], 0.21589669992468441, 3.3306690738754696e-16, 55),
            (["--family", "extremal", "--n", "24"], 0.029302236643492033, 0.0, 58),
            (["--family", "majority", "--n", "4001"], 0.016359273211215608, 9.9920072216264089e-16, 58),
        ],
    )
    def test_threshold_and_majority_build_no_table(self, monkeypatch, capsys, args, radius, residual, iterations):
        from cuberadius import threshold

        def refuse(*_):
            raise AssertionError("a dense table, a butterfly or Y was used")

        monkeypatch.setattr(cube, "_fwht_inplace", refuse)
        monkeypatch.setattr(families, "threshold", refuse)
        monkeypatch.setattr(families, "extremal_indicator_flip", refuse)
        monkeypatch.setattr(threshold, "y_function", refuse)
        code, out = run_cli(["radius"] + args, capsys)
        assert code == 0
        obj = json.loads(out)
        # the output of the exact path: integer level weights and a one-row solve
        assert obj["radius"].hex() == radius.hex()
        assert obj["residual"] == residual
        assert obj["iterations"] == iterations and obj["method"] == "bisection"

    @pytest.mark.parametrize(
        "args",
        [["majority", "--n", "100003"], ["threshold", "--n", "100002", "--alpha", "0"], ["extremal", "--n", "100002"]],
    )
    def test_symmetric_radii_are_capped_at_100001(self, args):
        code, out, err = _capture(["radius", "--family"] + args)
        assert (code, out, err) == (2, "", "cuberadius: error: need 1 <= N <= 100001\n")

    def test_majority_at_the_cap(self, capsys):
        # rho sqrt(N) / gamma = 1 + c / N + O(N^-2), c = 0.0176903621969 (Laplace's
        # method on the majority identity); the next term is about 1e-11 here
        from cuberadius.threshold import gamma_constant

        code, out = run_cli(["radius", "--family", "majority", "--n", "100001"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["method"] == "bisection" and obj["residual"] <= 1e-10
        ratio = obj["radius"] * math.sqrt(100001) / gamma_constant()
        assert abs(ratio - 1.0 - 0.0176903621969 / 100001) < 1e-10

    def test_dense_families_are_capped_at_24(self):
        code, out, err = _capture(["radius", "--family", "dictator", "--n", "25"])
        assert code == 2 and not out and err.startswith("cuberadius: error: ") and "Traceback" not in err

    @pytest.mark.parametrize("n", list(range(1, 25)) + [4001])
    def test_extremal_matches_the_class_radius(self, n, capsys):
        got = json.loads(run_cli(["radius", "--family", "extremal", "--n", str(n)], capsys)[1])["radius"]
        want = radius_module.bn_radius_formula(n)
        assert abs(got - want) <= (want * 1e-12 if n > 24 else 8 * math.ulp(want)), n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_characters_match_the_dense_path(self, n, tmp_path):
        cases = [("dictator", [], families.dictator(n, 1))]
        cases += [("parity", [f"--m={m}"], families.parity(n, range(1, m + 1))) for m in range(n + 1)]
        path = tmp_path / "f.json"
        for name, extra, table in cases:
            path.write_text(dumps_truth_table(table))
            for fmt in ("json", "csv"):
                want = _capture(["radius", "--input", str(path), "--format", fmt])
                assert want[0] == 0
                assert _capture(["radius", "--family", name, f"--n={n}", "--format", fmt] + extra) == want, (name, extra)

    def test_parity_24_allocates_no_table(self, monkeypatch):
        import tracemalloc

        def refuse(*_):
            raise AssertionError("a dense table or a butterfly was used")

        monkeypatch.setattr(cube, "_fwht_inplace", refuse)
        monkeypatch.setattr(families, "parity", refuse)
        tracemalloc.start()
        try:
            got = _capture(["radius", "--family", "parity", "--n", "24"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (0, '{"radius": 1, "residual": 0, "iterations": 0, "method": "bisection"}\n', "")
        assert peak < 2**24 * 8 // 64, peak  # under 1/64 of one 2^24-double table

    @pytest.mark.parametrize("argv, message", [
        (["--family", "parity", "--n", "3", "--m", "4"], "subset members must lie in [1, 3]"),
        (["--family", "parity", "--n", "25"], "dense tables are capped at n <= 24, got n = 25"),
        (["--family", "dictator", "--n", "0"], "dimension must be a positive integer, got 0"),
        (["--family", "parity", "--n", "-2", "--m", "-1"], "--m must be >= 0, got -1"),
    ])
    def test_character_errors(self, argv, message):
        assert _capture(["radius"] + argv) == (2, "", f"cuberadius: error: {message}\n")


@pytest.mark.parametrize("command", [["radius"], ["spectrum"], ["spectrum", "--symmetric"]])
@pytest.mark.parametrize("family", ["extremal", "dictator", "parity", "threshold", "majority", "biased", None])
@pytest.mark.parametrize("n", ["5", "4", "-2"])
def test_family_is_checked_once_per_command(command, family, n, monkeypatch):
    # each command resolved the family up to three times
    from cuberadius import cli

    calls = []
    check = cli._family
    monkeypatch.setattr(cli, "_family", lambda args: calls.append(args.family) or check(args))
    flags = ["--n", n, "--alpha", "1", "--lambda", "0.25"] + (["--family", family] if family else [])
    assert _capture(command + flags)[0] in (0, 2)
    assert calls == [family]


def test_input_needs_no_family_check(tmp_path, monkeypatch):
    from cuberadius import cli

    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "values": [1, -1]}')
    monkeypatch.setattr(cli, "_family", lambda args: pytest.fail("checked --family"))
    for command in ("radius", "spectrum"):
        assert _capture([command, "--input", str(path), "--family", "threshold"])[0] == 0


def test_symmetric_refuses_an_input_file(tmp_path, monkeypatch):
    # without --family it asked for one; with --family it printed the family and ignored the file
    from cuberadius import cli

    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "values": [1, -1]}')
    monkeypatch.setattr(cli, "_family", lambda args: pytest.fail("checked --family"))
    message = "cuberadius: error: --symmetric prints a family's exact spectrum and reads no file: drop --input\n"
    for family in ([], ["--family", "majority", "--n", "3"]):
        assert _capture(["spectrum", "--symmetric", "--input", str(path)] + family) == (2, "", message)


@pytest.mark.parametrize("flags", [[], ["--n", "5"]])
def test_symmetric_without_a_family_names_the_families_it_takes(flags):
    # it asked for "--family (or --input where supported)", and --symmetric refuses --input
    message = "cuberadius: error: --symmetric needs --family threshold or majority\n"
    assert _capture(["spectrum", "--symmetric"] + flags) == (2, "", message)


def _capture(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; argparse exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["threshold", "majority", "extremal", "dictator", "parity", "biased"]),
    n=st.integers(max_value=12) | st.integers(1, 12),
    alpha=st.none() | st.floats() | st.floats(0.0, 12.0),
    lam=st.none() | st.floats() | st.integers(0, 2**12).map(lambda k: k / 2**12),
    m=st.none() | st.integers() | st.integers(-1, 13),
    fmt=st.sampled_from(["json", "csv"]),
)
@example(family="parity", n=5, alpha=None, lam=None, m=10**12, fmt="json")  # once a hang
def test_radius_family_fuzz(family, n, alpha, lam, m, fmt):
    argv = ["radius", "--family", family, f"--n={n}", "--format", fmt]
    for flag, value in (("--alpha", alpha), ("--lambda", lam), ("--m", m)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    code, out, err = _capture(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("cuberadius: error: ") and not out, argv
    elif family in ("threshold", "majority", "extremal"):
        # the oracle: the exact radius threshold-scan reports, and near it the dense path on the table
        a = {"threshold": alpha, "majority": 0, "extremal": n - 1}[family]
        got = float(json.loads(out)["radius"] if fmt == "json" else out.splitlines()[1].split(",")[0])
        assert got.hex() == threshold_radius(n, a).radius.hex(), argv
        table = {"threshold": lambda: families.threshold(families.ThresholdSpec(n, alpha)),
                 "majority": lambda: families.majority(n),
                 "extremal": lambda: families.extremal_indicator_flip(n)}[family]()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.json"
            path.write_text(dumps_truth_table(table))
            code, out, err = _capture(["radius", "--input", str(path)])
        dense = json.loads(out)["radius"]
        assert code == 0 and abs(got - dense) <= 12 * math.ulp(dense), argv


def _flag(name, value):
    return [] if value is None else [f"{name}={value!r}"]


_FAMILIES = ["threshold", "majority", "extremal", "dictator", "parity", "biased"]
_ALPHA_TOKENS = st.sampled_from(["0", "sqrt", "half", "", " 3", "x", "1.5"]) | st.integers(-3, 61).map(str)


def _mostly(lo, hi):
    """Integers in [lo, hi] half of the time, otherwise any integer up to hi."""
    return st.integers(lo, hi) | st.integers(max_value=hi)


@st.composite
def _family_argv(draw, command, n_max, families=_FAMILIES):
    fam = draw(st.sampled_from(families))
    n = draw(_mostly(1, n_max))
    argv = [command, "--family", fam, f"--n={n}"]
    argv += _flag("--alpha", draw(st.none() | st.floats() | st.floats(0.0, float(n_max))))
    argv += _flag("--lambda", draw(st.none() | st.floats() | st.integers(0, 2**12).map(lambda k: k / 2**12)))
    return argv + _flag("--m", draw(st.none() | st.integers() | st.integers(-1, 13)))


_ODD = st.integers(-2, 30).map(lambda k: 2 * k + 1)

_OTHER_COMMANDS = st.one_of(
    _family_argv("spectrum", 12),
    _family_argv("spectrum", 60, ["threshold", "majority", "extremal"]).map(
        lambda argv: argv + ["--symmetric"]
    ),
    st.tuples(
        st.lists(_mostly(1, 60).map(str) | st.sampled_from(["", "x", " 7"]), max_size=3),
        st.none() | st.lists(_ALPHA_TOKENS, max_size=4),
    ).map(
        lambda t: ["threshold-scan", "--n-list=" + ",".join(t[0])]
        + ([] if t[1] is None else ["--alphas=" + ",".join(t[1])])
    ),
    st.tuples(_ODD | st.integers(-5, 60), _ODD | st.integers(-5, 60)).map(
        lambda t: ["majority-scan", f"--n-start={t[0]}", f"--n-stop={t[1]}"]
    ),
    st.builds(
        lambda suite, n_max, samples, seed, d: ["verify", "--suite", suite, f"--n-max={n_max}",
                                                f"--samples={samples}", f"--seed={seed}", f"--d={d}"],
        st.sampled_from(list(inequalities.ASSERTABLE_SUITES) + list(inequalities.REPORT_SUITES) + ["all"]),
        _mostly(2, 4),
        _mostly(1, 3),
        st.integers(0, 2**70) | st.integers(),
        _mostly(1, 6),
    ),
    st.tuples(_mostly(1, 5), st.booleans()).map(lambda t: ["bn", f"--n={t[0]}"] + ["--brute"] * t[1]),
    _mostly(1, 1000).map(lambda n: ["tn", f"--n={n}"]),
)


@settings(max_examples=300, deadline=None)
@given(argv=_OTHER_COMMANDS)
@example(argv=["threshold-scan", "--n-list", "2"])  # once a quadrature math domain error
def test_other_commands_fuzz(argv):
    code, out, err = _capture(argv)
    assert code in (0, 1, 2), (argv, err)
    assert code != 1 or argv[0] in ("verify", "bn"), (argv, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith("cuberadius: error: ") and not out, (argv, err)


class TestBnCommand:
    @pytest.mark.parametrize("n,value", [(1, 1.0), (2, math.sqrt(2) - 1), (3, 2 ** (1 / 3) - 1)])
    def test_brute_matches_formula(self, n, value, capsys):
        code, out = run_cli(["bn", "--n", str(n), "--brute"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["match"] is True
        assert obj["formula"] == pytest.approx(value, abs=1e-12)
        assert abs(obj["brute_force"] - obj["formula"]) <= 1e-10

    def test_formula_only(self, capsys):
        code, out = run_cli(["bn", "--n", "100"], capsys)
        assert code == 0 and "brute_force" not in json.loads(out)

    def test_brute_rejects_large_n(self, capsys):
        code, _ = run_cli(["bn", "--n", "5", "--brute"], capsys)
        assert code == 2


class TestScanCommands:
    def test_threshold_scan_csv(self, capsys):
        code, out = run_cli(["threshold-scan", "--n-list", "3,9", "--alphas", "0,sqrt"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,alpha,radius,ratio,mckay_c,sandwich_ok,y_value"
        assert len(lines) == 4  # (3,0), (3,1), (9,0), (9,2): sqrt tokens canonicalized
        assert all(line.split(",")[5] == "true" for line in lines[1:])

    def test_quadrature_cap_exits_2(self, monkeypatch, capsys):
        from cuberadius import threshold

        monkeypatch.setattr(threshold, "QUAD_MAX_EVALS", 1)
        assert main(["threshold-scan", "--n-list", "9", "--alphas", "0"]) == 2
        assert "subdivision cap" in capsys.readouterr().err

    def test_threshold_scan_rejects_bad_alpha(self, capsys):
        code, _ = run_cli(["threshold-scan", "--n-list", "3", "--alphas", "7"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--n-list", "5", "--alphas", "1.5"], "--alphas: expected an integer, 'sqrt' or 'half', got '1.5'"),
            (["--n-list", "5", "--alphas", "0,nan"], "--alphas: expected an integer, 'sqrt' or 'half', got 'nan'"),
            (["--n-list", "5, x"], "--n-list: expected an integer, got 'x'"),
            (["--n-list", "5.0"], "--n-list: expected an integer, got '5.0'"),
        ],
    )
    def test_threshold_scan_names_the_flag_it_cannot_read(self, argv, err):
        assert _capture(["threshold-scan"] + argv) == (2, "", f"cuberadius: error: {err}\n")

    @pytest.mark.parametrize("argv", [["--n-list", ",,"], ["--n-list", "5", "--alphas", ","]])
    def test_threshold_scan_refuses_an_empty_scan(self, argv):
        # it printed the CSV header alone and exited 0
        message = "cuberadius: error: empty threshold scan: --n-list and --alphas each need at least one value\n"
        assert _capture(["threshold-scan"] + argv) == (2, "", message)

    def test_threshold_scan_at_alpha_n_minus_1(self, capsys):
        # the default alphas at N = 2 reach alpha = N - 1, where G's b term vanishes
        code, out = run_cli(["threshold-scan", "--n-list", "2"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[:2] for r in rows] == [["2", "-1"], ["2", "1"]]
        assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-12) and rows[1][5] == "true"

    @pytest.mark.parametrize(
        "argv",
        [
            ["majority-scan", "--n-start", "99001", "--n-stop", "100003"],
            ["threshold-scan", "--n-list", "11,100002", "--alphas", "0"],
        ],
    )
    def test_caps_are_checked_before_any_radius(self, monkeypatch, capsys, argv):
        from cuberadius import threshold

        calls = []
        exact = threshold._radii_exact
        monkeypatch.setattr(threshold, "_radii_exact", lambda *a: calls.append(a) or exact(*a))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "cuberadius: error: need 1 <= N <= 100001\n"
        assert calls == []

    def test_majority_scan(self, capsys):
        code, out = run_cli(["majority-scan", "--n-start", "1", "--n-stop", "7"], capsys)
        lines = out.strip().split("\n")
        assert lines[0] == "n,radius,radius_sqrt_n,ratio_to_gamma,gamma"
        assert len(lines) == 5

    def test_majority_scan_rejects_even_bounds(self, capsys):
        code, _ = run_cli(["majority-scan", "--n-start", "2", "--n-stop", "6"], capsys)
        assert code == 2

    def test_majority_scan_rejects_empty_range(self, capsys):
        assert main(["majority-scan", "--n-start", "7", "--n-stop", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty majority range" in captured.err

    def test_byte_identical_outputs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["threshold-scan", "--n-list", "5,11", "--alphas", "0,2,half",
                         "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSpectrumCommand:
    def test_dense(self, capsys):
        code, out = run_cli(["spectrum", "--family", "parity", "--n", "2"], capsys)
        obj = json.loads(out)
        assert obj["coeffs"] == [0, 0, 0, 1]

    def test_symmetric_majority(self, capsys):
        code, out = run_cli(["spectrum", "--family", "majority", "--n", "3", "--symmetric"], capsys)
        sym = loads_symmetric_spectrum(out)
        assert [str(c) for c in sym.level_coeffs] == ["0", "1/2", "0", "-1/2"]

    @pytest.mark.parametrize(
        "args", [["majority", "--n", "4003"], ["threshold", "--n", "4002", "--alpha", "0"], ["threshold", "--n", "4002", "--alpha", "1"]]
    )
    def test_symmetric_spectra_are_capped_at_4001(self, args):
        # below the radius cap of 100001: the spectrum has its own
        code, out, err = _capture(["spectrum", "--symmetric", "--family"] + args)
        assert (code, out, err) == (2, "", "cuberadius: error: need 1 <= N <= 4001\n")

    def test_symmetric_threshold_canonicalizes(self, capsys):
        code, out = run_cli(
            ["spectrum", "--family", "threshold", "--n", "9", "--alpha", "3", "--symmetric"],
            capsys,
        )
        assert code == 0 and json.loads(out)["n"] == 9

    @staticmethod
    def _symmetric_stdout(N, alpha):
        code, out, err = _capture(["spectrum", "--family", "threshold", "--n", str(N), "--alpha", str(alpha), "--symmetric"])
        assert (code, err) == (0, "")
        assert not any(c.startswith("-0") for c in json.loads(out)["level_coeffs"]), (N, alpha)
        return out

    def test_symmetric_stdout_is_the_emitted_exact_spectrum_up_to_40(self):
        from cuberadius.serialize import dumps_symmetric_spectrum
        from cuberadius.threshold import threshold_spectrum_exact

        # every canonical pair with N <= 40, reached from the alpha that names it
        pairs = {(N, families.canonical_alpha(N, a)): a for N in range(1, 41) for a in range(N)}
        assert len(pairs) == 440
        for (N, canonical), a in pairs.items():
            want = dumps_symmetric_spectrum(threshold_spectrum_exact(N, canonical))
            assert self._symmetric_stdout(N, a) == want, (N, a)

    @pytest.mark.parametrize(
        "N, alpha, canonical",
        # 2-adic valuations that vary by level, the formal alpha = -1, and the cap
        [(65, 28, 28), (1001, 498, 498), (4000, 0, -1), (4001, 0, 0), (4001, 1998, 1998), (4001, 2000, 2000)],
    )
    def test_symmetric_stdout_is_the_emitted_exact_spectrum(self, N, alpha, canonical):
        from cuberadius.serialize import dumps_symmetric_spectrum
        from cuberadius.threshold import threshold_spectrum_exact

        want = dumps_symmetric_spectrum(threshold_spectrum_exact(N, canonical))
        assert self._symmetric_stdout(N, alpha) == want

    def test_symmetric_zero_levels_print_as_zero(self):
        # odd majority: the Decimal run meets -0 at the zero levels, the output never does
        from cuberadius import threshold

        _, _, lead = threshold._tail_terms(5, 0)
        with decimal.localcontext(threshold._EXACT):
            assert "-0" in [str(e) for e in threshold._dual_terms(0, 4, decimal.Decimal(lead))]
        out = json.loads(self._symmetric_stdout(5, 0))
        assert out["level_coeffs"][0::2] == ["0/1"] * 3 and out["log_abs"][0::2] == ["-inf"] * 3

    def test_symmetric_builds_no_fraction(self, monkeypatch):
        from fractions import Fraction

        from cuberadius import cube

        def refuse(*args, **kwargs):
            raise AssertionError("built a Fraction or a SymmetricSpectrum")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        monkeypatch.setattr(cube.SymmetricSpectrum, "__init__", refuse)
        monkeypatch.setattr(cube.SymmetricSpectrum, "_adopt", refuse)
        code, out, err = _capture(["spectrum", "--family", "threshold", "--n", "61", "--alpha", "12", "--symmetric"])
        assert (code, err) == (0, "") and json.loads(out)["n"] == 61

    def test_symmetric_peak_memory_is_under_twice_the_output(self, monkeypatch):
        # the numerator texts go into the document by reference: one join, no per-entry copies
        from cuberadius import cli

        texts = []
        monkeypatch.setattr(cli, "_write", lambda args, text: texts.append(text))
        tracemalloc.start()
        try:
            code = main(["spectrum", "--family", "threshold", "--n", "4001", "--alpha", "2000", "--symmetric"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(texts[0]) > 7 * 10**6
        assert peak <= 2 * len(texts[0])

    def test_dense_from_truth_table_file(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 1, "values": [1, -1]}')
        code, out = run_cli(["spectrum", "--n", "1", "--input", str(path)], capsys)
        assert code == 0 and json.loads(out)["coeffs"] == [0, 1]

    def test_symmetric_rejects_other_families(self, capsys):
        code, _ = run_cli(["spectrum", "--family", "parity", "--n", "3", "--symmetric"], capsys)
        assert code == 2

    def test_input_needs_no_n(self, tmp_path):
        # the dimension is in the file; --n is demanded only with --family
        path = tmp_path / "f.json"
        path.write_text('{"n": 1, "values": [1, -1]}')
        code, out, _ = _capture(["spectrum", "--input", str(path)])
        assert code == 0 and json.loads(out)["coeffs"] == [0, 1]
        assert _capture(["spectrum"])[::2] == (2, "cuberadius: error: need --family (or --input where supported)\n")
        code, _, err = _capture(["spectrum", "--family", "parity"])
        assert (code, err) == (2, "cuberadius: error: --n is required with --family\n")

    def test_dense_threshold_matches_the_exact_levels(self, capsys):
        from cuberadius.threshold import threshold_spectrum_exact

        code, out = run_cli(["spectrum", "--family", "threshold", "--n", "6", "--alpha", "1"], capsys)
        exact = threshold_spectrum_exact(6, 1).level_coeffs
        coeffs = json.loads(out)["coeffs"]
        assert code == 0 and len(coeffs) == 64
        for mask, c in enumerate(coeffs):
            assert c == float(exact[mask.bit_count()]), mask


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["spectrum", "--symmetric", "--family", "majority", "--n", "100003"], 4001),
        (["spectrum", "--symmetric", "--family", "threshold", "--n", "100003", "--alpha", "200000"], 4001),
        (["radius", "--family", "threshold", "--n", "0", "--alpha", "0"], 100001),
        (["radius", "--family", "threshold", "--n", "100003", "--alpha", "200000"], 100001),
        (["threshold-scan", "--n-list", "0"], 100001),
        (["threshold-scan", "--n-list", "-3"], 100001),
        (["threshold-scan", "--n-list", "100003,5", "--alphas", "5"], 100001),
    ],
)
def test_n_is_checked_against_the_commands_own_cap_before_alpha(argv, cap):
    assert _capture(argv) == (2, "", f"cuberadius: error: need 1 <= N <= {cap}\n")


class TestVerifyCommand:
    def test_clean_suite_exits_zero(self, capsys):
        code, out = run_cli(
            ["verify", "--suite", "wiener", "--n-max", "4", "--samples", "10", "--seed", "7"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["failures"] == 0 and obj["samples"] > 0

    def test_worker_count_does_not_change_content(self, tmp_path):
        paths = [tmp_path / "w1.json", tmp_path / "w2.json"]
        for p, w in zip(paths, ("1", "3")):
            args = ["verify", "--suite", "split", "--n-max", "4", "--samples", "8",
                    "--seed", "5", "--workers", w, "--output", str(p)]
            assert main(args) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nonpositive_samples_exit_2(self, capsys):
        assert main(["verify", "--suite", "wiener", "--n-max", "4", "--samples", "-3"]) == 2
        assert "samples >= 1" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_the_seed(self, capsys):
        # numpy's own message, "expected non-negative integer", named no flag
        assert main(["verify", "--suite", "wiener", "--n-max", "2", "--samples", "1", "--seed", "-1"]) == 2
        assert "need seed >= 0, got seed = -1" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestScalarCommands:
    def test_gamma(self, capsys):
        code, out = run_cli(["gamma"], capsys)
        assert json.loads(out)["gamma"] == pytest.approx(1.0347760379849298, abs=1e-12)

    def test_tn_prints_indexing_note(self, capsys):
        code, out = run_cli(["tn", "--n", "2"], capsys)
        obj = json.loads(out)
        assert obj["t_n"] == pytest.approx(0.5176380902050415, abs=1e-12)
        assert "k=1" in obj["note"]

    def test_tn_n1_prints_the_exact_root(self, capsys):
        # cos(pi/3) t = 1/2 has the root t = 1, which is printed exactly
        code, out = run_cli(["tn", "--n", "1"], capsys)
        assert code == 0 and '"t_n": 1,' in out

    def test_tn_over_cap_exits_2(self, capsys):
        assert main(["tn", "--n", str(MAX_TN_N + 1)]) == 2
        assert f"N <= {MAX_TN_N}" in capsys.readouterr().err


def test_no_command_starts_threads(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["bn", "--n", "4", "--brute", "--workers", "2"]) == 0
    assert main(["verify", "--suite", "wiener", "--n-max", "4", "--samples", "5", "--workers", "4"]) == 0
    assert main(["majority-scan", "--n-start", "3", "--n-stop", "9", "--workers", "3"]) == 0


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "cuberadius.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for cmd in ("radius", "bn", "threshold-scan", "majority-scan", "spectrum", "verify", "gamma", "tn"):
        assert cmd in proc.stdout


def test_threshold_commands_never_load_scipy():
    # Y, the tail correction, the radii and the exact spectra need numpy and math only
    src = str(Path(cube.__file__).resolve().parent.parent)
    code = (
        "import contextlib, io, sys\n"
        "from cuberadius import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['threshold-scan', '--n-list', '7,101,1011']),\n"
        "             cli.main(['majority-scan', '--n-start', '3', '--n-stop', '41']),\n"
        "             cli.main(['spectrum', '--family', 'threshold', '--n', '40', '--alpha', '5', '--symmetric'])]\n"
        "print(codes, 'scipy' in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:3])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False []\n"


def test_no_source_file_names_scipy():
    src = Path(cube.__file__).resolve().parent.parent
    files = sorted(src.rglob("*.py"))
    assert len(files) >= 8
    assert [f.name for f in files if "scipy" in f.read_text(encoding="utf-8")] == []


# -- --input files of odd shapes ----------------------------------------------

_ODD_ENTRY = st.one_of(
    st.floats(),  # NaN and Infinity become JSON tokens that the loader rejects
    st.sampled_from([1e308, -1.7976931348623157e308, 5e-324, -0.0, 2**1100, -(10**400)]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def _input_text(draw):
    """JSON text (or broken text) shaped roughly like a truth-table file, n <= 12."""
    n_len = draw(st.integers(0, 12))
    odd_n = st.integers(-2, 12) | st.sampled_from([True, 1.5, "3", None, 2**70, []])
    n = n_len if draw(st.integers(0, 3)) else draw(odd_n)  # n agrees with the length 3 times in 4
    size = 2**n_len
    length = draw(st.sampled_from([size] * 4 + [size - 1, size + 1, 0, 1, 2 * size]))
    values = [draw(st.floats(-1e308, 1e308) | st.sampled_from([1.0, -1.0]))] * length
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if values else 0):
        values[draw(st.integers(0, length - 1))] = draw(_ODD_ENTRY)
    shape = draw(st.sampled_from(["flat"] * 5 + ["nested", "rows", "bare list", "scalar", "keys"]))
    if shape == "nested":
        values = [values]
    elif shape == "rows":
        values = [values[i : i + 2] for i in range(0, length, 2)]
    obj = {"n": n, "values": values}
    if shape == "bare list":
        obj = values
    elif shape == "scalar":
        obj = draw(st.sampled_from([n, "x", None]))
    elif shape == "keys":
        obj = draw(
            st.sampled_from([{"n": n}, {"values": values}, {"n": n, "values": values, "x": 1}, {"n": n, "coeffs": values}])
        )
    text = json.dumps(obj)
    return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["radius", "spectrum"]),
    text=_input_text(),
    n_flag=st.integers(-1, 13),
)
@example(command="radius", text='{"n": 2, "values": [1e308, 1e308, -1e308, 1e308]}', n_flag=2)
@example(command="spectrum", text='{"n": 2, "values": [[1, 1], [1, 1]]}', n_flag=2)
@example(command="radius", text="[" * 100000, n_flag=1)  # RecursionError inside json
@example(command="spectrum", text="\ufeff{}", n_flag=1)
@example(command="radius", text="", n_flag=1)
def test_input_file_fuzz(command, text, n_flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(text)
        code, out, err = _capture([command, "--input", str(path), f"--n={n_flag}"])
    assert code in (0, 2), (text[:200], err)
    assert "Traceback" not in err, text[:200]
    if code == 2:
        assert err.startswith("cuberadius: error: ") and not out, (text[:200], err)
    else:
        assert set(json.loads(out)) >= ({"radius"} if command == "radius" else {"n", "coeffs"})


_MALFORMED_TABLES = {
    "nan": b'{"n": 1, "values": [NaN, 1]}',
    "infinity": b'{"n": 1, "values": [Infinity, 1]}',
    "minus_infinity": b'{"n": 1, "values": [-Infinity, 1]}',
    "past_double_range": b'{"n": 1, "values": [1e400, 1]}',
    "400_digit_integer": b'{"n": 1, "values": [' + b"9" * 400 + b", 1]}",
    "n_2_to_70": b'{"n": %d, "values": [1, 1]}' % 2**70,
    "truncated": b'{"n": 1, "values": [1, ',
    "not_utf8": b'{"n": 1, "values": [1, 1]}\xff',
    "string_entries": b'{"n": 1, "values": ["1.5", "2"]}',
}


@pytest.mark.parametrize("command", ["radius", "spectrum"])
@pytest.mark.parametrize("case", sorted(_MALFORMED_TABLES))
def test_malformed_table_is_one_error_line(command, case, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(_MALFORMED_TABLES[case])
    code, out, err = _capture([command, "--input", str(path)])
    assert (code, out) == (2, ""), err
    assert err.startswith("cuberadius: error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err

