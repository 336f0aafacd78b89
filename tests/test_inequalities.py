import ast
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberadius import cli, inequalities, radius
from cuberadius.cube import (
    BooleanFunction,
    _fwht_inplace,
    _p_norms,
    degree,
    from_truth_table,
    subset_levels,
    sup_norm,
    walsh_transform,
)
from cuberadius.families import (
    _sign_draw,
    _sign_spectra,
    biased_indicator,
    dictator,
    extremal_indicator_flip,
    majority,
    parity,
)
from cuberadius.inequalities import (
    ASSERTABLE_SUITES,
    EPSILON_GRID,
    HYPER_CHECKS,
    HYPER_GRID,
    RANDOM_MODES,
    REPORT_SUITES,
    SUITES,
    InequalityReport,
    bh_ratio,
    biased_radius_lower_check,
    caratheodory_check,
    caratheodory_sharpness,
    degree_l2_check,
    family_functions,
    hypercontractive_bound,
    hypercontractivity_check,
    level_m_bound_check,
    norm_comparison_check,
    random_bounded_function,
    run_suite,
    split_pointwise_check,
    wiener_degree_ratio,
    wiener_pair_check,
)
from cuberadius.radius import boolean_radius, level_profile


class TestRandomBoundedFunction:
    @pytest.mark.parametrize("mode", ["table_uniform", "boolean_pm1", "spectral_random", "low_degree"])
    def test_sup_is_one(self, mode):
        f = random_bounded_function(5, [3, 0], mode)
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-15)

    def test_pm1_tables_are_signs(self):
        f = random_bounded_function(4, 1, "boolean_pm1")
        assert set(np.unique(f.values)) <= {-1.0, 1.0}

    def test_low_degree_cap(self):
        f = random_bounded_function(6, 2, "low_degree", d=2)
        assert degree(walsh_transform(f)) <= 2

    def test_deterministic_per_seed(self):
        a = random_bounded_function(5, [9, 4], "spectral_random")
        b = random_bounded_function(5, [9, 4], "spectral_random")
        assert np.array_equal(a.values, b.values)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            random_bounded_function(4, 0, "weird")

    def test_sign_draws_are_choice_draws(self):
        # the suites' +-1 tables and the homogeneous scan's signs are the draws of
        # default_rng(seed).choice([-1.0, 1.0], size), made without choice
        choice = lambda seed, size: np.random.default_rng(seed).choice([-1.0, 1.0], size=size)
        keys = [7, [3, 0], [20240601, 10, 1, 5]] + [[k, 2] for k in range(40)]
        for size in (1, 2, 3, 64, 1000, 4096):
            for key in keys:
                assert _sign_draw(np.random.default_rng(key), size).tobytes() == choice(key, size).tobytes()
        assert inequalities._draw_tables(6, keys, "boolean_pm1", 3).tobytes() == np.array([choice(k, 64) for k in keys]).tobytes()
        spectra = _sign_spectra(6, 2, np.arange(1.0, 16.0), keys)[:, subset_levels(6) == 2]
        assert spectra.tobytes() == np.array([choice(k, 15) * np.arange(1.0, 16.0) for k in keys]).tobytes()


class TestWienerPair:
    def test_indicator_flip_is_tight(self):
        rep = wiener_pair_check(extremal_indicator_flip(2))
        assert rep.failures == 0
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_dictator(self):
        rep = wiener_pair_check(dictator(3, 1))
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_random_scan(self):
        for i in range(100):
            f = random_bounded_function(6, [11, i], "table_uniform")
            assert wiener_pair_check(f).failures == 0

    def test_rejects_oversized_function(self):
        with pytest.raises(ValueError):
            wiener_pair_check(from_truth_table(2, [2.0, 0, 0, 0]))


def small_tables(max_n=5, magnitude=1e280):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-magnitude, magnitude, allow_nan=False, allow_infinity=False),
            min_size=2**n,
            max_size=2**n,
        ).map(lambda v: from_truth_table(n, v))
    )


class TestSplitPointwise:
    def test_constant(self):
        rep = split_pointwise_check(from_truth_table(2, [0.7] * 4))
        assert rep.failures == 0

    def test_parity_is_tight(self):
        rep = split_pointwise_check(parity(3, [1, 2, 3]))
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_random_scan(self):
        for i in range(100):
            f = random_bounded_function(6, [13, i], "spectral_random")
            assert split_pointwise_check(f).failures == 0

    @given(small_tables())
    @settings(max_examples=80, deadline=None)
    def test_property_any_table(self, f):
        assert split_pointwise_check(f).failures == 0

    @given(small_tables(magnitude=1.0))
    @settings(max_examples=80, deadline=None)
    def test_wiener_property_on_bounded_tables(self, f):
        assert wiener_pair_check(f).failures == 0


class TestCaratheodory:
    def test_biased_quarter(self):
        rep = caratheodory_check(biased_indicator(4, 0.25))
        # E|f - Ef| = 3/4 against 2(1-|c0|) = 1
        assert rep.worst_margin == pytest.approx(0.25, abs=1e-12)

    def test_parity(self):
        rep = caratheodory_check(parity(2, [1, 2]))
        assert rep.worst_margin == pytest.approx(1.0, abs=1e-12)

    def test_random_scan(self):
        for i in range(100):
            f = random_bounded_function(5, [17, i], "table_uniform")
            assert caratheodory_check(f).failures == 0


class TestSharpness:
    def test_p1_is_exactly_one_minus_lambda(self):
        rows = caratheodory_sharpness([0.25, 1 / 16, 1 / 64], 1.0)
        for lam, ratio in rows:
            assert ratio == pytest.approx(1.0 - lam, abs=1e-15)

    def test_p2_diverges_as_lambda_shrinks(self):
        rows = caratheodory_sharpness([0.25, 1 / 16, 1 / 64], 2.0)
        ratios = [r for _, r in rows]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 2.0

    def test_frozen_p2_values(self):
        rows = caratheodory_sharpness([0.25, 1 / 64], 2.0)
        assert rows[0][1] == pytest.approx(0.8660254037844386, abs=1e-12)
        assert rows[1][1] == pytest.approx(3.968626966596886, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -0.25, 1.5, math.nan])
    def test_rejects_lambda_outside_unit_interval(self, lam):
        # lambda = 0 divided by zero
        with pytest.raises(ValueError, match=r"need 0 < lambda <= 1"):
            caratheodory_sharpness([0.25, lam], 1.0)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
    def test_rejects_p_below_one(self, p):
        with pytest.raises(ValueError, match=r"need p >= 1"):
            caratheodory_sharpness([0.25], p)


class TestDegreeL2:
    def test_dictator(self):
        rep = degree_l2_check(dictator(2, 1), 1)
        assert rep.worst_margin == pytest.approx(2 * math.e - 1, abs=1e-12)

    def test_majority3(self):
        rep = degree_l2_check(majority(3), 3)
        # level sum sqrt(3/4 + 1/4) = 1 against 2 e^3
        assert rep.worst_margin == pytest.approx(2 * math.exp(3) - 1.0, abs=1e-10)

    def test_random_low_degree(self):
        for i in range(100):
            f = random_bounded_function(6, [19, i], "low_degree", d=3)
            assert degree_l2_check(f, 3).failures == 0

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            degree_l2_check(majority(3), 2)


class TestNormComparison:
    def test_constant_with_degree_zero(self):
        assert norm_comparison_check(from_truth_table(2, [0.4] * 4), 0).failures == 0

    def test_parity(self):
        assert norm_comparison_check(parity(4, range(1, 5)), 4).failures == 0

    def test_random_low_degree(self):
        for i in range(100):
            f = random_bounded_function(5, [23, i], "low_degree", d=2)
            assert norm_comparison_check(f, 2).failures == 0


def _hyper_at_every_rho(t, checks):
    """The hyper block check with an inverse butterfly for every column, rho = 0 included."""
    lhs, rhs = np.empty((t.rows, len(checks))), np.empty((t.rows, len(checks)))
    for i, (p, q, rho) in enumerate(checks):
        lhs[:, i] = _p_norms(_fwht_inplace(t.coeffs * rho**t.levels), q)
        rhs[:, i] = _p_norms(t.values, p)
    return inequalities._check(rhs, lhs)


class TestHypercontractivity:
    def test_admissible_bound_values(self):
        assert hypercontractive_bound(2, 4) == pytest.approx(1 / math.sqrt(3))
        assert hypercontractive_bound(2, 2) == 1.0
        assert hypercontractive_bound(1, 3) == 0.0

    def test_dictator_all_admissible(self):
        f = dictator(4, 2)
        for p, q in ((2, 4), (1.5, 3), (3, 6)):
            b = hypercontractive_bound(p, q)
            assert hypercontractivity_check(f, p, q, b).failures == 0

    def test_rho_zero_is_jensen(self):
        for i in range(20):
            f = random_bounded_function(5, [29, i], "table_uniform")
            assert hypercontractivity_check(f, 1.5, 4.0, 0.0).failures == 0

    def test_two_four_grid(self):
        rho = 1 / math.sqrt(3)
        for i in range(100):
            f = random_bounded_function(6, [31, i], "spectral_random")
            assert hypercontractivity_check(f, 2, 4, rho).failures == 0

    def test_rejects_inadmissible_rho(self):
        with pytest.raises(ValueError):
            hypercontractivity_check(dictator(2, 1), 2, 4, 0.8)

    def test_rho_zero_takes_no_butterfly(self, monkeypatch):
        # T_0 f is the constant fhat(empty): 8 inverse butterflies per block, not 9,
        # with the margins and failure flags of a butterfly at every rho, bit for bit
        blocks = [t for t, _ in inequalities._blocks(10, 4, 12345, 3)]
        for t in blocks:
            t.coeffs  # the forward transforms, through cube's own binding, before counting
        calls = []
        butterfly = inequalities._fwht_inplace
        monkeypatch.setattr(inequalities, "_fwht_inplace", lambda a: calls.append(a.shape) or butterfly(a))
        for t in blocks:
            calls.clear()
            margin, fail = inequalities._hyper(t, HYPER_CHECKS)
            assert len(calls) == 8
            want_margin, want_fail = _hyper_at_every_rho(t, HYPER_CHECKS)
            assert margin.tobytes() == want_margin.tobytes() and np.array_equal(fail, want_fail)


class TestBhRatio:
    def test_single_coefficient_is_exactly_one(self):
        assert bh_ratio(dictator(3, 2), 1) == 1.0
        assert bh_ratio(parity(4, range(1, 5)), 4) == 1.0
        f = from_truth_table(2, 0.37 * parity(2, [1, 2]).values)
        assert bh_ratio(f, 2) == pytest.approx(1.0, abs=1e-15)

    def test_reported_scan_is_finite(self):
        worst = max(
            bh_ratio(random_bounded_function(6, [37, i], "low_degree", d=2), 2)
            for i in range(100)
        )
        assert math.isfinite(worst) and worst > 0.0

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            bh_ratio(majority(3), 1)


class TestLevelMBound:
    def test_dictator_plug_in(self):
        rep = level_m_bound_check(dictator(3, 1), 1, 0.99)
        rhs = 2 * 0.99**-0.5 * 0.5 ** (1 / 1.99)
        assert rep.worst_margin == pytest.approx(rhs - 1.0, abs=1e-12)
        assert rep.failures == 0

    def test_biased_eighth_over_epsilon_grid(self):
        f = biased_indicator(5, 1 / 8)
        g = from_truth_table(5, -f.values)  # normalize E[f] >= 0
        for m in range(1, 6):
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert level_m_bound_check(g, m, eps).failures == 0

    def test_majority3_top_level(self):
        assert level_m_bound_check(majority(3), 3, 0.5).failures == 0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            level_m_bound_check(from_truth_table(2, [0.5] * 4), 1, 0.5)
        with pytest.raises(ValueError):
            level_m_bound_check(biased_indicator(3, 0.25), 1, 0.5)  # E[f] < 0

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            level_m_bound_check(dictator(2, 1), 0, 0.5)

    @pytest.mark.parametrize(
        "values, m, eps, message",
        [
            ([1.0, -1.0, -1.0, -1.0], 1, 0.5, "normalize so that E[f] >= 0 first"),
            ([-1.0] * 4, 1, 0.5, "normalize so that E[f] >= 0 first"),
            ([0.5, -0.5, 0.5, 0.5], 1, 0.5, "normalize to ||f||_inf = 1 first"),
            ([1.0] * 4, 1, 0.5, "constant-one function excluded (delta = 0)"),
            ([1.0, -1.0, 1.0, -1.0], 3, 0.5, "need 1 <= m <= n"),
            ([1.0, -1.0, 1.0, -1.0], 1, 1.0, "need 0 < epsilon < 1"),
        ],
    )
    def test_each_refusal_names_its_cause(self, values, m, eps, message):
        # the suite reads f and -f alike; the public check still asks for E[f] >= 0
        with pytest.raises(ValueError, match=re.escape(message)):
            level_m_bound_check(from_truth_table(2, values), m, eps)


class TestBiasedRadiusLower:
    def test_majority3_frozen_bound(self):
        rep = biased_radius_lower_check(majority(3))
        bound = 1 / (5 * math.sqrt(3) * math.sqrt(math.log(2)))
        assert bound == pytest.approx(0.13869366920850973, abs=1e-15)
        assert rep.worst_margin == pytest.approx(0.5960716379833215 - bound, abs=1e-10)

    def test_indicator_flip_n2(self):
        rep = biased_radius_lower_check(extremal_indicator_flip(2))
        bound = 1 / (5 * math.sqrt(2) * math.sqrt(math.log(4)))
        assert bound == pytest.approx(0.12011224087864497, abs=1e-15)
        assert rep.worst_margin == pytest.approx(math.sqrt(2) - 1 - bound, abs=1e-10)

    def test_random_pm1_scan(self):
        for i in range(100):
            f = random_bounded_function(6, [41, i], "boolean_pm1")
            if float(np.ptp(f.values)) == 0.0:
                continue
            assert biased_radius_lower_check(f).failures == 0

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            biased_radius_lower_check(from_truth_table(2, [1.0] * 4))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_block_radii_equal_the_one_function_radius_bit_for_bit(self, n):
        # the suites' block path and the path of `radius --input`, so that a
        # suite's radius replays through the CLI
        fs = [random_bounded_function(n, seed, mode) for seed in range(8) for mode in RANDOM_MODES]
        t = inequalities._Tables(n, np.stack([f.values for f in fs]))
        block = radius._dense_radii(radius._level_sums(t.coeffs, np.abs), t.sup)
        one = [boolean_radius(level_profile(walsh_transform(f), sup_norm(f))).radius for f in fs]
        assert block.tobytes() == np.array(one).tobytes()


class TestWienerDegreeRatio:
    def test_parity_ratio(self):
        assert wiener_degree_ratio(parity(3, [1, 2])) == pytest.approx(1.0)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            wiener_degree_ratio(parity(3, []))


class TestRunSuite:
    def test_zero_failures_on_every_assertable_suite(self):
        for suite in ASSERTABLE_SUITES:
            rep = run_suite(suite, n_max=5, samples=15, seed=7)
            assert rep.failures == 0, suite
            assert rep.samples > 0

    def test_report_only_suites(self):
        rep = run_suite("bh", 4, 10, seed=1)
        assert rep.failures == 0 and rep.worst_margin >= 1.0
        rep = run_suite("cd-ratio", 4, 10, seed=1)
        assert rep.failures == 0 and math.isfinite(rep.worst_margin)

    def test_aggregate_all(self):
        rep = run_suite("all", 4, 5, seed=2)
        assert rep.suite == "all" and rep.failures == 0

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", 5, 5, seed=0)

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError, match="samples >= 1"):
            run_suite("wiener", 5, 0, seed=0)

    @pytest.mark.parametrize("name", ["n_max", "samples", "seed", "d"])
    def test_counts_and_seed_are_integers(self, name):
        # a float n_max reached numpy as a TypeError, and samples=True or seed=True ran as 1
        args = {"suite": "wiener", "n_max": 3, "samples": 2, "seed": 0, "d": 2}
        a, b = run_suite(**args | {name: float(args[name])}), run_suite(**args)
        assert (a.samples, a.failures, a.worst_margin) == (b.samples, b.failures, b.worst_margin)
        assert np.array_equal(a.witness.values, b.witness.values)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer here, got {bad!r}")):
                run_suite(**args | {name: bad})

    @pytest.mark.parametrize("suite", ASSERTABLE_SUITES + REPORT_SUITES)
    @pytest.mark.parametrize("seed", [4, 20240601])
    def test_matches_the_per_function_checks(self, suite, seed):
        rep = run_suite(suite, n_max=5, samples=6, seed=seed)
        samples, failures, worst, witness = reference_suite(suite, n_max=5, samples=6, seed=seed)
        assert (rep.samples, rep.failures) == (samples, failures)
        assert rep.worst_margin == pytest.approx(worst, rel=1e-12, abs=0.0)
        assert rep.witness.n == witness.n
        assert np.array_equal(rep.witness.values, witness.values)

    @pytest.mark.parametrize("suite", ["level-m", "all"])
    def test_one_butterfly_per_block(self, suite, monkeypatch):
        # level-m reads the block's own spectrum; it transformed a sign-flipped copy of each block
        calls = []
        walsh_rows = inequalities._walsh_rows
        monkeypatch.setattr(inequalities, "_walsh_rows", lambda values: calls.append(values.shape) or walsh_rows(values))
        run_suite(suite, 10, 10, seed=3)
        assert len(calls) == len(list(inequalities._blocks(10, 10, 3, 3)))

    def test_report_does_not_depend_on_the_block_size(self, monkeypatch):
        def reports():
            return [run_suite(s, 6, 5, seed=9) for s in ASSERTABLE_SUITES + REPORT_SUITES + ("all",)]

        whole = reports()
        monkeypatch.setattr(inequalities, "BLOCK_DOUBLES", 2**6)  # one to eight rows per block
        for a, b in zip(whole, reports()):
            assert (a.suite, a.samples, a.failures) == (b.suite, b.samples, b.failures)
            assert a.worst_margin == b.worst_margin
            assert np.array_equal(a.witness.values, b.witness.values)


def reference_checks(suite, f):
    """The reports one function contributes to a suite, from the public checks."""
    constant = float(np.ptp(f.values)) == 0.0
    d = max(degree(walsh_transform(f)), 1)
    if suite == "wiener":
        return [wiener_pair_check(f)]
    if suite == "split":
        return [split_pointwise_check(f)]
    if suite == "caratheodory":
        return [caratheodory_check(f)]
    if suite == "degree-l2":
        return [degree_l2_check(f, d)]
    if suite == "norm-comparison":
        return [norm_comparison_check(f, d)]
    if suite == "hyper":
        return [
            hypercontractivity_check(f, p, q, rho)
            for p, q in HYPER_GRID
            for rho in (0.0, 0.5 * hypercontractive_bound(p, q), hypercontractive_bound(p, q))
        ]
    if suite == "bh":
        return [] if sup_norm(f) == 0 else [InequalityReport("bh", 1, 0, bh_ratio(f, d), f)]
    if constant:
        return []
    if suite == "level-m":
        g = f.values / sup_norm(f)
        g = BooleanFunction(f.n, -g if np.mean(g) < 0 else g)
        return [level_m_bound_check(g, m, eps) for m in range(1, f.n + 1) for eps in EPSILON_GRID]
    if suite == "biased-radius":
        return [biased_radius_lower_check(f)]
    return [InequalityReport("cd-ratio", 1, 0, wiener_degree_ratio(f), f)]


def reference_suite(suite, n_max, samples, seed, d=3):
    """(samples, failures, worst margin, witness) merged item by item: every family
    for N <= 10, then every draw by (N, mode, index); the first worst item wins."""
    items = [f for N in range(1, min(n_max, 10) + 1) for _, f in family_functions(N)]
    items += [
        random_bounded_function(N, [seed, N, k, idx], mode, d=d)
        for N in range(2, n_max + 1)
        for k, mode in enumerate(RANDOM_MODES)
        for idx in range(samples)
    ]
    maximize = suite in REPORT_SUITES
    total = failures = 0
    worst = witness = None
    for f in items:
        reports = reference_checks(suite, f)
        if not reports:
            continue
        total += len(reports)
        failures += sum(r.failures for r in reports)
        margin = (max if maximize else min)(r.worst_margin for r in reports)
        if worst is None or (margin > worst if maximize else margin < worst):
            worst, witness = margin, f
    return total, failures, worst, witness


def test_one_function_entries_take_integers():
    # random_bounded_function and family_functions raised numpy's TypeError on 2.0, level_m_bound_check IndexError
    f = majority(3)
    assert level_m_bound_check(f, 1.0, 0.5) == level_m_bound_check(f, 1, 0.5)
    assert np.array_equal(random_bounded_function(2.0, 1, "low_degree", d=1.0).values,
                          random_bounded_function(2, 1, "low_degree", d=1).values)
    assert [(a, g.values.tolist()) for a, g in family_functions(3.0)] == [
        (a, g.values.tolist()) for a, g in family_functions(3)
    ]
    calls = [
        ("N", lambda v: random_bounded_function(v, 1, "boolean_pm1")),
        ("d", lambda v: random_bounded_function(2, 1, "low_degree", d=v)),
        ("N", family_functions),
        ("m", lambda v: level_m_bound_check(f, v, 0.5)),
    ]
    for name, call in calls:
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer here, got {bad!r}")):
                call(bad)


class TestSuiteTable:
    def test_read_only_and_in_verify_order(self):
        assert isinstance(SUITES, types.MappingProxyType)
        with pytest.raises(TypeError):
            SUITES["wiener"] = SUITES["split"]
        assert ASSERTABLE_SUITES + REPORT_SUITES == tuple(SUITES)
        assert REPORT_SUITES == ("bh", "cd-ratio")

    def test_each_name_is_written_once_in_the_table_and_once_in_its_check(self):
        # a suite is defined by its SUITES entry; the only other place that writes
        # its name is the report of its one-function check
        def strings(module):
            text = Path(module.__file__).read_text()
            return [n.value for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Constant) and n.value in SUITES]

        written = strings(inequalities)
        assert {name: written.count(name) for name in SUITES} == {
            name: 1 if name in REPORT_SUITES else 2 for name in SUITES
        }
        assert strings(cli) == []


def test_family_function_roster():
    names = [name for name, _ in family_functions(5)]
    assert "extremal" in names and "majority" in names and "constant" in names
    names4 = [name for name, _ in family_functions(4)]
    assert "threshold-1" in names4 and "threshold-3" in names4
    for _, f in family_functions(6):
        assert sup_norm(f) <= 1.0 + 1e-15
