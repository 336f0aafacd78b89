import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberadius.cube import (
    Spectrum,
    SymmetricSpectrum,
    from_truth_table,
    inverse_walsh,
    subset_levels,
    sup_norm,
    walsh_transform,
)
from cuberadius import radius as radius_module
from cuberadius.cube import _walsh_rows
from cuberadius.families import extremal_indicator_flip, majority
from cuberadius.inequalities import run_suite
from cuberadius.radius import (
    LOG_TINY,
    RESIDUAL_TOL,
    UNIT_RADIUS_TOL,
    ZONE_FLOOR,
    LevelProfile,
    _bisect,
    _cell_midpoint,
    _error_bound,
    _halving_depth,
    _level_sums,
    _log_ratio,
    _log_targets,
    _solve_reduced,
    _tail_sums,
    bn_radius_formula,
    boolean_radius,
    boolean_radius_symmetric,
    brute_force_bn_radius,
    class_radius,
    homogeneous_class_scan,
    level_profile,
    majorant,
)
from cuberadius.threshold import exact_radius

SQRT2M1 = math.sqrt(2.0) - 1.0


def profile_of(f):
    return level_profile(walsh_transform(f), sup_norm(f))


def exact_root(weights, target=Fraction(1), iters=220):
    """Independent oracle: bisection in exact rational arithmetic."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if sum(Fraction(w) * mid**m for m, w in enumerate(weights)) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


MAJ3_RADIUS = exact_root([0, Fraction(3, 2), 0, Fraction(1, 2)])

#: brute_force_bn_radius(N) as float.hex, pinned bit for bit.
BRUTE_RADIUS_HEX = {
    1: "0x1.0000000000000p+0",
    2: "0x1.a827999fcef32p-2",
    3: "0x1.0a28be635ca2ap-2",
    4: "0x1.837f0518db8a8p-3",
}


class TestLevelProfile:
    def test_indicator_flip_weights(self):
        p = profile_of(extremal_indicator_flip(2))
        assert np.allclose(p.weights, [0.5, 1.0, 0.5], atol=1e-15)
        assert p.sup_norm == 1.0

    def test_dictator_weights(self):
        p = profile_of(from_truth_table(3, [1, -1, 1, -1, 1, -1, 1, -1]))
        assert np.allclose(p.weights, [0, 1, 0, 0], atol=1e-15)

    def test_majority3_weights(self):
        p = profile_of(majority(3))
        assert np.allclose(p.weights, [0, 1.5, 0, 0.5], atol=1e-15)

    def test_rejects_negative_sup(self):
        with pytest.raises(ValueError):
            level_profile(walsh_transform(majority(3)), -1.0)

    @pytest.mark.parametrize("sup", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_sup(self, sup):
        with pytest.raises(ValueError, match="^sup norm must be a finite number$"):
            LevelProfile(1, np.array([0.0, 1.0]), sup)

    def test_rejects_nonfinite_or_negative_weights(self):
        for bad in (math.inf, math.nan, -0.5):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                LevelProfile(1, np.array([0.0, bad]), 1.0)
        # the log view is derived, never passed
        with pytest.raises(TypeError):
            LevelProfile(1, np.array([0.0, 1.0]), np.array([-math.inf, 0.0]), 1.0)
        with pytest.raises(TypeError):
            LevelProfile(1, np.array([0.0, 1.0]), 1.0, log_weights=np.array([-math.inf, 0.0]))
        p = LevelProfile(2, [0.0, 2.0, 0.5], 1.0)
        assert p.log_weights.tobytes() == np.array([-math.inf, math.log(2.0), math.log(0.5)]).tobytes()

    def test_rejects_overflowing_level_sums(self):
        # W_1 = 2e308 leaves double range; solved from inf this gave radius 1.0
        # with a NaN residual.  Scaled by 1e-308 the same function has radius 0.85.
        with pytest.raises(ValueError, match="scale the function first"):
            level_profile(Spectrum(2, [0.0, 1e308, 1e308, 0.0]), 1.7e308)
        scaled = boolean_radius(level_profile(Spectrum(2, [0.0, 1.0, 1.0, 0.0]), 1.7))
        assert scaled.radius == pytest.approx(0.85, rel=1e-15)

    def test_level_sums_match_unbuffered_add_bit_for_bit(self):
        n = 12
        s = walsh_transform(from_truth_table(n, np.random.default_rng(12).normal(size=2**n)))
        ref = np.zeros(n + 1)
        np.add.at(ref, subset_levels(n), np.abs(s.coeffs))
        assert level_profile(s, 1.0).weights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 9, 16, 17])
    def test_one_piece_matches_one_bincount_bit_for_bit(self, n):
        c = np.random.default_rng(n).normal(size=2**n)
        ref = np.bincount(subset_levels(n), weights=np.abs(c), minlength=n + 1)
        assert level_profile(Spectrum(n, c), 1.0).weights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_streamed_pieces_match_exact_level_sums(self, n):
        # each piece of 2^17 terms is summed in order, then the pieces: the
        # recursive-summation bound for that many positive terms
        c = np.abs(np.random.default_rng(n).normal(size=2**n))
        got = level_profile(Spectrum(n, c), 1.0).weights
        levels = subset_levels(n)
        bound = (2**17 + 2 ** (n - 17)) * np.finfo(float).eps
        for m in range(n + 1):
            exact = math.fsum(c[levels == m])
            assert abs(got[m] - exact) <= bound * exact, m


class TestMajorant:
    def test_at_zero_gives_constant_weight(self):
        p = profile_of(extremal_indicator_flip(3))
        assert majorant(p, 0.0) == pytest.approx(p.weights[0], abs=1e-15)
        w = np.array([0.25, 0.0, 0.75, 0.0])  # -inf log weights in the tail
        gaps = LevelProfile(3, w, 1.0)
        assert majorant(gaps, 0.0) == 0.25

    def test_indicator_flip_hits_sup_at_its_radius(self):
        p = profile_of(extremal_indicator_flip(2))
        assert majorant(p, SQRT2M1) == pytest.approx(1.0, abs=1e-12)

    def test_majority3_at_one(self):
        assert majorant(profile_of(majority(3)), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_log_domain_agrees_with_linear(self):
        w = np.array([0.0, 2.0, 3.0])
        small = LevelProfile(2, w, 1.0)
        big = LevelProfile(2, w * math.exp(701), 1.0)
        for rho in (0.1, 0.5, 1.0):
            assert majorant(big, rho) == pytest.approx(majorant(small, rho) * math.exp(701), rel=1e-12)
        # finite weights whose majorant leaves double range
        huge = LevelProfile(2, np.array([0.0, 1e308, 1e308]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert majorant(huge, 1.0) == math.inf

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            majorant(profile_of(majority(3)), -0.1)

    @pytest.mark.parametrize("rho", [math.nan, -math.inf])
    def test_rejects_nan_rho(self, rho):
        # NaN passed the sign check and came back as inf with a RuntimeWarning
        with pytest.raises(ValueError, match=f"^rho must be nonnegative, got {rho}$"):
            majorant(profile_of(majority(3)), rho)

    def test_strictly_increasing_iff_nonconstant(self):
        grid = np.linspace(0.0, 1.0, 25)
        p = profile_of(majority(3))
        vals = [majorant(p, r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        const = profile_of(from_truth_table(2, [0.3] * 4))
        assert len({majorant(const, r) for r in grid}) == 1


class TestBooleanRadius:
    def test_indicator_flip_n2(self):
        r = boolean_radius(profile_of(extremal_indicator_flip(2)))
        assert r.radius == pytest.approx(SQRT2M1, abs=1e-12)
        assert r.method == "bisection"

    def test_dictator_is_one(self):
        f = from_truth_table(1, [1, -1])
        assert boolean_radius(profile_of(f)).radius == 1.0

    def test_majority3_matches_exact_cubic_root(self):
        r = boolean_radius(profile_of(majority(3)))
        assert r.radius == pytest.approx(MAJ3_RADIUS, abs=1e-12)

    def test_constant_gets_infinite_sentinel(self):
        r = boolean_radius(profile_of(from_truth_table(2, [3.0] * 4)))
        assert r.radius == math.inf
        assert r.method == "closed_form"

    def test_zero_function_gets_infinite_sentinel(self):
        assert boolean_radius(profile_of(from_truth_table(2, [0.0] * 4))).radius == math.inf

    def test_rejects_constant_above_the_sup(self):
        # a constant row is checked as a nonconstant one is, not given the inf sentinel
        with pytest.raises(ValueError, match="^constant coefficient exceeds the sup norm; not a function profile$"):
            boolean_radius(LevelProfile(2, np.array([2.0, 0.0, 0.0]), 1.0))
        assert boolean_radius(LevelProfile(2, np.array([1.0, 0.0, 0.0]), 1.0)).radius == math.inf

    def test_rejects_weights_below_sup(self):
        p = LevelProfile(1, np.array([0.0, 0.5]), 1.0)
        with pytest.raises(ValueError):
            boolean_radius(p)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = from_truth_table(6, rng.normal(size=64))
            r = boolean_radius(profile_of(f))
            assert 0.0 < r.radius <= 1.0
            assert r.residual <= 1e-10 * max(1.0, sup_norm(f))
            p = profile_of(f)
            assert abs(majorant(p, r.radius) - p.sup_norm) <= 1e-10 * max(1.0, p.sup_norm)

    def test_radius_one_iff_weights_sum_to_sup(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = from_truth_table(5, rng.normal(size=32))
            p = profile_of(f)
            r = boolean_radius(p).radius
            tight = abs(p.weights.sum() - p.sup_norm) <= 1e-10 * p.sup_norm
            assert (r == 1.0) == tight

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=32)
        base = boolean_radius(profile_of(from_truth_table(5, f))).radius
        for c in (3.0, 1e-8, 2.0**520, -7.0):
            scaled = boolean_radius(profile_of(from_truth_table(5, c * f))).radius
            assert scaled == pytest.approx(base, rel=1e-12)


@st.composite
def reduced_rows(draw):
    """Rows (log W_1..log W_n, log target, sup) sharing one n <= 14: some levels
    zero, weights in [1e-3, 1e3], the target between 0 and sum_m W_m."""
    n = draw(st.integers(1, 14))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    rows = draw(st.lists(st.lists(weight, min_size=n + 1, max_size=n + 1), min_size=1, max_size=8))
    fractions = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(rows), max_size=len(rows)))
    w = np.array(rows)
    target = np.array(fractions) * w[:, 1:].sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(w[:, 1:]), np.log(target), w[:, 0] + target


class TestBatchedSolver:
    @given(reduced_rows())
    @settings(max_examples=60, deadline=None)
    def test_rows_solve_as_one_row_calls(self, drawn):
        log_tail, log_target, sup = drawn
        many = _solve_reduced(log_tail, log_target)
        ones = [_solve_reduced(log_tail[r : r + 1], log_target[r : r + 1]) for r in range(len(sup))]
        for k in range(3):
            assert many[k].tobytes() == np.concatenate([one[k] for one in ones]).tobytes()
        radius, residual, _ = many
        constant = np.all(log_tail == -math.inf, axis=1)
        assert np.all(np.isinf(radius[constant]))
        assert np.all((radius[~constant] > 0) & (radius[~constant] <= 1))
        assert np.all(residual <= RESIDUAL_TOL * np.maximum(1.0, sup))


def _log_tail_sums(log_tail, rho):
    """The former tail-sum evaluator: fresh arrays per call and ``exp`` of every term."""
    a = log_tail + np.arange(1.0, log_tail.shape[1] + 1.0) * np.log(rho)[:, None]
    top = np.max(a, axis=1)
    return top + np.log(np.sum(np.exp(a - top[:, None]), axis=1))


def _threshold_block(pairs):
    """The -inf-padded level logs of threshold rows, as threshold._radii_exact forms one block."""
    from cuberadius.families import canonical_alpha
    from cuberadius.threshold import _block_width, _level_logs, _tail_terms

    logs = [_level_logs(N, *_tail_terms(N, canonical_alpha(N, a))) for N, a in pairs]
    tail = np.full((len(logs), _block_width(max(map(len, logs)))), -math.inf)
    for r, row in enumerate(logs):
        tail[r, : len(row)] = row
    return tail


def _subnormal_band_block():
    """Dense log weights spread across the band where exp of a shifted term is
    subnormal or tiny, some levels zero."""
    rng = np.random.default_rng(7)
    tail = rng.uniform(-760.0, -680.0, size=(12, 200))
    tail[:, ::7] = -math.inf
    tail[:, 3] = 0.0
    tail[::3, 150] = 2.0
    return tail


def _rho_values(tail):
    """About 60 rho in (0, 1]: the midpoints a bisection visits on its way to
    the first row's root, then a grid."""
    root = float(_solve_reduced(tail[:1], np.zeros(1))[0][0])
    lo, hi, mids = 0.0, 1.0, []
    while len(mids) < 50:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = (mid, hi) if mid < root else (lo, mid)
    return mids + list(np.linspace(0.05, 1.0, 10))


class TestTailSums:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _threshold_block([(N, 0) for N in range(911, 990, 2)]),  # the majority-scan block
            lambda: _threshold_block([(N, a) for N in (1007, 1993) for a in (0, math.isqrt(N), N // 2)]),
            _subnormal_band_block,
        ],
        ids=["majority-911-989", "threshold-scan-1007-1993", "subnormal-band"],
    )
    def test_same_bits_as_the_former_evaluator(self, make):
        tail = make()
        sums = _tail_sums(tail)
        for value in _rho_values(tail):
            rho = np.full(tail.shape[0], value)
            assert sums(rho).tobytes() == _log_tail_sums(tail, rho).tobytes(), value
        roots = _solve_reduced(tail, np.zeros(tail.shape[0]))[0]
        assert sums(roots).tobytes() == _log_tail_sums(tail, roots).tobytes()

    def test_subnormal_band_is_exercised(self):
        tail = _subnormal_band_block()
        shifted = tail - tail.max(axis=1, keepdims=True)
        assert np.any((shifted > -745.0) & (shifted < LOG_TINY))  # exp of these is subnormal or tiny
        assert np.any(shifted < -746.0)  # and of these exactly 0

    def test_calls_do_not_alias(self):
        tail = _subnormal_band_block()
        sums = _tail_sums(tail)
        first = sums(np.full(tail.shape[0], 0.5))
        kept = first.copy()
        second = sums(np.full(tail.shape[0], 0.25))
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() and second.tobytes() != kept.tobytes()


def _plain_solve(log_tail, log_target):
    """Radius, residual and halvings of every row by a bisection from [0, 1]
    that evaluates each midpoint, as the solver did before its warm start.
    Only rows whose root lies below 1 (the bisected ones) are passed in."""
    sums = _tail_sums(log_tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, halvings = _bisect(lambda mid: sums(mid) < log_target, np.zeros(len(log_target)), np.ones(len(log_target)))
    at_rho, pos = np.zeros(rho.size), rho > 0
    at_rho[pos] = np.exp(_tail_sums(log_tail[pos])(rho[pos]))
    return rho, np.abs(at_rho - np.exp(log_target)), halvings


def _assert_plain_bits(log_tail, log_target):
    """_solve_reduced has the plain bisection's bytes on every bisected row."""
    live = np.flatnonzero(np.any(log_tail > -math.inf, axis=1))
    at_one = _tail_sums(log_tail[live])(np.ones(live.size))
    inner = live[at_one > log_target[live] + math.log1p(UNIT_RADIUS_TOL)]
    got = _solve_reduced(log_tail, log_target)
    want = _plain_solve(log_tail[inner], log_target[inner])
    for k in range(3):
        assert got[k][inner].tobytes() == want[k].tobytes()
    return inner.size


def _counting(monkeypatch):
    """Count the calls of every tail-sum evaluator built from here on, Newton steps included."""
    count = [0]

    def build(log_tail):
        sums = _tail_sums(log_tail)

        def counted(*args):
            count[0] += 1
            return sums(*args)

        return counted

    monkeypatch.setattr(radius_module, "_tail_sums", build)
    return count


def _rows(weights, targets):
    """(log W_1..log W_n, log target) of rows given as weight lists and targets."""
    width = max(map(len, weights))
    w = np.array([list(row) + [0.0] * (width - len(row)) for row in weights])
    with np.errstate(divide="ignore"):
        return np.log(w), np.log(np.array(targets, dtype=float))


class TestWarmStart:
    """The warm start decides midpoints outside a certified zone without evaluating
    them, so every radius, residual and halving count is the plain bisection's."""

    @given(reduced_rows())
    @settings(max_examples=60, deadline=None)
    def test_reduced_rows(self, drawn):
        log_tail, log_target, _ = drawn
        _assert_plain_bits(log_tail, log_target)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _threshold_block([(N, 0) for N in range(911, 990, 2)]),
            lambda: _threshold_block([(N, a) for N in (1007, 1993) for a in (0, math.isqrt(N), N // 2)]),
            _subnormal_band_block,
        ],
        ids=["majority-911-989", "threshold-scan-1007-1993", "subnormal-band"],
    )
    def test_tail_sum_blocks(self, make):
        tail = make()
        assert _assert_plain_bits(tail, np.zeros(tail.shape[0])) > 0

    def test_brute_force_profiles(self):
        points = 16
        ks = np.arange(2 ** (points - 1), dtype=np.uint64)
        table = 1.0 - 2.0 * ((ks[:, None] >> np.arange(points, dtype=np.uint64)) & 1)
        sums = np.unique(_level_sums(_walsh_rows(table), np.abs), axis=0)
        with np.errstate(divide="ignore"):
            # the other 5 profiles are constant or reach the sup norm at rho = 1
            assert _assert_plain_bits(np.log(sums[:, 1:]), _log_targets(sums[:, 0], 1.0)) == 167

    def test_dyadic_roots(self, monkeypatch):
        # rho + 2 rho^2 = 1 at 1/2, 2 rho + 8 rho^2 = 1 at 1/4, 8 rho + 64 rho^2 = 6 at 1/4 too, ...:
        # zones straddle the dyadic point, yet the rows start deep and keep their bits
        weights = [[1.0, 2.0], [2.0, 8.0], [8.0, 64.0], [0.0, 4.0], [1.0, 0.0, 8.0], [4.0, 4.0, 4.0]]
        targets = [1.0, 1.0, 6.0, 1.0, 1.5, 3.5]
        log_tail, log_target = _rows(weights, targets)
        assert _assert_plain_bits(log_tail, log_target) == len(weights)
        radius = _solve_reduced(log_tail, log_target)[0]
        assert np.all(np.abs(radius - [0.5, 0.25, 0.25, 0.5, 0.5, 0.5]) <= 1e-15)
        count = _counting(monkeypatch)
        _solve_reduced(log_tail, log_target)
        assert count[0] <= 25  # no row fell back to a bisection that evaluates every midpoint

    def test_constant_part_within_1e_12_of_the_sup(self):
        rng = np.random.default_rng(26)
        w = rng.uniform(0.0, 1.0, size=(20, 11))
        w[::4, 3:] = 0.0
        sup = w[:, 0] + rng.uniform(0.1, 1.0, size=20) * 1e-12
        with np.errstate(divide="ignore"):
            assert _assert_plain_bits(np.log(w[:, 1:]), _log_targets(w[:, 0], sup)) == 20

    def test_roots_near_0_and_near_1(self):
        rng = np.random.default_rng(27)
        w = rng.uniform(0.5, 2.0, size=(24, 8))
        total = w.sum(axis=1)
        fractions = np.concatenate([10.0 ** rng.uniform(-14, -8, 12), 1.0 - 10.0 ** rng.uniform(-9, -3, 12)])
        log_tail, log_target = np.log(w), np.log(fractions * total)
        assert _assert_plain_bits(log_tail, log_target) == 24
        radius = _solve_reduced(log_tail, log_target)[0]
        assert np.all(radius[:12] < 1e-6) and np.all(radius[12:] > 0.999)

    def test_uncertified_rows_share_a_block_with_certified_ones(self):
        # a root below ZONE_FLOOR is bisected from [0, 1]; its neighbours still start deep
        log_tail, log_target = _rows([[1.0, 1.0], [1.0, 2.0], [3.0]], [5e-324, 1.0, 1.0])
        assert _assert_plain_bits(log_tail, log_target) == 3
        assert _solve_reduced(log_tail, log_target)[0][0] < ZONE_FLOOR

    def test_evaluations_halved(self, monkeypatch):
        count = _counting(monkeypatch)
        for seed in (1, 20240601):
            count[0] = 0
            run_suite("all", 10, 10, seed)
            assert count[0] <= 369  # 739 by the plain bisection
        count[0] = 0
        assert exact_radius(24, 1).iterations == 55
        assert count[0] <= 25  # 57 by the plain bisection


class TestCells:
    def test_halving_depth(self):
        widths = np.array([1.0, 0.5, 0.75, 0.25 + 2.0**-54, 2.0**-52, 3.0 * 2.0**-70])
        assert _halving_depth(widths).tolist() == [0, 1, 0, 1, 52, 68]

    @pytest.mark.parametrize(
        "low, high, mid",
        [
            (0.3, 0.5, 0.375),  # the cell [1/4, 1/2] ends at the zone's top
            (0.49, 0.51, 0.5),  # straddles 1/2: the deepest cell is [0, 1]
            (0.26, 0.27, 0.265625),  # [17/64, 9/32]
            (0.0, 1.0, 0.5),
            (0.625 - 2.0**-50, 0.625 + 2.0**-50, 0.625),  # straddles 5/8: the cell [1/2, 3/4]
        ],
    )
    def test_cell_midpoint(self, low, high, mid):
        assert _cell_midpoint(np.array([low]), np.array([high])).tolist() == [mid]


class TestErrorBound:
    def test_bounds_the_evaluator_error(self):
        # each tail_sums value is within _error_bound of the exact log sum of its
        # double inputs, computed here in 60-digit decimals
        rng = np.random.default_rng(28)
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(60):
                n = int(rng.integers(1, 40))
                log_tail = rng.uniform(-50.0, 50.0, size=(1, n))
                log_tail[0, rng.random(n) < 0.3] = -math.inf
                log_tail[0, 0] = rng.uniform(-5.0, 5.0)
                rho = np.array([10.0 ** rng.uniform(-8, 0)]).clip(max=1.0)
                value, slope = _tail_sums(log_tail)(rho, True)
                u = Decimal(float(rho[0])).ln()
                exact = sum(
                    (Decimal(float(l)) + m * u).exp() for m, l in enumerate(log_tail[0], 1) if l > -math.inf
                ).ln()
                bound = _error_bound(np.sum(log_tail > -math.inf, axis=1))(value, slope, np.log(rho))[0]
                assert abs(Decimal(float(value[0])) - exact) <= Decimal(bound) / 2


def _max_form_log_ratio(p, q, shift):
    """_log_ratio in the max() form it had before its branch form: the oracle of its bits."""
    k = p.bit_length() - q.bit_length()
    return math.log((p << max(-k, 0)) / (q << max(k, 0))) + (k + shift) * math.log(2.0)


class TestLogRatio:
    def test_same_bits_as_the_max_form(self):
        import random

        rng = random.Random(25)
        draw = lambda: rng.randrange(1, 1 << rng.randint(1, 400))  # bit lengths 1..400
        triples = [(draw(), draw(), rng.randint(-10**5, 10**5)) for _ in range(100_000)]
        # equal lengths, powers of two, and quotients at the ends of (1/2, 2)
        big = 2**399
        triples += [(1, 1, 0), (big, 1, 0), (1, big, 0), (big, big - 1, -7), (big - 1, big, 7), (2 * big - 1, big, 0),
                    (big, 2 * big - 1, 0), (big + 1, 2 * big - 1, 10**5), (3, 2, -10**5)]
        bad = [t for t in triples if _log_ratio(*t).hex() != _max_form_log_ratio(*t).hex()]
        assert bad == []

    def test_value(self):
        assert _log_ratio(3, 4, 0) == math.log(0.75)
        assert _log_ratio(1, 1, -1074) == pytest.approx(math.log(5e-324), rel=1e-15)
        assert _log_ratio(10**300, 7, 50) == pytest.approx(300 * math.log(10) - math.log(7) + 50 * math.log(2), rel=1e-15)


class TestSymmetricSolver:
    def test_majority3_matches_dense_path(self):
        sym = SymmetricSpectrum(3, ["0", "1/2", "0", "-1/2"])
        r = boolean_radius_symmetric(sym, 1.0)
        assert r.radius == pytest.approx(MAJ3_RADIUS, abs=1e-12)

    def test_threshold_3_2_matches_dense_path(self):
        sym = SymmetricSpectrum(3, ["-3/4", "1/4", "1/4", "1/4"])
        dense = boolean_radius(profile_of(from_truth_table(3, [1, -1, -1, -1, -1, -1, -1, -1])))
        r = boolean_radius_symmetric(sym, 1.0)
        assert r.radius == pytest.approx(dense.radius, abs=1e-12)

    def test_parity_as_symmetric(self):
        sym = SymmetricSpectrum(4, ["0", "0", "0", "0", "1"])
        assert boolean_radius_symmetric(sym, 1.0).radius == 1.0

    def test_constant_symmetric(self):
        sym = SymmetricSpectrum(2, ["1", "0", "0"])
        for sup in (2.0, 1.0):  # sup - |g_hat(empty)| above and at 0
            r = boolean_radius_symmetric(sym, sup)
            assert (r.radius, r.residual, r.iterations, r.method) == (math.inf, 0.0, 0, "closed_form")

    def test_rejects_constant_part_at_or_above_the_sup(self):
        sym = SymmetricSpectrum(2, ["1/2", "1/4", "0"])
        above = "^constant coefficient exceeds the sup norm; not a function profile$"
        with pytest.raises(ValueError, match=above):
            boolean_radius_symmetric(sym, 0.25)
        with pytest.raises(ValueError, match="^constant part equals the sup norm on a nonconstant profile$"):
            boolean_radius_symmetric(sym, 0.5)
        # a constant above its sup is no function profile either
        with pytest.raises(ValueError, match=above):
            boolean_radius_symmetric(SymmetricSpectrum(2, ["1", "0", "0"]), 0.5)

    @pytest.mark.parametrize("sup", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_sup(self, sup):
        with pytest.raises(ValueError, match="^sup norm must be a finite number$"):
            boolean_radius_symmetric(SymmetricSpectrum(3, ["0", "1/2", "0", "-1/2"]), sup)

    def test_rejects_nonpositive_sup(self):
        for sup in (0.0, -1.0):
            with pytest.raises(ValueError, match="^sup norm must be positive$"):
                boolean_radius_symmetric(SymmetricSpectrum(3, ["0", "1/2", "0", "-1/2"]), sup)

    def test_zero_root_has_the_target_as_residual(self):
        # the reduced target 5e-324 is met only below the least subnormal: the
        # root is 0, S(0) = 0, and no log of 0 is taken on the way
        sym = SymmetricSpectrum(5, ["0", "3/8", "0", "-1/8", "0", "3/8"])  # majority of 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = boolean_radius_symmetric(sym, 5e-324)
        assert (r.radius, r.residual, r.method) == (0.0, 5e-324, "bisection")

    def test_residual_is_scaled_back_by_the_target(self):
        # the row is solved over t = sup - |g_hat(empty)|: doubling every
        # coefficient and the sup leaves the radius and doubles the residual
        sym = SymmetricSpectrum(4, ["1/8", "1/4", "-1/8", "1/16", "3/16"])
        twice = SymmetricSpectrum(4, [2 * c for c in sym.level_coeffs])
        r, r2 = boolean_radius_symmetric(sym, 0.75), boolean_radius_symmetric(twice, 1.5)
        assert r2.radius.hex() == r.radius.hex() and 0.0 < r.radius < 1.0
        assert r2.residual == 2.0 * r.residual

    def test_rational_spectra_agree_with_the_float_profile(self):
        # odd denominators and even numerators put powers of two on every side of
        # the exact level ratios; the float profile of the same weights is the reference
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            coeffs = [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 13))) for _ in range(n + 1)]
            weights = [math.comb(n, m) * abs(c) for m, c in enumerate(coeffs)]
            if not any(weights[1:]):
                continue
            sup = float(weights[0] + Fraction(int(rng.integers(1, 9)), 8) * sum(weights[1:]))
            got = boolean_radius_symmetric(SymmetricSpectrum(n, coeffs), sup)
            want = boolean_radius(LevelProfile(n, [float(w) for w in weights], sup))
            assert got.radius == pytest.approx(want.radius, rel=1e-13, abs=0.0), (coeffs, sup)

    def test_large_dimension_runs(self):
        n = 2001
        coeffs = ["0"] * (n + 1)
        coeffs[1] = "1/2001"  # sum of weights = 1 = sup: radius exactly 1
        sym = SymmetricSpectrum(n, coeffs)
        assert boolean_radius_symmetric(sym, 1.0).radius == 1.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_symmetric_functions_agree_with_dense_path(self, n):
        # dyadic level coefficients so both paths see identical numbers
        rng = np.random.default_rng(1000 + n)
        levels = rng.integers(-32, 33, size=n + 1) / 64.0
        coeffs = levels[subset_levels(n)]
        f = inverse_walsh(Spectrum(n, coeffs))
        dense = boolean_radius(profile_of(f))
        sym = SymmetricSpectrum(
            n, [Fraction(v).limit_denominator(64) for v in levels]
        )
        symr = boolean_radius_symmetric(sym, sup_norm(f))
        if math.isinf(dense.radius):
            assert math.isinf(symr.radius)
        else:
            assert symr.radius == pytest.approx(dense.radius, abs=1e-9)


class TestClassRadius:
    def test_dictator_and_parity(self):
        dic = profile_of(from_truth_table(2, [1, -1, 1, -1]))
        par = profile_of(from_truth_table(2, [1, -1, -1, 1]))
        assert class_radius([dic, par]) == 1.0

    def test_single_extremal(self):
        assert class_radius([profile_of(extremal_indicator_flip(2))]) == pytest.approx(SQRT2M1)

    def test_infinite_members_ignored(self):
        const = profile_of(from_truth_table(2, [2.0] * 4))
        maj = profile_of(majority(3))
        assert class_radius([const, maj]) == pytest.approx(MAJ3_RADIUS)
        assert class_radius([const]) == math.inf

    def test_monotone_under_enlargement(self):
        maj = profile_of(majority(3))
        ext = profile_of(extremal_indicator_flip(3))
        assert class_radius([maj, ext]) <= class_radius([maj])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            class_radius([])


class TestBnFormula:
    def test_small_values(self):
        assert bn_radius_formula(1) == 1.0
        assert bn_radius_formula(2) == pytest.approx(SQRT2M1, abs=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 4001, 10**6])
    def test_against_high_precision_oracle(self, N):
        # 2^(1/N) - 1 in doubles cancels (relative error 1e-11 at N = 10^6);
        # expm1(log 2 / N) keeps the full precision at every N
        import mpmath as mp

        with mp.workdps(40):
            want = mp.mpf(2) ** (mp.mpf(1) / N) - 1
            assert abs(bn_radius_formula(N) - want) <= 2e-16 * want

    def test_limit_n_times_radius(self):
        n = 1000
        assert n * bn_radius_formula(n) == pytest.approx(math.log(2), rel=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bn_radius_formula(0)


class TestBruteForce:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_formula_and_extremal_attains(self, N):
        r, minimizer = brute_force_bn_radius(N)
        assert r == pytest.approx(bn_radius_formula(N), abs=1e-10)
        ext = boolean_radius(profile_of(extremal_indicator_flip(N))).radius
        assert ext == pytest.approx(r, abs=1e-10)
        assert abs(boolean_radius(profile_of(minimizer)).radius - r) <= 1e-12
        assert r.hex() == BRUTE_RADIUS_HEX[N]
        # table index 1 (only entry 0 is -1) is the extremal indicator flip
        assert np.array_equal(minimizer.values, extremal_indicator_flip(N).values)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_half_of_the_tables_gives_the_full_enumeration(self, N):
        # the reference: all 2^(2^N) tables through one butterfly
        from cuberadius import cube, radius

        points = 2**N
        ks = np.arange(2**points, dtype=np.uint64)
        tables = 1.0 - 2.0 * ((ks[:, None] >> np.arange(points, dtype=np.uint64)[None, :]) & 1)
        sums = radius._level_sums(cube._fwht_inplace(tables.copy()) / points, np.abs)
        rows = sums.view(np.dtype((np.void, sums.itemsize * sums.shape[1])))[:, 0]
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        rho = radius._dense_radii(sums[first], 1.0)[inverse]
        i = int(np.argmin(rho))
        assert i < 2 ** (points - 1) and np.unique(rows[: 2 ** (points - 1)]).size == first.size
        r, minimizer = brute_force_bn_radius(N)
        assert r.hex() == float(rho[i]).hex()
        assert np.array_equal(minimizer.values, tables[i]) and minimizer.values.dtype == tables.dtype

    def test_transforms_half_tables_only(self, monkeypatch):
        # the 2^8 low and 2^7 high half-tables at N = 4, not the 2^15 full tables
        rows = []
        fwht = radius_module._fwht_inplace
        monkeypatch.setattr(radius_module, "_fwht_inplace", lambda a: rows.append(a.shape) or fwht(a))
        brute_force_bn_radius(4)
        assert rows == [(256, 8), (128, 8)]

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_bn_radius(5)


class TestHomogeneousScan:
    def test_level_one_is_exactly_one(self):
        assert homogeneous_class_scan(6, 1, trials=5, seed=0) == 1.0

    def test_top_level_is_one(self):
        assert homogeneous_class_scan(5, 5, trials=3, seed=0) == 1.0

    def test_n10_m2_estimate(self):
        got = homogeneous_class_scan(10, 2, trials=50, seed=3)
        ref = 10 ** 0.25 * math.comb(10, 2) ** -0.25
        assert got == pytest.approx(0.6146362971528592, abs=1e-12)  # frozen seeded value
        assert ref / 3 <= got <= 3 * ref

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            homogeneous_class_scan(5, 6, trials=1, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"need seed >= 0, got seed = -1"):
            homogeneous_class_scan(3, 2, trials=5, seed=-1)

    @pytest.mark.parametrize(
        "name, value", [("m", True), ("trials", 2.5), ("trials", True), ("seed", 0.5), ("seed", "0")]
    )
    def test_counts_and_seed_are_integers(self, name, value):
        # a float trials or seed reached numpy as a TypeError
        args = {"N": 4, "m": 1, "trials": 3, "seed": 0} | {name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer here, got {value!r}")):
            homogeneous_class_scan(**args)
        assert homogeneous_class_scan(4.0, 1.0, 3.0, 0.0) == homogeneous_class_scan(4, 1, 3, 0)


@pytest.mark.parametrize(
    "entry, args",
    [(bn_radius_formula, ()), (brute_force_bn_radius, ()), (homogeneous_class_scan, (1, 3, 0))],
    ids=lambda x: getattr(x, "__name__", None),
)
@pytest.mark.parametrize("N", [True, 2.5])
def test_n_is_checked_as_an_int(entry, args, N, monkeypatch):
    # bn_radius_formula(True) returned 1.0 and (2.5) 0.3195..., the scan ran True as N = 1,
    # and the brute force refused True only after its sweep
    monkeypatch.setattr(radius_module, "_fwht_inplace", lambda a: pytest.fail("swept"))
    with pytest.raises(ValueError, match=re.escape(f"N must be an integer here, got {N!r}")):
        entry(N, *args)
    monkeypatch.undo()
    got, want = entry(3.0, *args), entry(3, *args)
    if entry is brute_force_bn_radius:  # (radius, minimizer)
        got, want = got[0], want[0]
    assert repr(got) == repr(want)
