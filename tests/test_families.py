import math
import re

import numpy as np
import pytest

from cuberadius.cube import MAX_DENSE_N, expectation, inverse_walsh, sup_norm, walsh_transform
from cuberadius.families import (
    SALEM_ZYGMUND_FACTOR,
    ThresholdSpec,
    biased_indicator,
    canonical_alpha,
    dictator,
    extremal_indicator_flip,
    majority,
    parity,
    random_sign_homogeneous,
    threshold,
    threshold_top,
)
from cuberadius.radius import bn_radius_formula, boolean_radius, level_profile



def test_the_package_threshold_is_the_module():
    # the package's name threshold is the submodule; the constructor is families.threshold
    import cuberadius
    import cuberadius.families

    assert cuberadius.threshold.__name__ == "cuberadius.threshold" and cuberadius.threshold.exact_radius
    assert cuberadius.families.threshold is threshold and callable(threshold)

def _edge_alphas(N):
    """Admissible alphas at the level boundaries: each integer and its float
    neighbours, the midpoints, and the extremes near 0 and N."""
    below = [math.nextafter(k, -math.inf) for k in range(1, N)]
    above = [math.nextafter(k, math.inf) for k in range(N)]
    return [1e-300, N - 1e-9] + list(range(N)) + below + above + [k + 0.5 for k in range(N)]


def radius_of(f):
    return boolean_radius(level_profile(walsh_transform(f), sup_norm(f))).radius


class TestExtremalIndicatorFlip:
    def test_n1_is_negated_dictator(self):
        f = extremal_indicator_flip(1)
        assert list(f.values) == [-1.0, 1.0]

    def test_spectrum_closed_form(self):
        for N in (1, 2, 3, 6):
            c = walsh_transform(extremal_indicator_flip(N)).coeffs
            assert c[0] == pytest.approx(1.0 - 2.0 ** (1 - N), abs=1e-15)
            assert np.allclose(c[1:], -(2.0 ** (1 - N)), atol=1e-15)

    @pytest.mark.parametrize("N", range(1, 11))
    def test_attains_the_class_radius(self, N):
        assert radius_of(extremal_indicator_flip(N)) == pytest.approx(
            bn_radius_formula(N), abs=1e-10
        )


class TestDictatorParity:
    def test_dictator_single_coefficient(self):
        c = walsh_transform(dictator(3, 2)).coeffs
        assert c[0b010] == pytest.approx(1.0)
        assert np.abs(c).sum() == pytest.approx(1.0)

    def test_parity_all_ones_point(self):
        f = parity(3, [1, 2, 3])
        assert f.values[0] == 1.0
        c = walsh_transform(f).coeffs
        assert c[0b111] == pytest.approx(1.0)

    def test_empty_parity_is_constant_one(self):
        assert np.all(parity(3, []).values == 1.0)

    def test_rejects_bad_coordinate(self):
        with pytest.raises(ValueError):
            dictator(3, 4)
        with pytest.raises(ValueError):
            parity(3, [0])

    @pytest.mark.parametrize("build", [lambda N: dictator(N, 1), lambda N: parity(N, [1])])
    def test_dimension_checked_before_allocating(self, build):
        with pytest.raises(ValueError, match="capped at n <= 24"):
            build(64)


class TestThreshold:
    def test_majority3_equals_threshold_at_zero(self):
        assert np.array_equal(threshold(ThresholdSpec(3, 0)).values, majority(3).values)

    def test_psi_3_2_point_values(self):
        f = threshold(ThresholdSpec(3, 2))
        assert f.values[0b000] == 1.0  # sum 3
        assert f.values[0b100] == -1.0  # sum 1

    def test_sign_zero_is_plus_one(self):
        f = threshold(ThresholdSpec(4, 2))
        assert f.values[0b0001] == 1.0  # sum 2, sign(0) = +1
        f0 = threshold(ThresholdSpec(4, 0))
        assert f0.values[0b0011] == 1.0  # sum 0, sign(0) = +1

    def test_odd_majority_is_balanced(self):
        assert expectation(threshold(ThresholdSpec(3, 0))) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ThresholdSpec(3, 3)
        with pytest.raises(ValueError):
            ThresholdSpec(3, -0.5)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_expectation_matches_binomial_tail(self, N):
        for alpha in [a / 2 for a in range(0, 2 * N - 1)]:
            f = threshold(ThresholdSpec(N, alpha))
            # 2 sigma(sum > alpha) - 1 with sign(0) = +1 counts sum >= alpha
            tail = sum(math.comb(N, m) for m in range(N + 1) if N - 2 * m >= alpha)
            assert expectation(f) == pytest.approx(2.0 * tail / 2**N - 1.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_level_signs_match_the_float_definition(self, N):
        sums = N - 2.0 * np.bitwise_count(np.arange(2**N, dtype=np.uint32))
        for alpha in _edge_alphas(N):
            want = np.where(sums - alpha >= 0, 1.0, -1.0)
            assert threshold(ThresholdSpec(N, alpha)).values.tobytes() == want.tobytes(), alpha

    @pytest.mark.parametrize("N", range(1, MAX_DENSE_N + 1))
    def test_top_level_matches_the_float_rule(self, N):
        # the last m with n - 2 m - alpha >= 0 in doubles, without a table
        for alpha in _edge_alphas(N):
            want = int(np.count_nonzero(N - 2.0 * np.arange(N + 1) - alpha >= 0)) - 1
            assert threshold_top(ThresholdSpec(N, alpha)) == want, alpha


class TestCanonicalAlpha:
    def test_odd_parity_is_fixed(self):
        assert canonical_alpha(3, 0) == 0

    def test_fractional_alpha(self):
        assert canonical_alpha(5, 1.5) == 2

    def test_boundary_alpha_steps_down(self):
        # integer alpha of the sum parity: the table includes sum == alpha,
        # so the strict representative sits one BELOW alpha
        assert canonical_alpha(4, 2) == 1
        assert canonical_alpha(5, 1) == 0

    def test_even_n_alpha_zero_has_no_nonnegative_representative(self):
        assert canonical_alpha(4, 0) == -1

    @pytest.mark.parametrize("N", range(1, 13))
    def test_table_equality_oracle(self, N):
        for tenths in range(0, 10 * N):
            alpha = tenths / 10.0
            a = canonical_alpha(N, alpha)
            assert (N - a) % 2 == 1
            assert abs(alpha - a) <= 1.0
            t = threshold(ThresholdSpec(N, alpha)).values
            if a >= 0:
                assert np.array_equal(t, threshold(ThresholdSpec(N, a)).values)
            else:
                # alpha = 0 on even N: no sum lies in (-1, 0), so the table is
                # that of the formal threshold -1 and of alpha = 0 itself
                assert alpha == 0.0 and N % 2 == 0
                assert np.array_equal(t, threshold(ThresholdSpec(N, 0)).values)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_alpha(4, 4)


class TestMajority:
    def test_majority1_is_dictator(self):
        assert np.array_equal(majority(1).values, dictator(1, 1).values)

    def test_majority3_spectrum_levels(self):
        c = walsh_transform(majority(3)).coeffs
        assert np.allclose(c[[1, 2, 4]], 0.5, atol=1e-15)
        assert c[7] == pytest.approx(-0.5, abs=1e-15)

    def test_balanced(self):
        for N in (1, 3, 5, 7):
            assert expectation(majority(N)) == 0.0

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            majority(4)


class TestRandomSignHomogeneous:
    def test_level_one_sup_is_coefficient_sum(self):
        f, ok = random_sign_homogeneous(5, 1, np.ones(5), seed=1)
        assert sup_norm(f) == pytest.approx(5.0)
        assert ok  # bound 6 sqrt(log 2) * 5 * sqrt(5) holds trivially

    def test_top_level_sup_is_coefficient(self):
        f, ok = random_sign_homogeneous(4, 4, [2.0], seed=0)
        assert sup_norm(f) == pytest.approx(2.0)
        assert ok

    def test_some_seed_meets_bound_at_n8_m2(self):
        hits = 0
        for seed in range(20):
            _, ok = random_sign_homogeneous(8, 2, np.ones(math.comb(8, 2)), seed=seed)
            hits += ok
        assert hits >= 1

    def test_deterministic_per_seed(self):
        f1, _ = random_sign_homogeneous(6, 2, np.ones(15), seed=9)
        f2, _ = random_sign_homogeneous(6, 2, np.ones(15), seed=9)
        assert np.array_equal(f1.values, f2.values)

    def test_bound_factor_value(self):
        assert SALEM_ZYGMUND_FACTOR == pytest.approx(6.0 * math.sqrt(math.log(2.0)))

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            random_sign_homogeneous(5, 2, np.ones(9), seed=0)


class TestBiasedIndicator:
    def test_expectation(self):
        f = biased_indicator(2, 0.25)
        assert expectation(f) == pytest.approx(-0.5)

    def test_empty_coefficient_is_exact(self):
        for N, lam in ((3, 0.25), (4, 1 / 16), (5, 0.5)):
            c0 = walsh_transform(biased_indicator(N, lam)).coeffs[0]
            assert abs(c0) == pytest.approx(abs(2 * lam - 1), abs=1e-15)

    def test_mean_absolute_deviation(self):
        lam = 0.25
        f = biased_indicator(4, lam)
        dev = float(np.mean(np.abs(f.values - expectation(f))))
        assert dev == pytest.approx(4 * lam * (1 - lam), abs=1e-12)

    def test_half_lambda_on_one_variable(self):
        f = biased_indicator(1, 0.5)
        assert expectation(f) == 0.0

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            biased_indicator(3, 0.3)
        with pytest.raises(ValueError):
            biased_indicator(3, 0.6)


@pytest.mark.parametrize(
    "f",
    [
        extremal_indicator_flip(4),
        dictator(4, 2),
        parity(4, [1, 3]),
        threshold(ThresholdSpec(4, 1)),
        majority(5),
        biased_indicator(4, 0.25),
    ],
    ids=["extremal", "dictator", "parity", "threshold", "majority", "biased"],
)
def test_constructors_round_trip_and_parseval(f):
    s = walsh_transform(f)
    back = inverse_walsh(s)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    assert float(np.sum(s.coeffs**2)) == pytest.approx(
        float(np.mean(f.values**2)), rel=1e-10
    )


def test_integer_parameters():
    # a float N or m reached numpy's shape arguments as a TypeError, and True ran as 1
    assert np.array_equal(extremal_indicator_flip(3.0).values, extremal_indicator_flip(3).values)
    assert np.array_equal(biased_indicator(3.0, 0.25).values, biased_indicator(3, 0.25).values)
    g, h = random_sign_homogeneous(3.0, 1.0, [1.0] * 3, 0), random_sign_homogeneous(3, 1, [1.0] * 3, 0)
    assert np.array_equal(g[0].values, h[0].values) and g[1] == h[1]
    calls = [
        ("N", lambda v: extremal_indicator_flip(v)),
        ("N", lambda v: biased_indicator(v, 0.25)),
        ("N", lambda v: random_sign_homogeneous(v, 1, [1.0] * 3, 0)),
        ("m", lambda v: random_sign_homogeneous(3, v, [1.0] * 3, 0)),
    ]
    for name, call in calls:
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer here, got {bad!r}")):
                call(bad)
