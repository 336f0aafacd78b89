import decimal
import functools
import itertools
import json
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cuberadius import threshold as threshold_module
from cuberadius.cube import SymmetricSpectrum, subset_levels, sup_norm, walsh_transform
from cuberadius.families import ThresholdSpec, canonical_alpha, threshold
from cuberadius.radius import (
    SCAN_BLOCK_DOUBLES,
    _block_width,
    _solve_reduced,
    boolean_radius,
    boolean_radius_symmetric,
    level_profile,
)
from cuberadius.threshold import (
    MAX_SPECTRUM_N,
    MAX_SYMMETRIC_N,
    MAX_TN_N,
    ThresholdReport,
    _dual_terms,
    _level_logs,
    _radii_exact,
    _tail_count,
    _tail_terms,
    branch_point,
    exact_radius,
    g_function,
    gamma_constant,
    i_integral,
    maj_identity_eval,
    majority_scan,
    mckay_residual,
    sandwich_check,
    tail_lower_bound_check,
    threshold_radius,
    threshold_scan,
    threshold_spectrum_exact,
    tn_lower_bound,
    y_function,
)

SQRT_HALF_PI = math.sqrt(math.pi / 2)


def valid_alphas(N):
    return range(1 - N % 2, N, 2)  # alpha >= 0 with N - alpha odd


def _krawtchouk(N, alpha):
    """Integer coefficients c_0..c_{N-1} of (1+z)^a (1-z)^b, as a list.

    (1 - z^2) P' = (alpha - (N-1) z) P gives c_0 = 1, c_1 = alpha and
    (k+1) c_{k+1} = alpha c_k - (N-k) c_{k-1}; every division is exact.
    """
    c = [1, alpha][:N]
    for k in range(1, N - 1):
        c.append((alpha * c[k] - (N - k) * c[k - 1]) // (k + 1))
    return c


def _binomial_row(n):
    row = [1] * (n + 1)
    for j in range(1, n + 1):
        row[j] = row[j - 1] * (n - j + 1) // j
    return row


def product_coeffs(N, alpha):
    """Oracle for the (1+z)^a (1-z)^b coefficients c_0..c_{N-1}.

    Convolution of signed binomial rows on the factorization
    (1-z^2)^min(a,b) (1+z)^alpha (resp. (1-z)^-alpha), independent of the
    three-term recurrence the implementation uses.
    """
    a = (N + alpha - 1) // 2
    b = (N - alpha - 1) // 2
    m = min(a, b)
    base = [0] * (2 * m + 1)
    for j, c in enumerate(_binomial_row(m)):
        base[2 * j] = c if j % 2 == 0 else -c
    if alpha == 0:
        out = base
    else:
        rem = _binomial_row(abs(alpha))
        if alpha < 0:
            rem = [c if j % 2 == 0 else -c for j, c in enumerate(rem)]
        out = [0] * (2 * m + abs(alpha) + 1)
        for i, bi in enumerate(base):
            if bi:
                for j, rj in enumerate(rem):
                    out[i + j] += bi * rj
    return (out + [0] * N)[:N]


class TestExactSpectrum:
    def test_majority3_levels(self):
        s = threshold_spectrum_exact(3, 0)
        assert s.level_coeffs == (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-1, 2))

    def test_psi_3_2_levels(self):
        s = threshold_spectrum_exact(3, 2)
        assert s.level_coeffs == (Fraction(-3, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_matches_dense_transform(self, N):
        lv = subset_levels(N)
        for alpha in valid_alphas(N):
            sym = threshold_spectrum_exact(N, alpha)
            dense = walsh_transform(threshold(ThresholdSpec(N, alpha))).coeffs
            for m in range(N + 1):
                level = dense[lv == m]
                assert np.max(np.abs(level - float(sym.level_coeffs[m]))) <= 1e-12

    def test_odd_majority_kills_even_levels(self):
        for N in (5, 9, 15):
            s = threshold_spectrum_exact(N, 0)
            for m in range(0, N + 1, 2):
                assert s.level_coeffs[m] == 0

    @pytest.mark.parametrize("N,alpha", [(41, 6), (101, 50), (240, -1), (351, 14)])
    def test_matches_recurrence_derivation(self, N, alpha):
        sym = threshold_spectrum_exact(N, alpha)
        b = (N - alpha - 1) // 2
        lead = math.comb(N - 1, b)
        c = product_coeffs(N, alpha)
        for n in range(1, N + 1):
            expected = Fraction(lead * c[n - 1], 2 ** (N - 1) * math.comb(N - 1, n - 1))
            assert sym.level_coeffs[n] == expected

    @staticmethod
    def _assert_lowest_terms_exact(N, alpha):
        """Every level is the Fraction the defining quotient normalises to, in lowest terms."""
        sym = threshold_spectrum_exact(N, alpha)
        b = (N - alpha - 1) // 2
        row = [1]  # binom(N-1, k); math.comb level by level would dominate at N = 4000
        for k in range(N - 1):
            row.append(row[-1] * (N - 1 - k) // (k + 1))
        lead = row[b]
        T = sum(row[m] + (row[m - 1] if m else 0) for m in range(b + 1))  # Pascal: binom(N, m)
        c = _krawtchouk(N, alpha)
        den = 2 ** (N - 1)
        expected = [Fraction(T, den) - 1] + [Fraction(lead * c[n - 1], den * row[n - 1]) for n in range(1, N + 1)]
        assert len(sym.level_coeffs) == N + 1
        for m, (got, want) in enumerate(zip(sym.level_coeffs, expected)):
            assert type(got) is Fraction, (N, alpha, m)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (N, alpha, m)
            assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1, (N, alpha, m)
            assert got == want and hash(got) == hash(want), (N, alpha, m)
            log_abs = math.log(abs(want.numerator)) - math.log(want.denominator) if want else -math.inf
            assert sym.log_abs[m].hex() == log_abs.hex(), (N, alpha, m)

    def test_lowest_terms_every_alpha_up_to_60(self):
        # every admissible alpha, -1 (even N) included
        for N in range(1, 61):
            for alpha in range(-1 + N % 2, N, 2):
                self._assert_lowest_terms_exact(N, alpha)

    def test_levels_are_dual_integers_over_a_power_of_two(self):
        # every admissible alpha, -1 (even N) included: each level is d_x / 2^(N-1)
        # with integer d_x, and Krawtchouk reciprocity lead c_x = binom(N-1, x) d_x holds
        for N in range(1, 61):
            for alpha in range(-1 + N % 2, N, 2):
                levels = threshold_spectrum_exact(N, alpha).level_coeffs
                dens = [f.denominator for f in levels]
                assert all(q & (q - 1) == 0 and q <= 2 ** (N - 1) for q in dens), (N, alpha)
                d = [f.numerator * (2 ** (N - 1) // f.denominator) for f in levels[1:]]
                lead = math.comb(N - 1, (N - alpha - 1) // 2)
                c = _krawtchouk(N, alpha)
                assert [lead * v for v in c] == [math.comb(N - 1, x) * v for x, v in enumerate(d)], (N, alpha)

    @pytest.mark.parametrize("N,alpha", [(3995, 1994), (4001, 2000), (4000, -1)])
    def test_lowest_terms_at_the_cap(self, N, alpha):
        self._assert_lowest_terms_exact(N, alpha)

    def test_decimal_run_has_the_digits_of_the_int_run(self):
        # the text path reads each numerator's digits from the Decimal run; at
        # (4001, 1998) the terms reach 4,000 bits and d_2000 is zero
        alpha, _, lead = _tail_terms(4001, 1998)
        with decimal.localcontext(threshold_module._EXACT):
            digits = [str(e) for e in _dual_terms(alpha, 4000, Decimal(lead))]
        ints = [str(d) for d in _dual_terms(alpha, 4000, lead)]
        assert len(digits) == 4001 and "0" in ints
        assert digits == ints

    def test_recurrence_matches_product_expansion(self):
        # every admissible alpha, -1 (even N) included: 10,200 pairs
        for N in range(1, 201):
            for alpha in range(-1 + N % 2, N, 2):
                assert _krawtchouk(N, alpha) == product_coeffs(N, alpha), (N, alpha)

    def test_empty_set_is_exact_tail(self):
        s = threshold_spectrum_exact(5, 2)
        tail = sum(math.comb(5, m) for m in range(0, 2))  # sums 5 and 3 beat alpha=2
        assert s.level_coeffs[0] == Fraction(2 * tail, 32) - 1

    def test_rejects_parity_violation(self):
        with pytest.raises(ValueError):
            threshold_spectrum_exact(4, 2)
        with pytest.raises(ValueError):
            threshold_spectrum_exact(3, 3)

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(ValueError):
            threshold_spectrum_exact(4003, 0)

    def test_spectrum_cap_is_its_own(self):
        # radii go to 100001; a spectrum stops at 4001, one past it under either parity
        assert MAX_SPECTRUM_N == 4001 and MAX_SYMMETRIC_N == 100001
        for N, alpha in [(4002, 1), (4002, -1)]:
            with pytest.raises(ValueError, match="need 1 <= N <= 4001"):
                threshold_spectrum_exact(N, alpha)


def _full_run_spectra(N, alpha):
    """threshold_spectrum_exact's pairs and threshold_spectrum_text's levels
    from the whole dual run d_0..d_n, with no mirror."""
    alpha, T, lead = _tail_terms(N, alpha)
    n, empty = N - 1, T - 2 ** (N - 1)
    pairs, text = [], []
    with decimal.localcontext(threshold_module._EXACT):
        decs = itertools.chain((Decimal(empty),), _dual_terms(alpha, n, Decimal(lead)))
        for d, e in zip(itertools.chain((empty,), _dual_terms(alpha, n, lead)), decs):
            u = min((d & -d).bit_length() - 1, n) if d else n
            pairs.append((d >> u, 1 << (n - u)))
            log = math.log(abs(d >> u)) - math.log(1 << (n - u)) if d else -math.inf
            text.append((str(e // (1 << u)), str(1 << (n - u)), log) if d else ("0", "1", -math.inf))
    return tuple(pairs), text


class TestKrawtchoukMirror:
    # d_x = K_b(x; n), the z^b coefficient of (1+z)^(n-x) (1-z)^x: z -> -z swaps
    # the factors, so d_(n-x) = (-1)^b d_x and the spectra run half the recurrence

    def test_dual_run_is_its_own_mirror(self):
        # every admissible alpha, -1 (even N) included
        for N in range(1, 121):
            for alpha in range(-1 + N % 2, N, 2):
                b = (N - alpha - 1) // 2
                d = list(_dual_terms(alpha, N - 1, math.comb(N - 1, b)))
                assert d[::-1] == [(-1) ** b * v for v in d], (N, alpha)

    @pytest.mark.parametrize("N,alpha", [(2, -1), (3, 0), (4, 1), (9, 4), (60, 13), (4001, 1998), (4000, -1)])
    def test_each_spectrum_runs_half_the_recurrence(self, N, alpha, monkeypatch):
        taken = []
        dual = threshold_module._dual_terms

        def counted(*args):  # a plain function, so each run gets its slot when it is made
            k = len(taken)
            taken.append(0)

            def run():
                for d in dual(*args):
                    taken[k] += 1
                    yield d

            return run()

        monkeypatch.setattr(threshold_module, "_dual_terms", counted)
        threshold_spectrum_exact(N, alpha)
        assert taken == [(N - 1) // 2 + 1]
        taken.clear()
        threshold_module.threshold_spectrum_text(N, alpha)
        assert taken == [(N - 1) // 2 + 1] * 2  # the int run and the Decimal run

    @pytest.mark.parametrize("N,alpha", [(1, 0), (2, -1), (3995, 1994), (4001, 1998), (4000, -1)])
    def test_both_outputs_equal_the_full_run(self, N, alpha):
        pairs, text = _full_run_spectra(N, alpha)
        s = threshold_spectrum_exact(N, alpha)
        assert s._pairs == pairs
        assert s.log_abs.tobytes() == np.array([v for _, _, v in text]).tobytes()
        assert threshold_module.threshold_spectrum_text(N, alpha) == text


class TestMajIdentity:
    def test_small_values(self):
        assert maj_identity_eval(3, 0.0) == pytest.approx(0.5)
        assert maj_identity_eval(3, 1.0) == pytest.approx(1.0)
        assert maj_identity_eval(1, 0.37) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [3, 7, 15, 25])
    def test_matches_spectrum_sum(self, N):
        s = threshold_spectrum_exact(N, 0)
        for r in (0.0, 0.3, 0.8, 1.0):
            total = sum(
                math.comb(N - 1, n - 1) * abs(float(s.level_coeffs[n])) * r ** (n - 1)
                for n in range(1, N + 1)
            )
            assert maj_identity_eval(N, r) == pytest.approx(total, rel=1e-9)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            maj_identity_eval(4, 0.5)

    @pytest.mark.parametrize("N", [1, 5, 100001])
    def test_rejects_nan(self, N):
        # NaN came back as inf
        with pytest.raises(ValueError, match="^need a number r, got nan$"):
            maj_identity_eval(N, math.nan)

    def test_cap(self):
        assert maj_identity_eval(100001, 0.0) == pytest.approx(math.comb(100000, 50000) / 2**100000, rel=1e-12)
        with pytest.raises(ValueError, match="need 1 <= N <= 100001"):
            maj_identity_eval(100003, 0.0)


class TestGFunction:
    def test_at_zero(self):
        assert g_function(9, 4, 0.0) == 1.0

    def test_alpha_zero_closed_form(self):
        for r in (0.1, 0.5, 1.0):
            assert g_function(3, 0, r) == pytest.approx(1 + r * r)
            assert g_function(11, 0, r) == pytest.approx((1 + r * r) ** 5, rel=1e-12)

    def test_n3_alpha0_at_one(self):
        assert g_function(3, 0, 1.0) == pytest.approx(2.0)

    def test_branch_continuity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            N = int(rng.integers(3, 800))
            alpha = float(rng.uniform(0.5, N - 1))
            ra = branch_point(N, alpha)
            a = (N + alpha - 1) / 2
            b = (N - alpha - 1) / 2
            lg1 = a * math.log1p(ra) + b * math.log1p(-ra)
            assert math.exp(lg1 - math.log(g_function(N, alpha, ra))) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_nondecreasing_and_at_least_one(self):
        for N, alpha in ((7, 2), (30, 11), (101, 50)):
            grid = np.linspace(0, 1, 1000)
            vals = [g_function(N, alpha, r) for r in grid]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
            assert min(vals) >= 1.0

    def test_supremum_oracle(self):
        # direct maximization of |1+zr|^a |1-zr|^b over the circle
        rng = np.random.default_rng(3)
        ts = np.linspace(-1.0, 1.0, 20001)
        for _ in range(12):
            N = int(rng.integers(3, 40))
            alpha = float(rng.uniform(0, N - 1))
            r = float(rng.uniform(0, 2.0))
            a = (N + alpha - 1) / 4
            b = (N - alpha - 1) / 4
            vals = (1 + r * r + 2 * r * ts) ** a * (1 + r * r - 2 * r * ts) ** b
            assert g_function(N, alpha, r) == pytest.approx(float(vals.max()), rel=1e-6)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            g_function(5, 2, -0.1)

    @pytest.mark.parametrize("alpha", [0, 2])
    def test_rejects_nan_r(self, alpha):
        with pytest.raises(ValueError, match="^need r >= 0, got nan$"):
            g_function(5, alpha, math.nan)

    @pytest.mark.parametrize("N", [2, 3, 5, 40])
    def test_alpha_n_minus_1_at_one(self, N):
        # b = 0: G(r) = (1 + r)^(N-1), and the b log term drops out at x = 1
        assert g_function(N, N - 1, 1.0) == pytest.approx(2.0 ** (N - 1), rel=1e-12)


class TestIIntegral:
    def test_zero_length(self):
        assert i_integral(9, 2, 0.0) == 0.0

    def test_dominates_rho(self):
        for N, alpha, rho in ((5, 2, 0.3), (31, 10, 0.05), (7, 0, 1.0)):
            assert i_integral(N, alpha, rho) >= rho

    def test_n3_alpha0_closed_form(self):
        for rho in (0.25, 0.7, 1.0):
            assert i_integral(3, 0, rho) == pytest.approx(rho + rho**3 / 3, rel=1e-10)

    def test_i_over_r_nondecreasing(self):
        for N, alpha in ((9, 4), (25, 0)):
            grid = np.linspace(0.05, 1.0, 60)
            vals = [i_integral(N, alpha, r) / r for r in grid]
            assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            i_integral(5, 2, -1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rejects_nan_and_infinite_rho(self, rho, monkeypatch):
        # both ran the quadrature to its evaluation cap before
        monkeypatch.setattr(threshold_module, "_g", lambda *a: pytest.fail("integrated"))
        with pytest.raises(ValueError, match=f"^need 0 <= rho < inf, got {rho}$"):
            i_integral(5, 0, rho)

    def test_alpha_n_minus_1_past_one(self):
        assert i_integral(5, 4, 1.5) == pytest.approx((2.5**5 - 1) / 5, rel=1e-10)


class TestYFunction:
    def test_at_zero(self):
        assert y_function(0.0) == y_function(0) == threshold_module.SQRT_HALF_PI

    def test_at_infinity_nan_and_far_out(self):
        assert y_function(math.inf) == 0.0
        assert math.isnan(y_function(math.nan))
        assert y_function(1e300) == 1e-300

    def test_against_mpmath_at_50_digits(self):
        import mpmath as mp

        switch = threshold_module.Y_SWITCH
        near = [switch + d for d in (-1e-9, -1e-12, -1e-15)] + [math.nextafter(switch, 0.0), switch]
        near += [switch + d for d in (1e-15, 1e-12, 1e-9)]
        xs = [k / 50 for k in range(5001)] + [150.0, 1e3, 1e5, 1e10] + near
        assert any(x < switch for x in near) and any(x > switch for x in near)
        with mp.workdps(50):
            worst = 0.0
            for x in xs:
                v = mp.mpf(x)
                exact = mp.sqrt(mp.pi / 2) * mp.exp(v * v / 2) * mp.erfc(v / mp.sqrt(2))
                worst = max(worst, float(abs(y_function(x) - exact) / exact))
        assert worst <= 1e-15

    def test_against_quadrature_oracle(self):
        for x in (0.3, 1.0, 2.5):
            tail, _ = quad(lambda t: math.exp(-t * t / 2), x, 60)
            assert y_function(x) == pytest.approx(math.exp(x * x / 2) * tail, rel=1e-11)

    def test_value_at_one(self):
        assert y_function(1.0) == pytest.approx(0.6556795424187984, abs=1e-12)

    def test_bounds_and_monotonicity(self):
        xs = np.linspace(0.01, 10, 100)
        prev = math.inf
        for x in xs:
            y = y_function(float(x))
            assert x / (1 + x * x) <= y <= 1 / x
            assert y < prev
            prev = y

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            y_function(-0.5)


class TestMcKay:
    def test_n3_alpha0_frozen_value(self):
        # direct evaluation: T=4, binom(2,1)=2, Y(1/sqrt3)
        expected = math.sqrt(3) * math.log(4 / (math.sqrt(3) * 2 * y_function(1 / math.sqrt(3))))
        assert mckay_residual(3, 0) == pytest.approx(expected, abs=1e-13)
        assert mckay_residual(3, 0) == pytest.approx(0.5622427867374797, abs=1e-12)

    @pytest.mark.parametrize("N,alpha", [(101, 0), (15, 4), (240, -1), (1001, 30), (2001, 1000)])
    def test_in_guaranteed_range(self, N, alpha):
        assert -1e-9 <= mckay_residual(N, alpha) <= SQRT_HALF_PI + 1e-9

    def test_rejects_parity_violation(self):
        with pytest.raises(ValueError):
            mckay_residual(6, 2)


class TestSandwich:
    @pytest.mark.parametrize("N,alpha", [(3, 0), (21, 0), (15, 8), (3, 2), (101, 50)])
    def test_holds(self, N, alpha):
        assert sandwich_check(N, alpha)

    def test_even_dimension_canonical_minus_one(self):
        # the middle term is the minority count; the raw tail T exceeds 2^(N-1) here
        for N in range(2, 61, 2):
            assert sandwich_check(N, -1), N


class TestThresholdRadius:
    def test_majority3_report(self):
        rep = threshold_radius(3, 0)
        assert isinstance(rep, ThresholdReport)
        assert rep.alpha == 0
        assert rep.radius == pytest.approx(0.5960716379833215, abs=1e-12)
        assert rep.ratio == pytest.approx(rep.radius * math.sqrt(3), abs=1e-12)
        assert rep.sandwich_ok

    @pytest.mark.parametrize("N,alpha", [(12, 3), (9, 2), (11, 0), (7, 5.5)])
    def test_agrees_with_dense_path(self, N, alpha):
        rep = threshold_radius(N, alpha)
        f = threshold(ThresholdSpec(N, alpha))
        dense = boolean_radius(level_profile(walsh_transform(f), sup_norm(f)))
        assert rep.radius == pytest.approx(dense.radius, abs=1e-9)

    def test_even_n_alpha_zero_goes_through_minus_one(self):
        rep = threshold_radius(8, 0)
        assert rep.alpha == -1
        f = threshold(ThresholdSpec(8, 0))
        dense = boolean_radius(level_profile(walsh_transform(f), sup_norm(f)))
        assert rep.radius == pytest.approx(dense.radius, abs=1e-9)

    @pytest.mark.parametrize("N,alpha", [(3, 0), (8, 0), (101, 50), (2001, 1000)])
    def test_report_matches_public_checks(self, N, alpha):
        rep = threshold_radius(N, alpha)
        assert rep.mckay_c == mckay_residual(N, rep.alpha)
        assert rep.sandwich_ok == sandwich_check(N, rep.alpha)

    def test_canonicalization_is_internal(self):
        # alpha = 3 on N = 9 has even N - alpha; representative is 2
        rep = threshold_radius(9, 3)
        assert rep.alpha == canonical_alpha(9, 3) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_radius(5, 5)

    def test_exact_entries_take_only_integer_alphas(self):
        # an integral float is that integer; the strict entries never canonicalize
        a, b = exact_radius(9, 2.0), exact_radius(9, 2)
        assert (a.radius.hex(), a.residual.hex(), a.iterations) == (b.radius.hex(), b.residual.hex(), b.iterations)
        for call in (lambda: exact_radius(9, 2.5), lambda: mckay_residual(9, "2")):
            with pytest.raises(ValueError, match="alpha must be an integer here"):
                call()

    def test_alpha_n_minus_1(self):
        # psi_{2,1} is x_1 AND x_2 up to sign: radius sqrt(2) - 1, and its
        # sandwich evaluates G at r = 1 and beyond
        rep = threshold_radius(2, 1)
        assert rep.alpha == 1
        assert rep.radius == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.sandwich_ok and sandwich_check(2, 1)


class TestGamma:
    def test_defining_integral(self):
        g = gamma_constant()
        val, _ = quad(lambda u: math.exp(u * u / 2), 0, g, epsabs=1e-14, epsrel=1e-13)
        assert abs(val - SQRT_HALF_PI) <= 1e-12

    def test_bracket(self):
        v1, _ = quad(lambda u: math.exp(u * u / 2), 0, 1.0)
        v11, _ = quad(lambda u: math.exp(u * u / 2), 0, 1.1)
        assert v1 < SQRT_HALF_PI < v11
        assert 1.0 < gamma_constant() < 1.1

    def test_frozen_value(self):
        assert gamma_constant() == pytest.approx(1.0347760379849298, abs=1e-13)
        assert gamma_constant().hex() == "0x1.08e71519d4690p+0"


class TestMajorityScan:
    def test_small_rows(self):
        rows = majority_scan([1, 3])
        gam = gamma_constant()
        assert rows[0] == (1, 1.0, 1.0, pytest.approx(1.0 / gam))
        n, rho, rsq, ratio = rows[1]
        assert (n, rsq) == (3, pytest.approx(1.0324263619379155, abs=1e-12))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            majority_scan([2])

    def test_walked_leads_equal_a_comb_per_row(self, monkeypatch):
        # unsorted, gapped and repeated N: every row as a math.comb per row gives it, and
        # math.comb only for the first N and after a gap, a repeat or a step down
        Ns = [1001, 5, 99999, 7, 9, 11, 101, 101, 103, 3]
        gam = gamma_constant()
        want = [(N, rho, rho * math.sqrt(N), rho * math.sqrt(N) / gam)
                for N, rho in zip(Ns, _radii_exact([(N, *_tail_terms(N, 0)) for N in Ns])[0])]
        calls, comb = [], math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        assert repr(majority_scan(Ns)) == repr(want)
        assert [n + 1 for n, _ in calls] == [1001, 5, 99999, 7, 101, 101, 3]

    def test_threshold_scan_walks_the_majority_rows_alone(self, monkeypatch):
        # alpha 0 beside other alphas, repeats (dropped, even as 0.5) and steps down: every report as a
        # math.comb per row gives it, and only a majority row two past a majority row skips math.comb
        pairs = [(1001, 0), (1003, 0), (1005, 0), (1005, 4), (1007, 0), (1009, 0), (1009, 0.5), (1007, 0),
                 (7, 0), (9, 2), (11, 0), (13, 0), (13, 0), (15, 0), (201, 0), (201, 100)]
        keys = list(dict.fromkeys(threshold_module.canonical_pair(N, a) for N, a in pairs))
        rows = [(N, a, _tail_count(N, (N - a - 1) // 2, lead), lead)
                for N, a in keys for lead in [math.comb(N - 1, (N - a - 1) // 2)]]
        radii = _radii_exact(rows)[0]
        want = [ThresholdReport(N, a, rho, rho * (a + math.sqrt(N)), threshold_module._mckay(N, a, T, lead),
                                threshold_module._sandwich_ok(N, a, rho, T, lead), y_function((a + 1) / math.sqrt(N)))
                for (N, a, T, lead), rho in zip(rows, radii)]
        calls, comb = [], math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        assert repr(threshold_scan(pairs)) == repr(want)
        assert [n + 1 for n, _ in calls] == [1001, 1005, 1007, 7, 9, 11, 201, 201]

    @pytest.mark.parametrize("N", [5.5, 7.9, "7", math.nan])
    def test_rejects_non_integral_n(self, N, monkeypatch):
        # int() truncated 5.5 and 7.9 to the rows of N = 5 and 7
        monkeypatch.setattr(threshold_module, "_radii_exact", lambda rows: pytest.fail("solved"))
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer here, got {N!r}")):
            majority_scan([3, N])

    def test_integral_float_n_is_its_int(self):
        assert majority_scan([7.0, np.int64(9)]) == majority_scan([7, 9])
        assert [type(row[0]) for row in majority_scan([7.0])] == [int]

    def test_a_range_past_the_cap_stops_at_its_first_n_over_it(self):
        # every N of the range was taken into a list before the first check: 78 MB traced here
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need 1 <= N <= 100001"):
                majority_scan(range(1, 4000001, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "entry, args",
    [
        (threshold_radius, (2,)),
        (exact_radius, (2,)),
        (mckay_residual, (2,)),
        (sandwich_check, (2,)),
        (threshold_spectrum_exact, (2,)),
        (threshold_module.threshold_spectrum_text, (2,)),
        (threshold_module.canonical_pair, (2.0,)),
        (maj_identity_eval, (0.3,)),
        (tail_lower_bound_check, (1,)),
        (tn_lower_bound, ()),
        (branch_point, (2,)),
        (g_function, (2, 0.3)),
        (i_integral, (2, 1.5)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_n_is_checked_as_an_int(entry, args):
    # an integral float N is its int; any other N is refused before it reaches an integer step
    N = 5 if entry is maj_identity_eval else 7
    assert repr(entry(float(N), *args)) == repr(entry(N, *args))
    with pytest.raises(ValueError, match=re.escape(f"N must be an integer here, got {N + 0.5!r}")):
        entry(N + 0.5, *args)


@pytest.mark.parametrize(
    "entry, args",
    [
        (threshold_radius, (0,)),
        (exact_radius, (0,)),
        (mckay_residual, (0,)),
        (sandwich_check, (0,)),
        (threshold_spectrum_exact, (0,)),
        (threshold_module.threshold_spectrum_text, (0,)),
        (threshold_module.canonical_pair, (0.0,)),
        (maj_identity_eval, (0.3,)),
        (tail_lower_bound_check, (0,)),
        (tn_lower_bound, ()),
        (lambda N: threshold_scan([(N, 0)]), ()),
        (lambda N: majority_scan([N]), ()),
        (branch_point, (0,)),
        (g_function, (0, 0.3)),
        (i_integral, (0, 0.5)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_n_refuses_a_bool(entry, args):
    # True == 1, so each entry returned its N = 1 result
    with pytest.raises(ValueError, match=re.escape("N must be an integer here, got True")):
        entry(True, *args)


@pytest.mark.parametrize("alpha", [4.5, math.inf, math.nan, -1])
@pytest.mark.parametrize("entry, args", [(branch_point, ()), (g_function, (0.3,)), (i_integral, (1.5,))])
def test_g_entries_check_alpha(entry, args, alpha):
    # branch_point(5, 4.5) and (5, inf) raised "math domain error", (5, nan) gave nan and (5, -1) gave 0.0
    with pytest.raises(ValueError, match=re.escape("need 0 <= alpha <= N - 1")):
        entry(5, alpha, *args)


@pytest.mark.parametrize("entry, args", [(branch_point, (2,)), (g_function, (2, 0.3)), (i_integral, (2, 1.5))])
def test_g_entries_check_n_once_per_call(entry, args, monkeypatch):
    # i_integral evaluates G a few hundred times; N is checked at the entry, not per evaluation
    calls = []
    check_n = threshold_module._check_n
    monkeypatch.setattr(threshold_module, "_check_n", lambda *a: calls.append(a) or check_n(*a))
    entry(7, *args)
    assert calls == [(7, MAX_SYMMETRIC_N)]
    with pytest.raises(ValueError, match=re.escape("N must be an integer here, got 2.5")):
        entry(2.5, *args)


class TestTailLowerBound:
    def test_majority3(self):
        # tail is exactly 1/2 >= e^{-6}
        assert tail_lower_bound_check(3, 0)

    def test_heavy_bias(self):
        assert tail_lower_bound_check(100, 50)
        assert tail_lower_bound_check(400, 200.5)

    def test_rejects_alpha_at_n(self):
        with pytest.raises(ValueError):
            tail_lower_bound_check(5, 5)

    def test_capped_at_100001_before_alpha(self, monkeypatch):
        monkeypatch.setattr(threshold_module, "_tail_count", lambda *args: pytest.fail("counted before the cap"))
        for N, alpha in ((100002, 0), (400001, 0), (400001, 400001)):
            with pytest.raises(ValueError, match="need 1 <= N <= 100001"):
                tail_lower_bound_check(N, alpha)

    @pytest.mark.parametrize("N", [2, 3, 10, 31])
    def test_exhaustive_small(self, N):
        for tenths in range(0, 10 * N, 7):
            assert tail_lower_bound_check(N, tenths / 10.0)


class TestTnRoot:
    def test_n1_closed_form(self):
        assert tn_lower_bound(1) == 1.0

    def test_n2_quadratic(self):
        # cos(pi/4) t + cos(pi/3) t^2 = 1/2
        c1, c2 = math.cos(math.pi / 4), math.cos(math.pi / 3)
        root = (-c1 + math.sqrt(c1 * c1 + 4 * c2 * 0.5)) / (2 * c2)
        assert tn_lower_bound(2) == pytest.approx(root, abs=1e-12)
        assert tn_lower_bound(2) == pytest.approx(0.5176380902050415, abs=1e-12)

    @pytest.mark.parametrize("N", [*range(1, 61), 100, 1000])
    def test_within_3_ulp_of_a_40_digit_root(self, N):
        # the root of the exact equation, each cos at 40 digits, the sum by Horner
        import mpmath as mp

        with mp.workdps(40):
            coefs = [mp.cos(mp.pi / (N // k + 2)) for k in range(1, N + 1)]

            def f(t):
                acc = mp.mpf(0)
                for c in reversed(coefs):
                    acc = (acc + c) * t
                return acc

            lo, hi = mp.mpf(0), mp.mpf(1)
            for _ in range(140):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0.5 else (lo, mid)
            got = tn_lower_bound(N)
            assert abs(got - (lo + hi) / 2) <= 3 * math.ulp(got)

    def test_decreasing_toward_a_third(self):
        vals = [tn_lower_bound(N) for N in range(1, 51)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)
        assert vals[-1] == pytest.approx(1 / 3, abs=2e-3)

    @pytest.mark.parametrize("N", [*range(1, 40), 9973, 10**5, MAX_TN_N])
    def test_row_equals_one_cosine_per_k(self, N, monkeypatch):
        # one cosine per distinct floor(N/k), spread over its run of k: the row a cosine per k gives, bit for bit
        rows, solve = [], threshold_module._one_radius
        monkeypatch.setattr(threshold_module, "_one_radius", lambda logs, target: rows.append(logs) or solve(logs, target))
        tn_lower_bound(N)
        want = np.log([math.cos(math.pi / (N // k + 2)) for k in range(1, N + 1)])
        assert rows[0].tobytes() == want.tobytes()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tn_lower_bound(0)

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(ValueError):
            tn_lower_bound(MAX_TN_N + 1)


def test_symmetric_and_dense_solvers_agree_on_thresholds():
    for N in range(2, 13):
        for alpha in valid_alphas(N):
            sym = boolean_radius_symmetric(threshold_spectrum_exact(N, alpha), 1.0)
            f = threshold(ThresholdSpec(N, alpha))
            dense = boolean_radius(level_profile(walsh_transform(f), sup_norm(f)))
            assert sym.radius == pytest.approx(dense.radius, abs=1e-9)


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_biased_threshold_radius_against_high_precision_oracle():
    # N=101, alpha=50 is the ill-conditioned case: the constant coefficient
    # sits within 1e-6 of the sup norm, so a naive P(rho)=sup bisection in
    # doubles is off by ~3e-9 relative.  Re-solve with 60-digit arithmetic.
    import mpmath as mp

    N, alpha = 101, 50
    spec = threshold_spectrum_exact(N, alpha).level_coeffs
    with mp.workdps(60):
        target = mp.mpf(1) - abs(mp.mpf(spec[0].numerator)) / spec[0].denominator
        terms = [
            (n, math.comb(N, n) * mp.mpf(abs(spec[n].numerator)) / spec[n].denominator)
            for n in range(1, N + 1)
            if spec[n] != 0
        ]

        def s(rho):
            return mp.fsum(w * rho**n for n, w in terms)

        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(220):
            mid = (lo + hi) / 2
            if s(mid) < target:
                lo = mid
            else:
                hi = mid
        oracle = float((lo + hi) / 2)
    got = boolean_radius_symmetric(threshold_spectrum_exact(N, alpha), 1.0).radius
    assert got == pytest.approx(oracle, rel=1e-13)


def test_radius_upper_bound_via_y_function():
    # rho <= e^{2/sqrt(N)} Y((alpha+1)/sqrt(N)) / sqrt(N): the one direction
    # of the Y-estimate whose constant is explicit
    for N in list(range(3, 26)) + [101, 501]:
        for alpha in valid_alphas(N):
            rep = threshold_radius(N, alpha)
            cap = math.exp(2 / math.sqrt(N)) * rep.y_value / math.sqrt(N)
            assert rep.radius <= cap * (1 + 1e-12), (N, alpha)


@functools.cache
def _oracle_root(N, alpha):
    """The radius of psi_{N,alpha} from the exact rational spectrum, bisected
    with 60-digit arithmetic: an mpf far inside one ulp of the true root.
    Cached: several tests ask for the same pairs."""
    import mpmath as mp

    spec = threshold_spectrum_exact(N, alpha).level_coeffs
    with mp.workdps(60):
        mpq = lambda q: mp.mpf(q.numerator) / q.denominator
        target = mpq(1 - abs(spec[0]))  # formed exactly: below 1e-100 at (2001, 1000)
        weights = [math.comb(N, n) * abs(mpq(spec[n])) for n in range(1, N + 1)]

        def s(rho):
            acc = mp.mpf(0)
            for w in reversed(weights):
                acc = (acc + w) * rho
            return acc

        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if s(mid) < target else (lo, mid)
        return (lo + hi) / 2


@pytest.mark.parametrize("N,alpha", [(101, 50), (1001, 0), (2001, 44), (2001, 1000)])
def test_threshold_radius_against_high_precision_oracle(N, alpha):
    # the integer level weights threshold_radius solves from, re-solved with
    # 60-digit arithmetic from the exact rational spectrum
    oracle = float(_oracle_root(N, alpha))
    assert threshold_radius(N, alpha).radius == pytest.approx(oracle, rel=1e-12)


def test_symmetric_solver_has_the_bits_of_the_exact_radius():
    # every canonical pair with 2 <= N <= 60, the pairs with N < 120 whose level
    # quotients a factorisation with the odd factor m on the other side splits
    # across a power of two, and two cap points: radius and halvings
    pairs = [(N, a) for N in range(2, 61) for a in range(N % 2 - 1, N, 2)]
    pairs += [(63, 34), (66, 43), (75, 26), (79, 28), (84, 27), (92, 75), (100, 51), (106, -1), (106, 1), (106, 3)]
    pairs += [(4001, 1998), (4000, -1)]
    # exact_radius is the one-row _radii_exact, whose bits a batch keeps (TestBatchedSolve)
    radii, _, halvings = _radii_exact([(N, *_tail_terms(N, a)) for N, a in pairs])
    differ = []
    for (N, a), want, want_halvings in zip(pairs, radii, halvings):
        got = boolean_radius_symmetric(threshold_spectrum_exact(N, a), 1.0)
        assert abs(got.radius - want) <= 10 * math.ulp(want), (N, a)
        if (got.radius.hex(), got.iterations) != (want.hex(), want_halvings):
            differ.append((N, a))
    assert differ == []


@pytest.mark.parametrize("N,alpha", [(101, 50), (101, 98), (106, 101), (114, 21), (2001, 1000)])
def test_symmetric_solver_against_high_precision_oracle(N, alpha):
    # the float level logs this solver built gave 15 to 1,377 ulp here
    import mpmath as mp

    rho = boolean_radius_symmetric(threshold_spectrum_exact(N, alpha), 1.0).radius
    assert abs(mp.mpf(rho) - _oracle_root(N, alpha)) <= 10 * math.ulp(rho)


@pytest.mark.parametrize("N", range(1, 25))
def test_cli_radius_against_the_oracle_and_the_dense_profile(N, capsys):
    # every canonical pair: the bits threshold_radius reports, within 4 ulp of
    # the 60-digit root, and (n <= 16) within 12 ulp of the dense table's radius
    import mpmath as mp

    from cuberadius.cli import main

    for a in range(N % 2 - 1, N, 2):  # alpha = 0 stands for the formal -1 of even N
        assert main(["radius", "--family", "threshold", "--n", str(N), "--alpha", str(max(a, 0))]) == 0
        rho = float(json.loads(capsys.readouterr().out)["radius"])
        assert rho.hex() == threshold_radius(N, max(a, 0)).radius.hex(), (N, a)
        assert abs(mp.mpf(rho) - _oracle_root(N, a)) <= 4 * math.ulp(rho), (N, a)
        if N <= 16:
            dense = boolean_radius(level_profile(walsh_transform(threshold(ThresholdSpec(N, max(a, 0)))), 1.0))
            assert abs(rho - dense.radius) <= 12 * math.ulp(rho), (N, a)


def _full_width_log_ratio(p, q):
    """log(p / q) from the whole integers: one correctly rounded quotient in (1/2, 2) plus k log 2."""
    k = p.bit_length() - q.bit_length()
    return math.log((p << max(-k, 0)) / (q << max(k, 0))) + k * math.log(2.0)


def _full_width_level_logs(N, alpha, T, lead):
    """Oracle for _level_logs: every level ratio formed from its full N-bit products."""
    num, den = N * lead, min(T, 2**N - T)
    c = _krawtchouk(N, alpha)
    return [_full_width_log_ratio(num * abs(ck), (k + 1) * den) if ck else -math.inf for k, ck in enumerate(c)]


class TestLevelLogs:
    @staticmethod
    def _assert_heads_match(N, alpha):
        # the kept prefix, bit for bit; the levels past the cut are TestParsevalCut's
        row = (N, *_tail_terms(N, alpha))
        kept = _level_logs(*row)
        assert 1 <= len(kept) <= N, (N, alpha)
        assert _same_bits(np.array(kept), np.array(_full_width_level_logs(*row)[: len(kept)])), (N, alpha)

    @pytest.mark.parametrize("first", range(1, 201, 40))
    def test_every_admissible_alpha_up_to_200(self, first):
        # heads start dropping bits at N of about 125
        for N in range(first, first + 40):
            for alpha in range(N % 2 - 1, N, 2):
                self._assert_heads_match(N, alpha)

    @pytest.mark.parametrize("N,alpha", [(1993, 996), (3995, 1994), (4001, 0), (4000, -1)])
    def test_near_the_cap(self, N, alpha):
        self._assert_heads_match(N, alpha)


def _one_row_solve(logs):
    """(radius, residual, halvings) of one row of level logs solved on its own,
    padded with -inf to its own _block_width, as _radii_exact pads a block."""
    tail = np.full((1, _block_width(len(logs))), -math.inf)
    tail[0, : len(logs)] = logs
    return tuple(part[0].item() for part in _solve_reduced(tail, np.zeros(1)))


def _one_row_radius(logs):
    return _one_row_solve(logs)[0]


@pytest.fixture
def recorded_level_logs(monkeypatch):
    """(N, alpha) -> the level logs of that row, as _radii_exact last formed them."""
    logs, level_logs = {}, threshold_module._level_logs

    def record(N, alpha, *rest):
        logs[N, alpha] = level_logs(N, alpha, *rest)
        return logs[N, alpha]

    monkeypatch.setattr(threshold_module, "_level_logs", record)
    return logs


class TestBatchedSolve:
    @pytest.mark.parametrize("N,alphas", [(200, range(-1, 200, 2)), (1001, range(0, 201, 2))])
    def test_equal_widths_equal_one_row_solves(self, N, alphas):
        rows = [(N, *_tail_terms(N, a)) for a in alphas]
        want = [_one_row_radius(_level_logs(*row)).hex() for row in rows]
        assert [rho.hex() for rho in _radii_exact(rows)[0]] == want

    @pytest.mark.parametrize("first,last", [(1, 299), (301, 1001), (1003, 2999), (3001, 4001)])
    def test_majority_scan_equals_one_row_solves(self, recorded_level_logs, first, last):
        # the four ranges tile every odd N in 1..4001
        rows = majority_scan(range(first, last + 1, 2))
        assert len(rows) > SCAN_BLOCK_DOUBLES // _block_width(last)  # several padded blocks
        want = [_one_row_radius(recorded_level_logs[N, 0]).hex() for N, *_ in rows]
        assert [rho.hex() for _, rho, *_ in rows] == want

    def test_threshold_scan_equals_one_row_solves(self, recorded_level_logs):
        # every canonical pair up to N = 40 among wider rows, shuffled so that
        # blocks mix widths: radius, residual and halvings as solved alone
        import random

        pairs = [(N, a) for N in range(1, 41) for a in range(N % 2 - 1, N, 2)]
        for N in range(41, 2002, 97):  # alpha -1 or 0, near sqrt(N), and N - 1
            pairs += [(N, a - 1 + (N - a) % 2) for a in (0, math.isqrt(N), N)]
        random.Random(0).shuffle(pairs)
        rows = [(N, *_tail_terms(N, a)) for N, a in pairs]
        got = repr(list(zip(*_radii_exact(rows))))  # repr tells every bit of a float apart
        assert len(rows) > SCAN_BLOCK_DOUBLES // _block_width(2001)  # several padded blocks
        assert got == repr([_one_row_solve(recorded_level_logs[N, a]) for N, a in pairs])


def _cut_pairs():
    """Every canonical pair with N <= 60, and five alphas (-1 or 0, isqrt N,
    N // 2, N - 2, N - 1, canonicalized) at five larger N."""
    pairs = [(N, a) for N in range(1, 61) for a in range(N % 2 - 1, N, 2)]
    for N in (301, 1001, 2001, 4000, 4001):
        pairs += [(N, canonical_alpha(N, a)) for a in (0, math.isqrt(N), N // 2, N - 2, N - 1)]
    return list(dict.fromkeys(pairs))


class TestParsevalCut:
    """_level_logs keeps a row's levels only up to the Parseval cut; the radii
    must keep the bits of the full rows of N levels padded to _block_width(N)."""

    @pytest.fixture(scope="class")
    def cut_rows(self):
        pairs = _cut_pairs()
        rows = [(N, *_tail_terms(N, a)) for N, a in pairs]
        return pairs, rows, [_full_width_level_logs(*row) for row in rows]

    @staticmethod
    def _full_solves(rows, full):
        """(radius, residual, halvings) of each full-width row, solved in blocks
        of rows that share _block_width(N), each row padded to exactly that width."""
        out = [None] * len(rows)
        widths = [_block_width(row[0]) for row in rows]
        for width in set(widths):
            idx = [i for i, w in enumerate(widths) if w == width]
            tail = np.full((len(idx), width), -math.inf)
            for r, i in enumerate(idx):
                tail[r, : rows[i][0]] = full[i]
            for r, solved in enumerate(zip(*(part.tolist() for part in _solve_reduced(tail, np.zeros(len(idx)))))):
                out[idx[r]] = solved
        return out

    def test_cut_rows_solve_to_the_bits_of_full_rows(self, cut_rows):
        import random

        pairs, rows, full = cut_rows
        want = repr(self._full_solves(rows, full))  # repr tells every bit of a float apart
        order = list(range(len(rows)))
        random.Random(1).shuffle(order)  # blocks mix widths
        scanned = list(zip(*_radii_exact([rows[i] for i in order])))
        assert repr([scanned[order.index(i)] for i in range(len(rows))]) == want
        one_row = [tuple(part[0] for part in _radii_exact([row])) for row in rows]
        assert repr(one_row) == want

    def test_skipped_levels_are_below_the_level_one_term(self, cut_rows):
        # at every rho <= rho_c = min(1, e^-L1) a skipped term is e^-700 below
        # the level-1 term, so the tail-sum evaluator sets it to exactly 0
        pairs, rows, full = cut_rows
        for (N, a), row, logs in zip(pairs, rows, full):
            kept = len(_level_logs(*row))
            log_rho = min(0.0, -logs[0])
            bound = logs[0] + log_rho - 700.0
            assert all(logs[m - 1] + m * log_rho < bound for m in range(kept + 1, N + 1)), (N, a)
            assert N < 1001 or kept < N // 2, (N, a, kept)  # the cut keeps a few hundred levels


def _full_row_symmetric(s, sup):
    """(radius, residual, halvings) of boolean_radius_symmetric's row with all n
    levels, padded to _block_width(n): each level log over t = sup - |g_hat(empty)|
    from the whole products n den(t) binom(n - 1, m - 1) |p_m| and m q_m num(t)."""
    coeffs = s.level_coeffs
    t = Fraction(sup) - abs(coeffs[0])
    tail = np.full((1, _block_width(s.n)), -math.inf)
    for m, (binom, c) in enumerate(zip(_binomial_row(s.n - 1), coeffs[1:]), 1):
        if c:
            p, q = s.n * t.denominator * binom * abs(c.numerator), m * c.denominator * t.numerator
            tail[0, m - 1] = _full_width_log_ratio(p, q)
    radius, residual, halvings = _solve_reduced(tail, np.zeros(1))
    return radius[0].item(), residual[0].item() * float(t), halvings[0].item()


class TestSymmetricParsevalCut:
    """boolean_radius_symmetric keeps a row's levels only up to the Parseval cut
    at its lowest nonzero level, with ||g||_2 bounded from the level pairs; the
    radius, residual and halvings must keep the bits of the full row."""

    @pytest.fixture
    def cuts(self, monkeypatch):
        """The n and M of every cut that boolean_radius_symmetric makes."""
        import cuberadius.radius as radius_module

        made, cut = [], radius_module._parseval_cut
        monkeypatch.setattr(radius_module, "_parseval_cut", lambda n, *rest: made.append((n, cut(n, *rest))) or made[-1][1])
        return made

    @staticmethod
    def _assert_full_row_bits(s, sup):
        got = boolean_radius_symmetric(s, sup)
        assert repr((got.radius, got.residual, got.iterations)) == repr(_full_row_symmetric(s, sup))
        return got

    def test_threshold_spectra(self, cuts):
        for N, a in _cut_pairs():
            self._assert_full_row_bits(threshold_spectrum_exact(N, a), 1.0)
        assert sum(M < n for n, M in cuts) == 25  # every pair at the five larger N

    def test_random_rational_spectra(self, cuts):
        # levels up to about 1/sqrt(binom(n, m)) in size with odd and even denominators,
        # from a lowest nonzero level j, and targets from W_j down to 2^-300 W_j
        import random

        rng = random.Random(28)
        for _ in range(200):
            n = rng.randint(1, 400)
            j = min(rng.choice((1, 1, 2, 3, rng.randint(1, n))), n)
            coeffs = [Fraction(0)] * (n + 1)
            for m in range(j, n + 1):
                if m == j or rng.random() < 0.6:
                    size = math.isqrt(math.comb(n, m)) * rng.randint(1, 999) + rng.randint(1, 99)
                    coeffs[m] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), size)
            coeffs[0] = Fraction(rng.randint(-8, 8), 16) if rng.random() < 0.5 else Fraction(0)
            w_j = math.comb(n, j) * abs(coeffs[j])
            sup = float(abs(coeffs[0]) + w_j / 2 ** rng.randint(0, 30 if coeffs[0] else 300))
            if Fraction(sup) > abs(coeffs[0]):  # else the target rounded away
                self._assert_full_row_bits(SymmetricSpectrum(n, coeffs), sup)
        assert sum(M < n for n, M in cuts) >= 100  # 121 of the 200 rows are cut

    def test_a_sup_below_the_two_norm_does_not_shorten_the_row(self, cuts):
        # sup is not checked against g: with ||g||_2 bounded by this sup the cut
        # would keep 77 levels and give the radius 3.0517578124999986e-05
        n = 200
        coeffs = [0] * (n + 1)
        coeffs[1], coeffs[100] = Fraction(1, 200), Fraction(2**1520, math.comb(200, 100))
        got = self._assert_full_row_bits(SymmetricSpectrum(n, coeffs), 2.0**-15)
        assert got.radius == 2.3591152481136412e-05
        assert len(cuts) == 1 and cuts[0][1] >= 100  # level 100 is kept

    @pytest.mark.parametrize("sup", [1.0, 0.5, 2.0**-40])
    def test_a_high_lowest_level_is_kept(self, cuts, sup):
        # the cut starts at the lowest nonzero level j = 2000: at m = 1 the bound
        # 0.5 log binom(n, m) + (m - j) log_rho - log_lead is far below -CUT_NATS
        n = 4000
        coeffs = [0] * (n + 1)
        coeffs[2000] = Fraction(1, math.comb(n, 2000))
        got = self._assert_full_row_bits(SymmetricSpectrum(n, coeffs), sup)
        assert got.radius == (1.0 if sup == 1.0 else pytest.approx(sup ** (1 / 2000), rel=1e-15))
        assert cuts[0][1] >= 2000


class TestTailCount:
    def test_every_upto_to_160(self):
        for N in range(1, 161):
            want = 0
            for upto in range(-1, N + 1):
                want += math.comb(N, upto) if upto >= 0 else 0
                assert _tail_count(N, upto) == want, (N, upto)
                if 0 <= upto < N:  # the start of the walk from the middle from lead = binom(N - 1, upto)
                    assert _tail_count(N, upto, math.comb(N - 1, upto)) == want, (N, upto)

    @pytest.mark.parametrize("N", [4000, 4001])
    def test_near_the_spectrum_cap(self, N):
        sums = [0]
        for term in _binomial_row(N):
            sums.append(sums[-1] + term)
        for upto in (0, 1, 2, N // 4 - 1, N // 4, N // 4 + 1, N // 2 - 1, N // 2, N // 2 + 1, N - 2, N - 1):
            want = sums[upto + 1]
            assert _tail_count(N, upto) == want, (N, upto)
            assert _tail_count(N, upto, math.comb(N - 1, upto)) == want, (N, upto)

    def test_majority_takes_no_walk_and_no_second_comb(self, monkeypatch):
        calls, comb = [], math.comb
        monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
        assert _tail_terms(4001, 0) == (0, 2**4000, comb(4000, 2000))
        assert calls == [(4000, 2000)]  # lead only
        assert _tail_count(4001, 2000) == 2**4000 and len(calls) == 1
        calls.clear()
        assert _tail_terms(4000, -1)[1] == 2**3999 + comb(3999, 2000)  # the tie counted once
        assert _tail_terms(4001, 2)[1] == 2**4000 - comb(4001, 2000)
        assert calls == [(3999, 2000), (4000, 1999)]  # lead only: the walk starts from it


class TestThresholdScan:
    def test_canonical_pairs_once_in_input_order(self):
        reports = threshold_scan([(9, 3), (8, 0), (9, 2), (9, 2.5), (8, 1), (8, 0)])
        assert [(r.n, r.alpha) for r in reports] == [(9, 2), (8, -1), (8, 1)]
        assert reports == [threshold_radius(N, a) for N, a in [(9, 2), (8, 0), (8, 1)]]
        assert threshold_scan([]) == []

    def test_every_cap_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(threshold_module, "_radii_exact", lambda rows: pytest.fail("solved before the caps"))
        with pytest.raises(ValueError, match="need 1 <= N <= 100001"):
            threshold_scan([(11, 0), (100002, 0)])

    def test_radii_are_capped_at_100001(self, monkeypatch):
        monkeypatch.setattr(threshold_module, "_radii_exact", lambda rows: pytest.fail("solved before the caps"))
        for call in (lambda: threshold_radius(100002, 0), lambda: majority_scan([3, 100003]),
                     lambda: mckay_residual(100002, 1), lambda: sandwich_check(100003, 0)):
            with pytest.raises(ValueError, match="need 1 <= N <= 100001"):
                call()
