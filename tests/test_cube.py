import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberadius import cube
from cuberadius.cube import (
    NAIVE_MAX_N,
    BooleanFunction,
    Spectrum,
    SymmetricSpectrum,
    degree,
    expectation,
    from_truth_table,
    homogeneous_part,
    inverse_walsh,
    noise_operator,
    p_norm,
    subset_levels,
    sup_norm,
    walsh_transform,
    walsh_transform_naive,
)
from cuberadius.families import majority

MAJ3 = [1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0]


def single_pass_fwht(a):
    """The one-pass stage loop: the oracle the cache-blocked butterfly must
    match bit for bit."""
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (-1, 2 * h))
        x = b[..., :h].copy()
        y = b[..., h:].copy()
        b[..., :h] = x + y
        b[..., h:] = x - y
        h *= 2
    return a


def tables(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=2**n,
            max_size=2**n,
        ).map(lambda v: from_truth_table(n, v))
    )


class TestFromTruthTable:
    def test_dictator_convention(self):
        f = from_truth_table(1, [1, -1])
        s = walsh_transform(f)
        assert np.allclose(s.coeffs, [0, 1])

    def test_parity_convention(self):
        f = from_truth_table(2, [1, -1, -1, 1])
        assert np.allclose(walsh_transform(f).coeffs, [0, 0, 0, 1])

    def test_indicator_flip_sits_at_index_zero(self):
        # all-ones point is index 0
        f = from_truth_table(2, [-1, 1, 1, 1])
        assert f.values[0] == -1

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            from_truth_table(2, [1, -1, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            from_truth_table(1, [1, math.nan])

    def test_rejects_boolean_dimension(self):
        with pytest.raises(ValueError, match="positive integer"):
            BooleanFunction(True, [1.0, -1.0])

    def test_rejects_huge_dimension(self):
        with pytest.raises(ValueError):
            BooleanFunction(25, np.ones(2**25 // 2**10))

    def test_values_are_immutable(self):
        f = from_truth_table(1, [1, -1])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    @pytest.mark.parametrize("cls", [BooleanFunction, Spectrum])
    def test_public_constructor_copies(self, cls):
        src = np.array([1.0, -1.0, 0.5, 2.0])
        obj = cls(2, src)
        src[0] = 7.0
        vec = obj.values if cls is BooleanFunction else obj.coeffs
        assert vec[0] == 1.0 and src.flags.writeable and not vec.flags.writeable

    @pytest.mark.parametrize("cls", [BooleanFunction, Spectrum])
    def test_adopted_array_is_frozen_in_place(self, cls):
        arr = np.array([1.0, -1.0, 0.5, 2.0])
        obj = cls._adopt(2, arr)
        assert (obj.values if cls is BooleanFunction else obj.coeffs) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="non-finite"):
            cls._adopt(2, np.array([1.0, math.inf, 0.0, 0.0]))
        with pytest.raises(ValueError, match="length"):
            cls._adopt(2, np.zeros(3))

    def test_transforms_and_builders_hand_out_read_only_arrays(self):
        f = majority(5)
        for vec in (f.values, walsh_transform(f).coeffs, inverse_walsh(walsh_transform(f)).values):
            assert not vec.flags.writeable


class TestWalshTransform:
    def test_parity_characters_orthonormal(self):
        f = from_truth_table(2, [1, -1, -1, 1])
        assert np.allclose(walsh_transform(f).coeffs, [0, 0, 0, 1], atol=1e-15)

    def test_indicator_flip_closed_form(self):
        f = from_truth_table(2, [-1, 1, 1, 1])
        assert np.allclose(walsh_transform(f).coeffs, [0.5, -0.5, -0.5, -0.5], atol=1e-15)

    def test_majority3_against_naive_oracle(self):
        f = from_truth_table(3, MAJ3)
        fast = walsh_transform(f).coeffs
        naive = walsh_transform_naive(f).coeffs
        assert np.allclose(fast, naive, atol=1e-12)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 0.5
        expected[7] = -0.5
        assert np.allclose(fast, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fast_matches_naive(self, n):
        rng = np.random.default_rng(n)
        f = from_truth_table(n, rng.normal(size=2**n))
        assert np.allclose(
            walsh_transform(f).coeffs, walsh_transform_naive(f).coeffs, atol=1e-12
        )

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=16), rng.normal(size=16)
        lhs = walsh_transform(from_truth_table(4, 2.0 * a - 3.0 * b)).coeffs
        rhs = 2.0 * walsh_transform(from_truth_table(4, a)).coeffs
        rhs -= 3.0 * walsh_transform(from_truth_table(4, b)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)


    def test_overflowing_table_is_scaled_by_a_power_of_two(self):
        rng = np.random.default_rng(3)
        huge = rng.choice([-1e308, 1e308], size=16)
        huge[5] = 0.25e308
        for n, values in ((2, np.array([1e308, 1e308, -1e308, 1e308])), (4, huge)):
            e = math.frexp(np.max(np.abs(values)))[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = walsh_transform(from_truth_table(n, values)).coeffs
                by_hand = walsh_transform(from_truth_table(n, np.ldexp(values, -e))).coeffs
            assert_same_bits(got, np.ldexp(by_hand, e))
        assert np.max(np.abs(got)) <= np.max(np.abs(huge))

    def test_tables_that_do_not_overflow_keep_their_bits(self):
        values = np.random.default_rng(4).uniform(-1.0, 1.0, size=2**6) * 2.0**1015
        got = walsh_transform(from_truth_table(6, values)).coeffs
        assert_same_bits(got, cube._fwht_inplace(values.copy()) / 2**6)

    def test_rows_of_an_overflowing_block_keep_their_own_bits(self):
        # each row is scaled by its own power of two, so a small row beside a
        # huge one is not pushed toward the subnormals
        scale = np.array([[1e308], [1.0], [1e-300], [1e300]])
        values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 2**6)) * scale
        block = cube._walsh_rows(values)
        for row, got in zip(values, block):
            assert_same_bits(got, walsh_transform(from_truth_table(6, row)).coeffs)

    def test_naive_rejects_dimension_over_cap(self):
        f = from_truth_table(NAIVE_MAX_N + 1, np.zeros(2 ** (NAIVE_MAX_N + 1)))
        with pytest.raises(ValueError, match="capped"):
            walsh_transform_naive(f)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBlockedButterfly:
    SHAPES = [(2**k,) for k in range(21)] + [(3, 2**19), (2**16, 16), (5, 1)]
    # With FWHT_CHUNK = 2**4: pieces of several rows (the last one partial
    # for (5, 8)), k > 1, and slabs of width 1 from 2**8 on.
    SMALL_CHUNK_SHAPES = [(2**k,) for k in range(13)] + [(3, 2**7), (2**6, 4), (40, 2), (5, 8), (5, 1)]

    def check_against_single_pass(self, shape):
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        want = single_pass_fwht(a.copy())
        got = a.copy()
        assert cube._fwht_inplace(got) is got
        assert_same_bits(got, want)

    def test_refuses_an_array_that_is_not_c_contiguous(self):
        # a column slice was transformed as a reshaped copy and came back unchanged
        a = np.random.default_rng(6).normal(size=(4, 16))
        before = a.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            cube._fwht_inplace(a[:, :8])
        assert_same_bits(a, before)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_single_pass(self, shape):
        self.check_against_single_pass(shape)

    @pytest.mark.parametrize("shape", SMALL_CHUNK_SHAPES)
    def test_matches_single_pass_with_small_chunk(self, shape, monkeypatch):
        monkeypatch.setattr(cube, "FWHT_CHUNK", 2**4)
        self.check_against_single_pass(shape)

    @pytest.mark.parametrize("chunk,n", [(2**17, 9), (2**4, 3), (2**4, 6), (2**4, 8)])
    def test_twice_is_scaled_identity(self, chunk, n, monkeypatch):
        # rows of the identity: H H = 2^n I holds exactly in integers
        monkeypatch.setattr(cube, "FWHT_CHUNK", chunk)
        a = np.eye(2**n)
        cube._fwht_inplace(cube._fwht_inplace(a))
        assert_same_bits(a, 2.0**n * np.eye(2**n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_small_chunk_matches_naive(self, n, monkeypatch):
        monkeypatch.setattr(cube, "FWHT_CHUNK", 2**4)
        f = from_truth_table(n, np.random.default_rng(n).normal(size=2**n))
        assert np.allclose(walsh_transform(f).coeffs, walsh_transform_naive(f).coeffs, atol=1e-12)


class TestInverseWalsh:
    def test_constant_spectrum(self):
        f = inverse_walsh(Spectrum(3, [2.5] + [0.0] * 7))
        assert np.allclose(f.values, 2.5)

    def test_majority3_spectrum_evaluates_to_sign_table(self):
        coeffs = np.zeros(8)
        coeffs[[1, 2, 4]] = 0.5
        coeffs[7] = -0.5
        assert np.allclose(inverse_walsh(Spectrum(3, coeffs)).values, MAJ3, atol=1e-15)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, f):
        back = inverse_walsh(walsh_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(1.0, sup_norm(f))

    @pytest.mark.parametrize("n", [9, 12])
    def test_round_trip_at_dozen_variables(self, n):
        rng = np.random.default_rng(n)
        f = from_truth_table(n, rng.uniform(-5, 5, size=2**n))
        back = inverse_walsh(walsh_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(1.0, sup_norm(f))


class TestNorms:
    def test_sign_tables_have_unit_norms(self):
        f = from_truth_table(2, [1, -1, -1, 1])
        for p in (1, 1.5, 2, 3, math.inf):
            assert p_norm(f, p) == pytest.approx(1.0, abs=1e-15)
        assert sup_norm(f) == 1.0

    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
    def test_rejects_p_below_one_and_nan(self, p):
        # NaN passed the p < 1 check and gave 1.0 on a sign table
        with pytest.raises(ValueError, match=f"^p-norms need p >= 1, got {p}$"):
            p_norm(from_truth_table(2, [1, -1, -1, 1]), p)

    def test_indicator_mean(self):
        # 2 * indicator(x = all-ones) on one variable
        f = from_truth_table(1, [2.0, 0.0])
        assert p_norm(f, 1) == pytest.approx(1.0)

    def test_zero_function(self):
        assert sup_norm(from_truth_table(1, [0, 0])) == 0.0
        assert math.copysign(1.0, sup_norm(from_truth_table(1, [-0.0, 0.0]))) == 1.0
        assert math.copysign(1.0, sup_norm(from_truth_table(1, [-0.0, -0.0]))) == 1.0

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_sup_norm_is_max_abs_bit_for_bit(self, f):
        assert sup_norm(f).hex() == float(np.max(np.abs(f.values))).hex()

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            p_norm(from_truth_table(1, [1, -1]), 0.5)

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_p(self, f):
        grid = [1, 1.5, 2, 3, math.inf]
        norms = [p_norm(f, p) for p in grid]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12 * max(1.0, hi)

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, f):
        s = walsh_transform(f)
        lhs = float(np.sum(s.coeffs**2))
        rhs = p_norm(f, 2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_plancherel(self):
        rng = np.random.default_rng(9)
        f = from_truth_table(5, rng.normal(size=32))
        g = from_truth_table(5, rng.normal(size=32))
        inner = float(np.mean(f.values * g.values))
        spectral = float(np.sum(walsh_transform(f).coeffs * walsh_transform(g).coeffs))
        assert inner == pytest.approx(spectral, rel=1e-10, abs=1e-12)


class TestExpectationDegree:
    def test_parity_is_balanced(self):
        assert expectation(from_truth_table(2, [1, -1, -1, 1])) == 0.0

    def test_indicator_flip_mean(self):
        assert expectation(from_truth_table(2, [-1, 1, 1, 1])) == pytest.approx(0.5)

    def test_expectation_equals_empty_coefficient(self):
        rng = np.random.default_rng(3)
        f = from_truth_table(4, rng.normal(size=16))
        assert expectation(f) == pytest.approx(walsh_transform(f).coeffs[0], abs=1e-14)

    def test_degrees(self):
        assert degree(walsh_transform(from_truth_table(3, MAJ3))) == 3
        assert degree(walsh_transform(from_truth_table(1, [1, -1]))) == 1
        assert degree(Spectrum(2, np.zeros(4))) == 0
        assert degree(Spectrum(2, [3.0, 0, 0, 0])) == 0


class TestNoiseOperator:
    def test_identity_at_one(self):
        s = Spectrum(3, np.arange(8.0))
        assert np.array_equal(noise_operator(s, 1.0).coeffs, s.coeffs)

    def test_projection_at_zero(self):
        s = walsh_transform(from_truth_table(3, MAJ3))
        t0 = noise_operator(s, 0.0)
        assert t0.coeffs[0] == s.coeffs[0]
        assert np.all(t0.coeffs[1:] == 0.0)

    def test_dictator_halves(self):
        s = walsh_transform(from_truth_table(1, [1, -1]))
        assert noise_operator(s, 0.5).coeffs[1] == 0.5

    @given(st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_semigroup(self, rho, sigma):
        s = Spectrum(3, np.linspace(-1, 1, 8))
        once = noise_operator(noise_operator(s, rho), sigma)
        combined = noise_operator(s, rho * sigma)
        assert np.allclose(once.coeffs, combined.coeffs, atol=1e-15)


class TestHomogeneousPart:
    def test_majority3_levels(self):
        s = walsh_transform(from_truth_table(3, MAJ3))
        level1 = homogeneous_part(s, 1)
        assert np.allclose(level1.coeffs[[1, 2, 4]], 0.5)
        assert float(np.abs(homogeneous_part(s, 2).coeffs).sum()) == 0.0

    def test_parity_has_no_constant_part(self):
        s = walsh_transform(from_truth_table(2, [1, -1, -1, 1]))
        assert float(np.abs(homogeneous_part(s, 0).coeffs).sum()) == 0.0

    def test_levels_resum(self):
        rng = np.random.default_rng(1)
        s = walsh_transform(from_truth_table(4, rng.normal(size=16)))
        total = sum(homogeneous_part(s, m).coeffs for m in range(5))
        assert np.allclose(total, s.coeffs, atol=1e-15)

    def test_rejects_out_of_range_level(self):
        s = Spectrum(2, np.zeros(4))
        with pytest.raises(ValueError):
            homogeneous_part(s, 3)


class TestSymmetricSpectrum:
    def test_rejects_boolean_dimension(self):
        with pytest.raises(ValueError, match="positive integer"):
            SymmetricSpectrum(True, (1, 0))

    def test_from_level_coeffs(self):
        quarter = Fraction(-1, 4)
        s = SymmetricSpectrum(2, ["0", "1/2", quarter])
        assert s.level_coeffs == (0, Fraction(1, 2), quarter)
        assert s.level_coeffs[2] is quarter
        assert s.log_abs[0] == -math.inf
        assert s.log_abs[1] == pytest.approx(math.log(0.5))
        assert s.log_abs[2] == pytest.approx(math.log(0.25))
        with pytest.raises(TypeError):
            SymmetricSpectrum(2, ["0", "1/2", quarter], s.log_abs)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, np.float64(math.inf), math.nan])
    def test_rejects_non_finite_coefficients(self, bad):
        # as the dense types do: a ValueError, not the OverflowError of Fraction(inf)
        with pytest.raises(ValueError):
            SymmetricSpectrum(1, [0, bad])


def test_subset_levels_are_popcounts():
    lv = subset_levels(4)
    assert lv[0] == 0 and lv[0b1111] == 4 and lv[0b0110] == 2
