"""Constructors for the named function families on the Boolean cube."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube import (
    MAX_DENSE_N,
    BooleanFunction,
    _as_int,
    _fwht_inplace,
    _validate_dimension,
    subset_levels,
    sup_norm,
)

#: Sup-norm factor 6 sqrt(log 2) sqrt(N) in the random-signs existence bound.
SALEM_ZYGMUND_FACTOR = 6.0 * math.sqrt(math.log(2.0))


@dataclass(frozen=True)
class ThresholdSpec:
    """Parameters of the threshold function sign(x_1 + ... + x_n - alpha)."""

    n: int
    alpha: float

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_N:
            raise ValueError(f"need 1 <= n <= {MAX_DENSE_N}")
        if not 0 <= self.alpha < self.n:
            raise ValueError(f"need 0 <= alpha < n, got alpha = {self.alpha}")


def extremal_indicator_flip(N: int) -> BooleanFunction:
    """The sign table that is -1 only at the all-ones point.

    This is the extremal witness for the exact class radius 2^{1/N} - 1: its
    spectrum is 1 - 2^{1-N} at the empty set and -2^{1-N} everywhere else.
    """
    N = _as_int("N", N)
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"need 1 <= N <= {MAX_DENSE_N}")
    values = np.ones(2**N)
    values[0] = -1.0
    return BooleanFunction._adopt(N, values)


def dictator(N: int, i: int) -> BooleanFunction:
    """f(x) = x_i (coordinates are 1-based)."""
    _validate_dimension(N)
    if not 1 <= i <= N:
        raise ValueError(f"coordinate must lie in [1, {N}]")
    bits = (np.arange(2**N, dtype=np.uint32) >> (i - 1)) & 1
    return BooleanFunction._adopt(N, 1.0 - 2.0 * bits)


def subset_mask(N: int, S) -> int:
    """The bit mask of S, a subset of [1, N], after the checks of a dense table."""
    _validate_dimension(N)
    mask = 0
    for k in S:  # stops at the first stray member, even of a huge range
        if not 1 <= int(k) <= N:
            raise ValueError(f"subset members must lie in [1, {N}]")
        mask |= 1 << (int(k) - 1)
    return mask


def parity(N: int, S) -> BooleanFunction:
    """f(x) = x^S = prod_{k in S} x_k; the empty set gives the constant 1."""
    mask = subset_mask(N, S)
    signs = np.bitwise_count(np.arange(2**N, dtype=np.uint32) & np.uint32(mask)) & 1
    return BooleanFunction._adopt(N, 1.0 - 2.0 * signs)


def threshold(spec: ThresholdSpec) -> BooleanFunction:
    """sign(x_1 + ... + x_n - alpha) with sign(0) = +1."""
    counts = np.bitwise_count(np.arange(2**spec.n, dtype=np.uint32))
    return BooleanFunction._adopt(spec.n, np.where(counts <= threshold_top(spec), 1.0, -1.0))


def canonical_alpha(N: int, alpha: float) -> int:
    """The threshold representative alpha' with N - alpha' odd.

    Coordinate sums take only the values N - 2k, so with sign(0) = +1 the
    threshold table depends on alpha only through the smallest reachable sum
    s >= alpha of the right parity; alpha' = s - 1 is the unique odd-parity
    threshold producing the identical table, and |alpha - alpha'| <= 1.

    For integer alpha with N - alpha even the representative is alpha - 1;
    at alpha = 0 with N even that is -1, which has no replacement inside
    [0, N) (every nonnegative odd-parity threshold cuts the sum-0 points the
    other way).
    """
    if not 0 <= alpha < N:
        raise ValueError(f"need 0 <= alpha < N, got alpha = {alpha}")
    s = math.ceil(alpha)
    if (N - s) % 2 != 0:
        s += 1
    return s - 1


def threshold_top(spec: ThresholdSpec) -> int:
    """The last level m (count of -1 coordinates) where the threshold is +1.

    The sum x_1 + ... + x_n = n - 2 m falls with m, and the smallest
    reachable sum at or above alpha is canonical_alpha + 1.  This is the b
    that bounds the exact tail count in threshold._tail_terms.
    """
    return (spec.n - 1 - canonical_alpha(spec.n, spec.alpha)) // 2


def majority(N: int) -> BooleanFunction:
    """Maj_N = sign(x_1 + ... + x_N) for odd N."""
    if N % 2 == 0:
        raise ValueError("majority needs odd N")
    return threshold(ThresholdSpec(N, 0))


_SIGNS = np.array([-1.0, 1.0])


def _sign_draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """The signs ``rng.choice([-1.0, 1.0], size=size)`` draws: choice takes them
    from ``rng.integers(0, 2, size)``, which this indexes without choice's overhead."""
    return _SIGNS[rng.integers(0, 2, size)]


def _sign_spectra(N: int, m: int, coeffs: np.ndarray, seeds) -> np.ndarray:
    """One spectrum row sum_{|S|=m} xi_S c_S per seed, the signs xi_S an i.i.d.
    +-1 draw from that seed, the c_S in increasing bitmask order."""
    mask = subset_levels(N) == m
    out = np.zeros((len(seeds), 2**N))
    for row, seed in zip(out, seeds):
        row[mask] = _sign_draw(np.random.default_rng(seed), coeffs.size) * coeffs
    return out


def random_sign_homogeneous(N: int, m: int, coeffs, seed: int):
    """Random-sign m-homogeneous function sum_{|S|=m} xi_S c_S x^S.

    ``coeffs`` lists c_S for the size-m subsets in increasing bitmask order.
    The signs xi_S are an i.i.d. +-1 draw from ``seed``.  Returns the function
    together with a flag telling whether this draw meets the existence bound
    6 sqrt(log 2) sqrt(N) (sum c_S^2)^{1/2} on the sup norm; a single draw may
    fail (only some sign pattern is guaranteed to work), so retry loops belong
    to the caller and the construction stays deterministic per seed.
    """
    N, m = _as_int("N", N), _as_int("m", m)
    if not 1 <= m <= N or N > 20:
        raise ValueError("need 1 <= m <= N <= 20")
    count = math.comb(N, m)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (count,):
        raise ValueError(f"need one coefficient per size-{m} subset ({count})")
    f = BooleanFunction._adopt(N, _fwht_inplace(_sign_spectra(N, m, coeffs, [seed]))[0])
    bound = SALEM_ZYGMUND_FACTOR * math.sqrt(N) * math.sqrt(float(np.sum(coeffs**2)))
    return f, bool(sup_norm(f) <= bound)


def biased_indicator(N: int, lam: float) -> BooleanFunction:
    """A +-1 function with sigma(f = 1) = lam: +1 on the first lam 2^N points.

    lam must be dyadic (lam 2^N integral) with 0 < lam <= 1/2.  Only the
    measure matters for the bias counterexamples, so the support is fixed to
    the lexicographically first indices.  E[f] = 2 lam - 1.
    """
    N = _as_int("N", N)
    if not 1 <= N <= MAX_DENSE_N:
        raise ValueError(f"need 1 <= N <= {MAX_DENSE_N}")
    if not 0 < lam <= 0.5:
        raise ValueError("need 0 < lambda <= 1/2")
    scaled = lam * 2**N
    k = round(scaled)
    if abs(scaled - k) > 1e-9 or k < 1:
        raise ValueError(f"lambda must be a positive multiple of 2^-{N}")
    values = np.full(2**N, -1.0)
    values[:k] = 1.0
    return BooleanFunction._adopt(N, values)
