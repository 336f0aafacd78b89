"""Real functions on the Boolean cube {-1,+1}^n and their Fourier-Walsh spectra.

A function f: {-1,+1}^n -> R is stored as a dense truth table of length 2^n.
Point encoding: bit k of the table index is 0 when x_{k+1} = +1 and 1 when
x_{k+1} = -1, so index 0 is the all-ones point.

Its Fourier-Walsh expansion is f(x) = sum_S fhat(S) x^S with x^S = prod_{k in S} x_k
and fhat(S) = E[f * chi_S].  Spectra are dense vectors indexed by the subset
bitmask S (bit k set means coordinate k+1 belongs to S).  With these two
conventions the Walsh character evaluates as chi_S(x) = (-1)^{popcount(S & x)},
which is exactly the Hadamard kernel, so the fast transform is a plain
in-place butterfly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

#: Hard cap on the dimension of dense truth tables / spectra.
MAX_DENSE_N = 24

#: Largest n for walsh_transform_naive: its 2^n x 2^n sign matrix takes
#: 128 MiB at n = 12 and 32 GiB at n = 16.
NAIVE_MAX_N = 12

#: Doubles in one cache-sized piece (1 MiB) of ``_fwht_inplace`` and of the
#: streamed level sums of ``radius._level_sums``.
FWHT_CHUNK = 2**17

#: Coefficients with absolute value at or below this count as zero
#: (degree, homogeneity tests).
ZERO_TOL = 1e-12


def _validate_dimension(n: int, cap: float = MAX_DENSE_N) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if n > cap:
        raise ValueError(f"dense tables are capped at n <= {cap}, got n = {n}")


def _as_int(name: str, x) -> int:
    """x as an int: an integral float such as 7.0 passes, a bool or any other non-integer raises."""
    if not isinstance(x, bool) and (isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer()):
        return int(x)
    raise ValueError(f"{name} must be an integer here, got {x!r}")


def _freeze(obj, n: int, vector, copy) -> None:
    """Check n and ``vector`` as floats (a copy if ``copy`` is True, else a view
    where possible) once, and set both on obj, the vector read-only."""
    _validate_dimension(n)
    what = fields(obj)[1].name  # "values" or "coeffs"
    arr = np.array(vector, dtype=float, copy=copy)
    if arr.ndim != 1 or arr.size != 2**n:
        raise ValueError(f"{what} must have length 2^{n} = {2**n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, what, arr)


class _DenseVector:
    """The length-2^n float vector shared by truth tables and spectra.

    The public constructor copies its input.  ``_adopt`` takes over a float
    array the caller owns and will not touch again, without copying it.
    """

    def __post_init__(self):
        _freeze(self, self.n, getattr(self, fields(self)[1].name), copy=True)

    @classmethod
    def _adopt(cls, n: int, arr: np.ndarray):
        obj = object.__new__(cls)
        _freeze(obj, n, arr, copy=None)
        return obj


@dataclass(frozen=True, eq=False)
class BooleanFunction(_DenseVector):
    """Dense truth table of a real function on {-1,+1}^n."""

    n: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum(_DenseVector):
    """Dense Fourier-Walsh coefficient vector, indexed by subset bitmask."""

    n: int
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class SymmetricSpectrum:
    """Per-level spectrum of a permutation-invariant function.

    For a symmetric g every coefficient depends only on |S|, so the whole
    spectrum is the levels g_hat([m]), m = 0..n, each held as its exact
    rational in lowest terms, an integer pair (numerator, denominator > 0);
    ``_adopt`` takes over reduced pairs.  ``level_coeffs`` (as ``Fraction``s)
    and ``log_abs`` (log|g_hat([m])|, -inf at a zero) are views of the pairs,
    computed on first use.  n is not bounded by the dense-table cap.
    """

    n: int
    _pairs: tuple

    def __init__(self, n: int, level_coeffs):
        _validate_dimension(n, math.inf)
        try:
            lc = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in level_coeffs)
        except OverflowError:  # an infinite float or Decimal
            raise ValueError("level_coeffs contains non-finite entries") from None
        if len(lc) != n + 1:
            raise ValueError(f"need {n + 1} level coefficients, got {len(lc)}")
        self.__dict__.update(n=n, _pairs=tuple((c.numerator, c.denominator) for c in lc), level_coeffs=lc)

    @classmethod
    def _adopt(cls, n: int, pairs: tuple):
        obj = object.__new__(cls)
        obj.__dict__.update(n=n, _pairs=pairs)
        return obj

    @functools.cached_property
    def level_coeffs(self) -> tuple:
        return tuple(Fraction(p, q) for p, q in self._pairs)

    @functools.cached_property
    def log_abs(self) -> np.ndarray:
        la = np.array([math.log(abs(p)) - math.log(q) if p else -math.inf for p, q in self._pairs])
        la.flags.writeable = False
        return la


def subset_levels(n: int) -> np.ndarray:
    """|S| for every subset bitmask S of [n], i.e. popcounts 0..2^n-1."""
    return np.bitwise_count(np.arange(2**n, dtype=np.uint32)).astype(np.int64)


def from_truth_table(n: int, values) -> BooleanFunction:
    """Build a BooleanFunction from a length-2^n table under the bitmask point
    convention (bit k of the index is 1 exactly when x_{k+1} = -1)."""
    return BooleanFunction(n, values)


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard butterfly along the last axis.

    Output[S] = sum_x (-1)^{popcount(S & x)} input[x]; cost O(n 2^n).  ``a``
    must be C-contiguous, so that its reshapes are views and writes land in
    ``a``; any other array raises ValueError.

    Stage h (h = 1, 2, ..., 2^n / 2) maps each pair (u, v) = (x, x + h) of
    every block of 2h entries to (u + v, u - v).  The stages run in two
    cache-sized passes:

    1. every stage with h below min(2^n, FWHT_CHUNK), on one contiguous
       piece of FWHT_CHUNK entries (one part of a long row, or several short
       rows) at a time;
    2. if rows are longer than FWHT_CHUNK, the remaining stages h = FWHT_CHUNK,
       2 FWHT_CHUNK, ... on each row viewed as (k, FWHT_CHUNK), k = 2^n /
       FWHT_CHUNK, one column slab of width FWHT_CHUNK / k (at least 1) at a
       time.

    The bits do not depend on the path: every entry meets the same partners
    in the same stage order, each stage's pairs are independent, and u + v
    is computed as the same IEEE sum either way; only the loop order over
    independent pairs changes.
    """
    if not a.flags.c_contiguous:
        raise ValueError("the butterfly runs in place on a C-contiguous array only")
    size = a.shape[-1]
    flat = a.reshape(-1)
    low = min(size, FWHT_CHUNK)
    for start in range(0, flat.size, FWHT_CHUNK):
        _stages(flat[start : start + FWHT_CHUNK], low, ())
    k = size // FWHT_CHUNK
    if k > 1:
        width = max(FWHT_CHUNK // k, 1)
        for row in flat.reshape(-1, k, FWHT_CHUNK):
            for col in range(0, FWHT_CHUNK, width):
                _stages(row[:, col : col + width], k, (width,))
    return a


def _stages(block: np.ndarray, stop: int, tail: tuple) -> None:
    """Stages h = 1, 2, ..., stop / 2 on ``block`` viewed as (-1, 2h) + tail.

    Stages h and 2h run as one radix-4 pass over each (a, b, c, d) quarter
    of a block of 4h: (a, b, c, d) -> (s0 + s1, d0 + d1, s0 - s1, d0 - d1)
    with s0, d0, s1, d1 = a + b, a - b, c + d, c - d, which are the IEEE
    operations of the two radix-2 stages.  An odd stage count ends with one
    radix-2 stage.
    """
    h = 1
    while 4 * h <= stop:
        q = block.reshape((-1, 4, h) + tail)
        a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        s0, d0, s1, d1 = a + b, a - b, c + d, c - d
        np.add(s0, s1, out=a)
        np.subtract(s0, s1, out=c)
        np.add(d0, d1, out=b)
        np.subtract(d0, d1, out=d)
        h *= 4
    if h < stop:
        p = block.reshape((-1, 2, h) + tail)
        u, v = p[:, 0], p[:, 1]
        s = u + v
        np.subtract(u, v, out=v)
        u[...] = s


def _walsh_rows(values: np.ndarray) -> np.ndarray:
    """Fourier-Walsh coefficients E[f * chi_S] of each row of a (rows, 2^n) block:
    the butterfly on a copy, divided by 2^n.  As |fhat(S)| <= sup norm, a block
    whose butterfly overflows is redone with each row scaled by an exact 2^-e to
    a sup norm in [1/2, 1), then scaled back; other blocks keep their bits.
    """
    a, e = values.copy(), None
    try:
        with np.errstate(over="raise", invalid="raise"):
            _fwht_inplace(a)
    except FloatingPointError:
        e = np.frexp(np.maximum(values.max(axis=1), -values.min(axis=1)))[1][:, None]
        a = _fwht_inplace(np.ldexp(values, -e))
    a /= values.shape[1]
    return a if e is None else np.ldexp(a, e, out=a)


def walsh_transform(f: BooleanFunction) -> Spectrum:
    """Fourier-Walsh coefficients fhat(S) = 2^{-n} sum_x f(x) chi_S(x), one row of ``_walsh_rows``."""
    return Spectrum._adopt(f.n, _walsh_rows(f.values[None, :])[0])


def walsh_transform_naive(f: BooleanFunction) -> Spectrum:
    """Reference O(4^n) transform via the explicit character matrix.

    Independent of the butterfly; kept as the cross-check oracle.  Its sign
    matrix has 4^n entries, so n above NAIVE_MAX_N is rejected before
    anything is allocated.
    """
    if f.n > NAIVE_MAX_N:
        raise ValueError(f"the naive transform is capped at n <= {NAIVE_MAX_N}, got n = {f.n}")
    idx = np.arange(2**f.n, dtype=np.uint32)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)
    return Spectrum(f.n, signs @ f.values / 2**f.n)


def inverse_walsh(s: Spectrum) -> BooleanFunction:
    """Evaluate f(x) = sum_S coeffs[S] x^S on the whole cube (unnormalized butterfly)."""
    return BooleanFunction._adopt(s.n, _fwht_inplace(s.coeffs.copy()))


def sup_norm(f: BooleanFunction) -> float:
    # max |x| without a 2^n copy; abs turns a -0.0 maximum into 0.0
    return abs(float(max(f.values.max(), -f.values.min())))


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e per element through libm ``pow``, which numpy's vectorised power can differ from."""
    return np.array([v**e for v in x.tolist()], dtype=float)


def _p_norms(values: np.ndarray, p: float) -> np.ndarray:
    """Per-row L_p norms E[|f|^p]^{1/p} of a (rows, 2^n) block under the uniform measure."""
    return _pow(np.mean(np.abs(values) ** p, axis=1), 1.0 / p)


def p_norm(f: BooleanFunction, p: float) -> float:
    """L_p norm E[|f|^p]^{1/p} under the uniform measure; p = inf gives the sup norm."""
    if p == math.inf:
        return sup_norm(f)
    if not p >= 1:
        raise ValueError(f"p-norms need p >= 1, got {p}")
    return float(_p_norms(f.values[None, :], p)[0])


def expectation(f: BooleanFunction) -> float:
    """E[f] = 2^{-n} sum_x f(x), the coefficient at the empty set."""
    return float(np.mean(f.values))


def _degrees(coeffs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-row largest |S| = levels[S] with |coeffs[S]| above ZERO_TOL; 0 for constants and zero."""
    return np.max(np.where(np.abs(coeffs) > ZERO_TOL, levels, 0), axis=1)


def degree(s: Spectrum) -> int:
    """Largest |S| carrying a coefficient above ZERO_TOL; 0 for constants and zero."""
    return int(_degrees(s.coeffs[None, :], subset_levels(s.n))[0])


def noise_operator(s: Spectrum, rho: float) -> Spectrum:
    """T_rho: scale each coefficient by rho^{|S|}.  T_1 = id, T_0 projects onto {}."""
    return Spectrum(s.n, s.coeffs * float(rho) ** subset_levels(s.n))


def homogeneous_part(s: Spectrum, m: int) -> Spectrum:
    """Spectrum restricted to level m (all other coefficients zeroed)."""
    m = _as_int("m", m)
    if not 0 <= m <= s.n:
        raise ValueError(f"level must lie in [0, {s.n}], got {m}")
    out = np.where(subset_levels(s.n) == m, s.coeffs, 0.0)
    return Spectrum(s.n, out)
