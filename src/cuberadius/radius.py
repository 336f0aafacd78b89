"""Boolean-radius solver.

The Boolean radius rho(f) is the positive root of

    P(rho) := sum_S |fhat(S)| rho^{|S|} = ||f||_inf.

Grouping by cardinality gives the level profile W_m = sum_{|S|=m} |fhat(S)|
and the majorant P(rho) = sum_m W_m rho^m.  For a genuine function
W_0 <= ||f||_inf <= P(1), so the root lies in (0, 1]; constants have no root
and get an infinite-radius sentinel.

The bisection works on the equivalent reduced equation

    S(rho) := sum_{m>=1} W_m rho^m  =  ||f||_inf - W_0,

evaluated in the log domain.  This matters: for strongly biased functions
W_0 is within 1e-6 (or far less) of the sup norm, and evaluating P - sup
directly in doubles cancels catastrophically, while S keeps every term
positive.  The symmetric path divides the equation by its exact rational
target, so each of its level logs is one ratio of exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .cube import (
    FWHT_CHUNK,
    BooleanFunction,
    Spectrum,
    SymmetricSpectrum,
    _fwht_inplace,
    _walsh_rows,
    subset_levels,
)
from .families import _sign_spectra

#: |P(radius) - sup| must not exceed RESIDUAL_TOL * max(1, sup) for finite results.
RESIDUAL_TOL = 1e-10

#: Relative equality slack recognising radius == 1 (sum of weights == sup norm).
UNIT_RADIUS_TOL = 1e-10

#: Relative shortfall of sum(W) below sup treated as a non-function profile.
PROFILE_TOL = 1e-9

#: Shifted log below which a term of a tail sum counts as 0 (e^-700 of the row's largest term).
LOG_TINY = -700.0

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class LevelProfile:
    """Per-degree absolute coefficient sums W_m plus the matching sup norm.

    The weights must be finite: a function whose level sums leave double
    range is scaled first (its radius does not change).  ``log_weights`` is
    derived from them, -inf at a zero weight.
    """

    n: int
    weights: np.ndarray
    sup_norm: float
    log_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n + 1,):
            raise ValueError("weights must have one entry per level 0..n")
        if not np.all((w >= 0) & (w < math.inf)):
            raise ValueError("level weights must be finite and nonnegative; scale the function first")
        if _finite_sup(self.sup_norm) < 0:
            raise ValueError("sup norm must be nonnegative")
        lw = _log(w)
        w.flags.writeable = False
        lw.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_weights", lw)


@dataclass(frozen=True)
class RadiusResult:
    """Solved Boolean radius with solver diagnostics."""

    radius: float
    residual: float
    iterations: int
    method: str  # bisection | closed_form

    def __post_init__(self):
        if self.method not in ("bisection", "closed_form"):
            raise ValueError(f"unknown method {self.method!r}")


def _finite_sup(sup):
    """``sup``, or a ValueError if it is NaN or infinite."""
    if not math.isfinite(sup):
        raise ValueError("sup norm must be a finite number")
    return sup


def level_profile(s: Spectrum, sup: float) -> LevelProfile:
    """Regroup |fhat(S)| by |S|; ``sup`` is the sup norm of the matching function."""
    return LevelProfile(s.n, _level_sums(s.coeffs[None, :], np.abs)[0], float(sup))


def _level_sums(x: np.ndarray, term) -> np.ndarray:
    """(rows, n + 1) sums of term(x) over each level |S| = m, x shaped (rows, 2^n).

    One ``np.bincount`` in bitmask order per piece of FWHT_CHUNK entries, with
    ``term`` applied to that piece alone.  A piece is several whole rows, their
    bins offset by n + 1 per row, or the 2^k entries of one row with high bits
    j, whose levels are popcount(j) plus those of the one table of 2^k levels.
    """
    rows, size = x.shape
    n = size.bit_length() - 1
    k = min(n, FWHT_CHUNK.bit_length() - 1)
    bins = (subset_levels(k) + (n + 1) * np.arange(min(x.size, FWHT_CHUNK) >> k)[:, None]).ravel()
    out = np.zeros(rows * (n + 1))
    x = x.reshape(-1)
    for start in range(0, x.size, FWHT_CHUNK):
        piece = term(x[start : start + FWHT_CHUNK])
        at = (start >> n) * (n + 1) + ((start & (size - 1)) >> k).bit_count()
        sums = np.bincount(bins[: piece.size], weights=piece)
        out[at : at + sums.size] += sums
    return out.reshape(rows, n + 1)


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def majorant(p: LevelProfile, rho: float) -> float:
    """P(rho) = W_0 + sum_{m>=1} W_m rho^m, the sum taken in the log domain;
    inf once it leaves double range."""
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho!r}")
    w0, tail = float(p.weights[0]), p.log_weights[None, 1:]
    if rho == 0 or not np.any(tail > -math.inf):
        return w0
    lp = float(_tail_sums(tail)(np.array([rho]))[0])
    return w0 + math.exp(lp) if lp <= 709.0 else math.inf


def _bisect(below, lo, hi):
    """Halve every bracket [lo, hi] until its midpoint equals one of its ends.

    ``lo`` and ``hi`` are arrays of one shape (0-d allowed); ``below(mid)``
    is True where the root lies above ``mid``.  It sees every bracket, the
    finished ones too: their midpoint is one of their ends, so moving an end
    to it changes neither that midpoint nor the bracket's halving count.
    Stopping only when a bracket cannot shrink in doubles puts each root
    within one ulp.  Returns the roots and the number of halvings of each
    bracket.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    iterations = np.zeros(lo.shape, dtype=np.int64)
    while True:
        mid = 0.5 * (lo + hi)
        active = (mid != lo) & (mid != hi)
        if not np.any(active):
            return mid, iterations
        iterations += active
        up = np.asarray(below(mid), dtype=bool)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)


def _log_targets(w0: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """log(sup - W_0) per row: -inf where W_0 reaches sup, NaN where it exceeds
    sup by more than PROFILE_TOL (not a function profile)."""
    target = sup - np.minimum(w0, sup)
    return _log(np.where(w0 > sup * (1.0 + PROFILE_TOL), math.nan, target))


def _tail_sums(log_tail: np.ndarray):
    """The map rho -> log sum_{m>=1} W_m rho^m per row, log_tail[r, m-1] = log W_m.

    The terms are max-shifted, so the largest is exactly 1 and none
    overflows.  A term whose shifted log is below LOG_TINY is set to exactly
    0 (clamp, exp, then a 0/1 mask): against the top term it is far below one
    rounding of the sum, and ``exp`` is slow on underflowing, subnormal and
    -inf inputs.  The work arrays are allocated once and reused by every
    call; each call returns a fresh array.
    """
    powers = np.arange(1.0, log_tail.shape[1] + 1.0)
    terms = np.empty(log_tail.shape)
    keep = np.empty(log_tail.shape, dtype=bool)
    top = np.empty(log_tail.shape[0])

    def tail_sums(rho: np.ndarray) -> np.ndarray:
        np.multiply(powers, np.log(rho)[:, None], out=terms)
        np.add(log_tail, terms, out=terms)
        np.max(terms, axis=1, out=top)
        np.subtract(terms, top[:, None], out=terms)
        np.greater_equal(terms, LOG_TINY, out=keep)
        np.maximum(terms, LOG_TINY, out=terms)
        np.exp(terms, out=terms)
        np.multiply(terms, keep, out=terms)
        return top + np.log(np.sum(terms, axis=1))

    return tail_sums


def _solve_reduced(log_tail: np.ndarray, log_target: np.ndarray):
    """Solve sum_{m>=1} W_m rho^m = target on [0, 1] for every row, from logs.

    log_tail[r, m-1] = log W_m and log_target[r] = log target of row r.  Rows
    without weight above level 0 are constants and get +inf.  A row whose
    weights reach its target within UNIT_RADIUS_TOL gets 1.0; the others are
    bisected to one ulp, which leaves the residual far below the 1e-10
    contract even for flat, high-degree majorants.  A row that is no function
    profile, a constant one too, raises ValueError.  Returns radius, residual
    and iterations per row.
    """
    rows = log_tail.shape[0]
    radius, residual = np.full(rows, math.inf), np.zeros(rows)
    iterations = np.zeros(rows, dtype=np.int64)
    if np.any(np.isnan(log_target)):
        raise ValueError("constant coefficient exceeds the sup norm; not a function profile")
    live = np.flatnonzero(np.any(log_tail > -math.inf, axis=1))
    tail, target = log_tail[live], log_target[live]
    if np.any(target == -math.inf):
        raise ValueError("constant part equals the sup norm on a nonconstant profile")
    sums = _tail_sums(tail)
    at_one = sums(np.ones(live.size))
    if np.any(at_one < target + math.log1p(-PROFILE_TOL)):
        raise ValueError("sum of level weights falls below the sup norm; not a function profile")
    rho = np.ones(live.size)
    inner = np.flatnonzero(at_one > target + math.log1p(UNIT_RADIUS_TOL))
    inner_sums, b = _tail_sums(tail[inner]), target[inner]
    with np.errstate(divide="ignore", invalid="ignore"):  # finished brackets may sit at 0
        rho[inner], iterations[live[inner]] = _bisect(
            lambda mid: inner_sums(mid) < b, np.zeros(inner.size), np.ones(inner.size)
        )
    radius[live] = rho
    # S(0) = 0: a zero root (a target met only below the least subnormal) leaves
    # the whole target as residual; S is evaluated at the other roots, not at log 0
    at_rho, pos = np.zeros(live.size), rho > 0
    at_rho[pos] = np.exp(_tail_sums(tail[pos])(rho[pos]))
    residual[live] = np.abs(at_rho - np.exp(target))
    return radius, residual, iterations


def _log_ratio(p: int, q: int, shift: int) -> float:
    """log(p 2^shift / q) for integers p, q > 0: one correctly rounded quotient in (1/2, 2) plus k log 2."""
    k = p.bit_length() - q.bit_length()
    return math.log(p / (q << k) if k >= 0 else (p << -k) / q) + (k + shift) * _LOG2


def _block_width(n: int) -> int:
    """Width of a block whose widest row has n levels: max(8, the next power of two).

    numpy's pairwise sum splits a row of such a width at exact halves, and
    the all-zero halves of the padding add exactly 0, so the sum of a row,
    and with it its radius, is the same in every block it can land in."""
    return max(8, 1 << (n - 1).bit_length())


def _binomials(n: int, m: int = 0, b: int = 1):
    """binom(n, k) for k = m..n from b = binom(n, m), each from the one before by an exact multiply and divide."""
    for k in range(m, n + 1):
        yield b
        b = b * (n - k) // (k + 1)


def _odd_part(x: int) -> tuple:
    """(o, u) with x = o 2^u and o odd, for an integer x > 0."""
    u = (x & -x).bit_length() - 1
    return x >> u, u


def _one_radius(log_tail: np.ndarray, log_target: float) -> RadiusResult:
    radius, residual, iterations = _solve_reduced(log_tail[None, :], np.array([log_target]))
    method = "bisection" if math.isfinite(radius[0]) else "closed_form"
    return RadiusResult(float(radius[0]), float(residual[0]), int(iterations[0]), method)


def _dense_radii(w: np.ndarray, sup) -> np.ndarray:
    """Radii of the (rows, n + 1) level-weight rows ``w`` with sup norms ``sup``."""
    return _solve_reduced(_log(w[:, 1:]), _log_targets(w[:, 0], sup))[0]


def boolean_radius(p: LevelProfile) -> RadiusResult:
    """Boolean radius of a level profile.

    Constant and zero functions (no weight above level 0) get radius +inf:
    the defining equation P(rho) = sup has no root there.
    """
    return _one_radius(p.log_weights[1:], _log_targets(p.weights[0], p.sup_norm))


def boolean_radius_symmetric(s: SymmetricSpectrum, sup: float) -> RadiusResult:
    """Radius of a permutation-invariant function from its per-level spectrum.

    With the reduced target t = sup - |g_hat([0])| as an exact rational, each
    level log log(W_m / t), W_m = binom(n, m) |g_hat([m])|, is one _log_ratio
    of exact integers (binom(n, m) from a running product), so any n works
    without dense tables and the target log is 0.  The row is padded to
    _block_width(n) as a threshold row is; the residual is scaled back by t.
    """
    if _finite_sup(sup) <= 0:
        raise ValueError("sup norm must be positive")
    t = Fraction(sup) - abs(s.level_coeffs[0])
    # t <= 0 only reaches _solve_reduced's profile checks, through the target
    scale, tail = abs(t) or 1, np.full(_block_width(s.n), -math.inf)
    (pt, ut), (qt, vt) = _odd_part(scale.numerator), _odd_part(scale.denominator)
    for m, (binom, c) in enumerate(zip(_binomials(s.n), s.level_coeffs)):
        if m and c:  # powers of two enter as the shift, not as factors of a product
            (pm, um), (qm, vm) = _odd_part(abs(c.numerator)), _odd_part(c.denominator)
            tail[m - 1] = _log_ratio(binom * pm * qt, qm * pt, um + vt - vm - ut)
    result = _one_radius(tail, 0.0 if t > 0 else -math.inf if t == 0 else math.nan)
    return replace(result, residual=result.residual * float(scale))


def class_radius(profiles) -> float:
    """inf of rho(f) over a class: minimum finite member radius, +inf if none is finite."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("class_radius needs at least one profile")
    return min(boolean_radius(p).radius for p in profiles)


def bn_radius_formula(N: int) -> float:
    """Exact radius 2^{1/N} - 1 of the class of all functions on {-1,+1}^N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return math.expm1(_LOG2 / N)


# -- exhaustive confirmation over +-1-valued tables -------------------------

BRUTE_FORCE_MAX_N = 4


def brute_force_bn_radius(N: int):
    """Minimum radius over every nonconstant +-1-valued function on {-1,+1}^N.

    Ranges over all 2^(2^N) sign tables (N <= 4), table entry j of function k
    being +1 when bit j of k is clear.  Returns (radius, minimizer) with ties
    broken by the first table in enumeration order.  Table k and its negation
    2^(2^N) - 1 - k share their level profile, so only k < 2^(2^N - 1) is
    enumerated: the first minimizer lies there.  Those tables go through one
    batched butterfly; only their distinct level profiles (172 at N = 4) are
    solved.

    The matching lower-bound argument for 2^(1/N) - 1 covers all real-valued
    functions, so the +-1-valued sweep is a confirmation, not an independent
    optimization.
    """
    if not 1 <= N <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to 1 <= N <= {BRUTE_FORCE_MAX_N}")
    points = 2**N
    bits = np.arange(points, dtype=np.uint64)
    table = lambda ks: 1.0 - 2.0 * ((ks[..., None] >> bits) & 1)
    sums = _level_sums(_walsh_rows(table(np.arange(2 ** (points - 1), dtype=np.uint64))), np.abs)
    # distinct rows by their bytes; each is solved on its own, so their order does not matter
    rows = sums.view(np.dtype((np.void, sums.itemsize * sums.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    rho = _dense_radii(sums[first], 1.0)[inverse]
    i = int(np.argmin(rho))  # ties resolve to the smallest enumeration index
    return float(rho[i]), BooleanFunction(N, table(np.uint64(i)))


#: Most doubles in one block of sign tables of the homogeneous scan (512 KiB).
SCAN_BLOCK_DOUBLES = 2**16


def homogeneous_class_scan(N: int, m: int, trials: int, seed: int) -> float:
    """Upper-bound witness search for the m-homogeneous class radius.

    Draws ``trials`` random-sign m-homogeneous functions with unit
    coefficients and returns the smallest of their radii: an upper-bound
    estimate for the class radius.  Trial t has the signs that
    ``random_sign_homogeneous`` draws from the seed [seed, t].  Every trial
    has the level profile W_m = binom(N, m) and the radius rises with the
    sup norm, so one batched inverse butterfly per block of trials gives the
    sup norms and one solve at the smallest of them gives the answer.
    """
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    if N > 20:
        raise ValueError("scan is capped at N <= 20")
    if trials < 1:
        raise ValueError("need at least one trial")
    count = list(_binomials(N))[m]
    ones = np.ones(count)
    step = max(1, SCAN_BLOCK_DOUBLES >> N)
    sup = math.inf
    for a in range(0, trials, step):
        seeds = [[seed, t] for t in range(a, min(a + step, trials))]
        tables = _fwht_inplace(_sign_spectra(N, m, ones, seeds))
        sup = min(sup, float(np.max(np.abs(tables), axis=1).min()))
    w = np.zeros(N + 1)
    w[m] = count
    return boolean_radius(LevelProfile(N, w, sup)).radius
