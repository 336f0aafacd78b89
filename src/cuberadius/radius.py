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

Warm start.  Bisected from [0, 1] to one ulp, a root takes 53 to 64
halvings, and each used to evaluate the tail sums.  In u = log rho,
g(u) = log S(e^u) - log target is convex and increasing, and g'(u) is the
mean degree of the terms, so g' >= 1.  Newton steps in u, started where one
term alone reaches the target (g >= 0 there), fall towards the root and
give a zone [L, U] around it.  The zone is certified with the evaluator's
own values: g~(L) < -2 E(L) and g~(U) > 2 E(U), where E bounds |g~ - g|
(below).  Then g~ < 0 at every midpoint at or below L and g~ > 0 at every
one at or above U, so those midpoints can be decided unevaluated.

After k halvings a bisection from [0, 1] holds the dyadic cell
[j 2^-k, (j + 1) 2^-k] around the root, and it passes through every such
cell that holds the zone, whose midpoints all lie outside the zone.  So a
row jumps to the deepest cell holding its zone, with k halvings counted,
and evaluates that cell's midpoint M, which lies inside.  The next cells
hold [M, U] (or [L, M]), so the row starts from the deepest of them.  A
zone that straddles a dyadic point such as 1/2 has M at that point, so such
a row starts deep too.  From there, a block is evaluated only when the
midpoint of some row lies inside its zone, and the zone shrinks with the
bracket.  Every midpoint evaluated is one that the plain bisection
evaluates, by the same closure and so to the same bits.  So the brackets,
the radius, the residual and the halving count are the plain bisection's.
A row that fails its certificate is bisected from [0, 1] with every
midpoint evaluated.

The error bound E.  Let eps = 2^-53 and kappa = 2^-50; numpy validates its
float64 exp and log to 1 ulp, and kappa allows 4.  The evaluator at
rho = e^u takes these steps:
- log rho, within kappa |u|;
- c_m = log W_m + m log rho, two roundings, within (kappa + eps) m |u| + eps |c_m|;
- d_m = c_m - top, within eps |d_m|;
- the LOG_TINY clamp, which drops a relative n e^-700 at most;
- exp, within kappa;
- the sum of at most n nonzero terms, n the row's nonzero levels: a
  relative n eps in any order;
- its log, within kappa log n;
- top plus that log, within eps |result|.
Weighted by the terms' shares p_m, the perturbations of the logs add up to
at most (kappa + eps) |u| D + eps (|top| + 2 H) + kappa.  Here D is the mean
degree, H = -sum p_m log p_m <= log n is the shares' entropy and
|top| <= |R| + log n, R being the computed log sum.  To first order,

    |g~ - g| <= (kappa + eps) |u| D + 2 eps |R| + (kappa + 3 eps) log n + kappa + n eps.

_error_bound doubles this, for the second-order terms and for D, u and R
taken as computed.  Moving away from the zone, g changes at rate D >= 1.
The bound changes far more slowly: below L, by at most (kappa + eps) D per
unit of u; above U, by at most (kappa + eps) |u| Var(degree) <= 2^-48 |u| w D,
w the highest degree, which is far below D for |u| <= 693 (ZONE_FLOOR) and
any w below 2^30.  So both certified decisions carry to every midpoint
beyond the zone.
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
    _as_int,
    _fwht_inplace,
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

#: Nats below a kept term at which _parseval_cut cuts: 45 beyond LOG_TINY, for the bound's rounding.
CUT_NATS = 745.0

#: Leading bits kept of each big integer factor of a level weight (_level_row).
HEAD_BITS = 128

#: Most Newton steps of the warm start; a row that has not converged only fails its certificate.
NEWTON_STEPS = 8

#: Least half-width, in log rho, of a warm-start zone.
ZONE_MIN = 2.0**-46

#: Least lower end of a certified zone; rows with smaller roots are bisected from [0, 1].
ZONE_FLOOR = 2.0**-1000

_LOG2 = math.log(2.0)

#: Unit roundoff of a double, and the relative error allowed for each numpy
#: float64 exp and log (which numpy validates to 1 ulp) in the error bound.
_EPS = 2.0**-53
_KAPPA = 2.0**-50


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


def _bisect(below, lo, hi, iterations=0):
    """Halve every bracket [lo, hi] until its midpoint equals one of its ends.

    ``lo`` and ``hi`` are arrays of one shape (0-d allowed); ``below(mid)``
    is True where the root lies above ``mid``.  It sees every bracket, the
    finished ones too: their midpoint is one of their ends, so moving an end
    to it changes neither that midpoint nor the bracket's halving count.
    Stopping only when a bracket cannot shrink in doubles puts each root
    within one ulp.  ``iterations`` counts the halvings that made the given
    brackets.  Returns the roots and the number of halvings of each bracket.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    iterations = np.zeros(lo.shape, dtype=np.int64) + iterations
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
    -inf inputs.  With ``slope`` the map also returns the mean degree
    sum_m m W_m rho^m / sum_m W_m rho^m of the computed terms, the derivative
    of the log sum in log rho.  The work arrays are allocated once and reused
    by every call; each call returns fresh arrays.
    """
    powers = np.arange(1.0, log_tail.shape[1] + 1.0)
    terms = np.empty(log_tail.shape)
    keep = np.empty(log_tail.shape, dtype=bool)
    top = np.empty(log_tail.shape[0])

    def tail_sums(rho: np.ndarray, slope: bool = False):
        np.multiply(powers, np.log(rho)[:, None], out=terms)
        np.add(log_tail, terms, out=terms)
        np.maximum.reduce(terms, axis=1, out=top)
        np.subtract(terms, top[:, None], out=terms)
        np.greater_equal(terms, LOG_TINY, out=keep)
        np.maximum(terms, LOG_TINY, out=terms)
        np.exp(terms, out=terms)
        np.multiply(terms, keep, out=terms)
        sums = np.add.reduce(terms, axis=1)
        log_sums = top + np.log(sums)
        if not slope:
            return log_sums
        np.multiply(terms, powers, out=terms)
        return log_sums, np.add.reduce(terms, axis=1) / sums

    return tail_sums


def _error_bound(count):
    """The map (log sum, slope, log rho) -> bound on |computed - exact| of the
    tail_sums values of rows with ``count`` nonzero levels; see the module docstring."""
    floor = (_KAPPA + 3.0 * _EPS) * np.log(count) + _KAPPA + count * _EPS

    def bound(log_sum, slope, log_rho):
        return 2.0 * ((_KAPPA + _EPS) * np.abs(log_rho) * slope + 2.0 * _EPS * np.abs(log_sum) + floor)

    return bound


def _halving_depth(width):
    """The largest k with 2^-k >= width, for exact widths in (0, 1]."""
    frac, e = np.frexp(width)
    return np.where(frac == 0.5, 1 - e, -e)


def _cell_midpoint(low, high):
    """Midpoint of the deepest dyadic cell [j 2^-k, (j + 1) 2^-k] that holds
    [low, high], for 0 <= low < high <= 1 with high - low exact.

    The cell of the largest k with 2^-k >= high - low that holds low holds
    the zone too, unless its upper end lies below high.  The zone then
    straddles that end, and the deepest cell holding it is centred there."""
    k = _halving_depth(high - low)
    j = np.floor(np.ldexp(low, k))
    end = np.ldexp(j + 1.0, -k)
    return np.where(end >= high, np.ldexp(j + 0.5, -k), end)


def _warm_start(sums, log_tail: np.ndarray, b: np.ndarray):
    """Start brackets of the bisection of sums(rho) < b, with the zone of each row.

    Returns (lo, hi, halvings, low, high): [lo, hi] is the bracket that a
    bisection from [0, 1] reaches after ``halvings`` halvings, and a midpoint
    at or below ``low`` (at or above ``high``) is decided without evaluating
    it.  A row whose zone is not certified gets [0, 1], 0 and zone (0, 1).
    """
    width = log_tail.shape[1]
    bound = _error_bound(np.sum(log_tail > -math.inf, axis=1))
    # where one term alone reaches the target, g >= 0: Newton from there only falls
    start = np.subtract(b[:, None], log_tail)
    start /= np.arange(1.0, width + 1.0)  # in place: one block-sized temporary
    u = np.minimum(0.0, start.min(axis=1))
    for _ in range(NEWTON_STEPS):
        rho = np.exp(u)
        value, slope = sums(rho, True)
        u = np.log(rho)
        noise = bound(value, slope, u) / slope
        step = (value - b) / slope
        u = u - step
        # from the convex side the step leaves an error of at most width step^2 / 2
        left = width * step * step
        if not np.any(left > noise):
            break
    half = np.maximum(3.0 * noise + left, ZONE_MIN)
    low, high = np.exp(u - half), np.minimum(np.exp(u + half), 1.0)
    at_low, at_high, mid = sums(low, True), sums(high, True), _cell_midpoint(low, high)
    ok = (
        (at_low[0] + 2.0 * bound(*at_low, np.log(low)) < b)
        & (at_high[0] - 2.0 * bound(*at_high, np.log(high)) > b)
        # a zone this narrow has exact widths and representable cell ends and midpoints
        & (low >= ZONE_FLOOR)
        & (high - low <= 0.25 * high)
        & (high - low >= 0.5 * ZONE_MIN * high)
    )
    # the bisection evaluates mid first; the zone's side of it then starts deep
    up = sums(mid) < b
    depth = _halving_depth(np.where(up, high - mid, mid - low))
    cell = np.ldexp(1.0, -depth)
    lo, hi = np.where(up, mid, mid - cell), np.where(up, mid + cell, mid)
    low, high = np.where(up, mid, low), np.where(up, high, mid)
    return (
        np.where(ok, lo, 0.0),
        np.where(ok, hi, 1.0),
        np.where(ok, depth, 0),
        np.where(ok, low, 0.0),
        np.where(ok, high, 1.0),
    )


def _warm_bisection(log_tail: np.ndarray, b: np.ndarray):
    """Roots in (0, 1) of log sum_{m>=1} W_m rho^m = b and their halvings, by _bisect
    from the brackets of _warm_start, evaluating only the midpoints inside a zone."""
    sums = _tail_sums(log_tail)
    # finished brackets may sit at 0, and a failed warm start may meet log 0 or inf - inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, halvings, low, high = _warm_start(sums, log_tail, b)

        def below(mid):
            # the zone shrinks with the bracket, so a finished bracket needs no evaluation
            nonlocal low, high
            up, need = mid <= low, (mid > low) & (mid < high)
            if need.any():
                up = np.where(need, sums(mid) < b, up)
                low, high = np.where(need & up, mid, low), np.where(need & ~up, mid, high)
            return up

        return _bisect(below, lo, hi, halvings)


def _solve_reduced(log_tail: np.ndarray, log_target: np.ndarray):
    """Solve sum_{m>=1} W_m rho^m = target on [0, 1] for every row, from logs.

    log_tail[r, m-1] = log W_m and log_target[r] = log target of row r.  Rows
    without weight above level 0 are constants and get +inf.  A row whose
    weights reach its target within UNIT_RADIUS_TOL gets 1.0; the others are
    bisected to one ulp from the certified warm start, which leaves the
    residual far below the 1e-10 contract even for flat, high-degree
    majorants.  A row that is no function profile, a constant one too, raises
    ValueError.  Returns radius, residual and iterations per row.
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
    if inner.size:
        rho[inner], iterations[live[inner]] = _warm_bisection(tail[inner], target[inner])
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


def _parseval_cut(n: int, j: int, lj: float, log_scale: float) -> int:
    """M, the last level that a row of level logs must keep, for its lowest
    nonzero level j >= 1, lj = log(W_j / t) over the target t and log_scale =
    log(t / G), G >= ||g||_2 (a sup norm passed unchecked is none).

    The root is at most rho_c = e^log_rho, log_rho = min(0, -lj / j), where term
    j alone reaches the target (or 1).  By Parseval W_m <= G sqrt(binom(n, m)),
    so at rho_c term m is at most e^f(m) times term j, f(m) = 0.5 log binom(n,
    m) + (m - j) log_rho - lj - log_scale, concave with f(j) >= 0; M is the first
    m > j with f(m) < -CUT_NATS, less one.  The full row's bits stay: near and below
    rho_c the tail-sum evaluator zeroes a skipped term (e^-745 below term j),
    further up term j alone passes the target in both rows, and numpy's
    pairwise sum splits at exact halves, so padding to _block_width(M) sums
    to the bits of padding to _block_width(n).
    """
    log, half_log_binom, log_rho, floor = math.log, 0.0, min(0.0, -lj / j), lj + log_scale - CUT_NATS
    for m in range(1, n + 1):
        half_log_binom += 0.5 * log((n - m + 1) / m)
        if m > j and half_log_binom + (m - j) * log_rho < floor:
            return m - 1
    return n


def _log_norm_bound(n: int, pairs) -> float:
    """Upper bound on log ||g||_2 from the bit lengths, |p / q| < 2^(len p + 1 - len q), some p nonzero."""
    lengths = np.array([(p.bit_length(), q.bit_length()) for p, q in pairs], dtype=float).T
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(np.arange(n, 0.0, -1.0) / np.arange(1.0, n + 1.0)))))
    terms = np.where(lengths[0] > 0, log_binom + 2.0 * _LOG2 * (lengths[0] + 1.0 - lengths[1]), -math.inf)
    return 0.5 * float(np.logaddexp.reduce(terms))


def _level_row(n: int, num: int, den: int, levels, log_scale: float) -> list:
    """log(W_m / t), m = 1..M, for W_m / t = num a_m / (m den b_m) and the exact pairs (a_m >= 0, b_m > 0)
    that ``levels`` yields for m = 1, 2, ..., each one _log_ratio of the HEAD_BITS-bit heads x >> s of the
    four factors, shifts summed.  A head is x 2^-s (1 - e), 0 <= e < 2^(1 - HEAD_BITS): the quotient moves
    under 2^(3 - HEAD_BITS) relative, far below a double's rounding, and one ratio factored with other powers
    of two has one quotient in (1/2, 2) and exponent.  M is the _parseval_cut at the lowest nonzero level,
    log_scale = log(t / G), G >= ||g||_2; no pair past M is taken (all n for an all-zero row)."""
    sn, sd = (max(x.bit_length() - HEAD_BITS, 0) for x in (num, den))  # bits dropped
    num, den, shift, logs, cut = num >> sn, den >> sd, sn - sd, [], None
    for m, (a, b) in enumerate(levels, 1):
        if a:
            sa, sb = a.bit_length() - HEAD_BITS, b.bit_length() - HEAD_BITS
            sa, sb = sa if sa > 0 else 0, sb if sb > 0 else 0  # bits dropped; max() would add two calls per level
            logs.append(_log_ratio(num * (a >> sa), m * den * (b >> sb), shift + sa - sb))
            cut = cut or _parseval_cut(n, m, logs[-1], log_scale)
        else:
            logs.append(-math.inf)
        if m == cut:
            break
    return logs


def boolean_radius_symmetric(s: SymmetricSpectrum, sup: float) -> RadiusResult:
    """Radius of a permutation-invariant function from its per-level spectrum.

    Over t = sup - |g_hat([0])|, binom(n, m) = n binom(n - 1, m - 1) / m makes W_m / t
    the _level_row of n den(t), num(t) and (binom(n - 1, m - 1) |p_m|, q_m), (p_m, q_m)
    the level's pair, with ||g||_2 bounded from the pairs: on a threshold spectrum, the
    threshold row's factors up to powers of two.  The residual is scaled back by t."""
    if _finite_sup(sup) <= 0:
        raise ValueError("sup norm must be positive")
    t = Fraction(sup) - abs(Fraction(*s._pairs[0]))
    # t <= 0 only reaches _solve_reduced's profile checks, through the target
    tn, td = (abs(t) or Fraction(1)).as_integer_ratio()
    levels = ((b * abs(p), q) for b, (p, q) in zip(_binomials(s.n - 1), s._pairs[1:]))
    logs = _level_row(s.n, s.n * td, tn, levels, _log_ratio(tn, td, 0) - _log_norm_bound(s.n, s._pairs))
    tail = np.array(logs + [-math.inf] * (_block_width(len(logs)) - len(logs)))
    result = _one_radius(tail, 0.0 if t > 0 else -math.inf if t == 0 else math.nan)
    return replace(result, residual=result.residual * (tn / td))


def class_radius(profiles) -> float:
    """inf of rho(f) over a class: minimum finite member radius, +inf if none is finite."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("class_radius needs at least one profile")
    return min(boolean_radius(p).radius for p in profiles)


def bn_radius_formula(N: int) -> float:
    """Exact radius 2^{1/N} - 1 of the class of all functions on {-1,+1}^N."""
    N = _as_int("N", N)
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
    enumerated: the first minimizer lies there.  Table k = lo + 2^h hi (h =
    2^N / 2) is half-tables lo and hi side by side, so its butterfly is the
    last stage (a + b, a - b) on their two batched butterflies (2^h + 2^(h-1)
    rows); only the distinct level profiles (172 at N = 4) are solved.

    The matching lower-bound argument for 2^(1/N) - 1 covers all real-valued
    functions, so the +-1-valued sweep is a confirmation, not an independent
    optimization.
    """
    N = _as_int("N", N)
    if not 1 <= N <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to 1 <= N <= {BRUTE_FORCE_MAX_N}")
    points = 2**N
    h = points // 2
    table = lambda ks, width: 1.0 - 2.0 * ((ks[..., None] >> np.arange(width, dtype=np.uint64)) & 1)
    low, high = (_fwht_inplace(table(np.arange(2**k, dtype=np.uint64), h)) for k in (h, h - 1))
    spectra = np.empty((high.shape[0], low.shape[0], points))
    np.add(low, high[:, None], out=spectra[..., :h])
    np.subtract(low, high[:, None], out=spectra[..., h:])
    spectra /= points
    sums = _level_sums(spectra.reshape(-1, points), np.abs)
    # distinct rows by their bytes; each is solved on its own, so their order does not matter
    rows = sums.view(np.dtype((np.void, sums.itemsize * sums.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    rho = _dense_radii(sums[first], 1.0)[inverse]
    i = int(np.argmin(rho))  # ties resolve to the smallest enumeration index
    return float(rho[i]), BooleanFunction(N, table(np.uint64(i), points))


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
    N, m = _as_int("N", N), _as_int("m", m)
    trials, seed = _as_int("trials", trials), _as_int("seed", seed)
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    if N > 20:
        raise ValueError("scan is capped at N <= 20")
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed = {seed}")
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
