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
positive and the right-hand side is computed exactly on the rational-backed
symmetric path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube import (
    BooleanFunction,
    Spectrum,
    SymmetricSpectrum,
    _fwht_inplace,
    inverse_walsh,
    log_abs_fraction,
    subset_levels,
    sup_norm,
    walsh_transform,
)

#: |P(radius) - sup| must not exceed RESIDUAL_TOL * max(1, sup) for finite results.
RESIDUAL_TOL = 1e-10

#: Relative equality slack recognising radius == 1 (sum of weights == sup norm).
UNIT_RADIUS_TOL = 1e-10

#: Relative shortfall of sum(W) below sup treated as a non-function profile.
PROFILE_TOL = 1e-9

#: Switch the majorant to log-domain evaluation above this log weight.
LOG_DOMAIN_CUTOFF = 700.0


@dataclass(frozen=True)
class LevelProfile:
    """Per-degree absolute coefficient sums W_m plus the matching sup norm.

    The linear ``weights`` view may hold inf where a weight exceeds double
    range; ``log_weights`` is then the authoritative view.
    """

    n: int
    weights: np.ndarray
    log_weights: np.ndarray
    sup_norm: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if w.shape != (self.n + 1,) or lw.shape != (self.n + 1,):
            raise ValueError("weights and log_weights must have one entry per level 0..n")
        if np.any(w < 0) or np.any(np.isnan(w)):
            raise ValueError("level weights must be nonnegative")
        if self.sup_norm < 0:
            raise ValueError("sup norm must be nonnegative")
        for m in range(self.n + 1):
            if w[m] == 0 and lw[m] != -math.inf:
                raise ValueError(f"level {m}: zero weight needs log weight -inf")
            if 0 < w[m] < math.inf and not math.isclose(math.log(w[m]), lw[m], rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(f"level {m}: weights and log_weights disagree")
        w = w.copy()
        lw = lw.copy()
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
    method: str  # bisection | closed_form | brute_force

    def __post_init__(self):
        if self.method not in ("bisection", "closed_form", "brute_force"):
            raise ValueError(f"unknown method {self.method!r}")


def level_profile(s: Spectrum, sup: float) -> LevelProfile:
    """Regroup |fhat(S)| by |S|; ``sup`` is the sup norm of the matching function."""
    if sup < 0:
        raise ValueError("sup norm must be nonnegative")
    w = np.zeros(s.n + 1)
    np.add.at(w, subset_levels(s.n), np.abs(s.coeffs))
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    return LevelProfile(s.n, w, lw, float(sup))


def majorant(p: LevelProfile, rho: float) -> float:
    """P(rho) = sum_m W_m rho^m, in the log domain once any log weight exceeds 700."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ms = np.arange(p.n + 1, dtype=float)
    if np.max(p.log_weights) <= LOG_DOMAIN_CUTOFF:
        return float(np.sum(p.weights * rho**ms))
    lp = _logsumexp(p.log_weights + _safe_mlog(ms, rho))
    return math.exp(lp) if lp <= 709.0 else math.inf


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.sum(np.exp(a - m))))


def _safe_mlog(ms: np.ndarray, rho: float) -> np.ndarray:
    # m * log(rho) with the convention 0 * log(0) = 0 (the constant term survives rho = 0)
    if rho == 0.0:
        out = np.full(ms.shape, -math.inf)
        out[ms == 0] = 0.0
        return out
    return ms * math.log(rho)


def _solve_reduced(log_tail: np.ndarray, log_target: float) -> RadiusResult:
    """Bisect sum_{m>=1} W_m rho^m = target on [0, 1] given logs of both sides.

    log_tail[m-1] = log W_m.  The left side is increasing in rho, so plain
    bisection converges; iteration stops only when the bracket cannot shrink
    in doubles, which puts the root error at one ulp and the residual far
    below the 1e-10 contract even for flat, high-degree majorants.
    """
    ms = np.arange(1, len(log_tail) + 1, dtype=float)

    def log_s(rho: float) -> float:
        return _logsumexp(log_tail + ms * math.log(rho)) if rho > 0.0 else -math.inf

    if log_target == -math.inf:
        raise ValueError("constant part equals the sup norm on a nonconstant profile")
    ls1 = log_s(1.0)
    if ls1 < log_target + math.log1p(-PROFILE_TOL):
        raise ValueError("sum of level weights falls below the sup norm; not a function profile")
    if ls1 <= log_target + math.log1p(UNIT_RADIUS_TOL):
        return RadiusResult(1.0, abs(math.exp(ls1) - math.exp(log_target)), 0, "bisection")
    lo, hi, iters = 0.0, 1.0, 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iters += 1
        if log_s(mid) < log_target:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    residual = abs(math.exp(log_s(rho)) - math.exp(log_target))
    return RadiusResult(rho, residual, iters, "bisection")


def boolean_radius(p: LevelProfile) -> RadiusResult:
    """Boolean radius of a level profile.

    Constant and zero functions (no weight above level 0) get radius +inf:
    the defining equation P(rho) = sup has no root there.
    """
    if np.all(p.log_weights[1:] == -math.inf):
        return RadiusResult(math.inf, 0.0, 0, "closed_form")
    if p.sup_norm <= 0:
        raise ValueError("nonconstant profile with zero sup norm is not a function profile")
    if p.weights[0] > p.sup_norm * (1.0 + PROFILE_TOL):
        raise ValueError("constant coefficient exceeds the sup norm; not a function profile")
    target = p.sup_norm - min(p.weights[0], p.sup_norm)
    log_target = math.log(target) if target > 0 else -math.inf
    return _solve_reduced(p.log_weights[1:], log_target)


def boolean_radius_symmetric(s: SymmetricSpectrum, sup: float) -> RadiusResult:
    """Radius of a permutation-invariant function from its per-level spectrum.

    Level weights are binom(n, m) |g_hat([m])|, assembled in the log domain,
    so any n (2001 and beyond) works without dense tables.  The reduced
    target sup - |g_hat([0])| is computed in exact rational arithmetic.
    """
    if sup <= 0:
        raise ValueError("sup norm must be positive")
    n = s.n
    log_tail = np.array(
        [
            math.log(math.comb(n, m)) + s.log_abs[m] if s.level_coeffs[m] != 0 else -math.inf
            for m in range(1, n + 1)
        ]
    )
    if np.all(log_tail == -math.inf):
        return RadiusResult(math.inf, 0.0, 0, "closed_form")
    target = Fraction(sup) - abs(s.level_coeffs[0])
    if target < 0:
        raise ValueError("constant coefficient exceeds the sup norm; not a function profile")
    return _solve_reduced(log_tail, log_abs_fraction(target))


def class_radius(profiles) -> float:
    """inf of rho(f) over a class: minimum finite member radius, +inf if none is finite."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("class_radius needs at least one profile")
    best = math.inf
    for p in profiles:
        r = boolean_radius(p).radius
        if r < best:
            best = r
    return best


def bn_radius_formula(N: int) -> float:
    """Exact radius 2^{1/N} - 1 of the class of all functions on {-1,+1}^N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return 2.0 ** (1.0 / N) - 1.0


# -- exhaustive confirmation over +-1-valued tables -------------------------

BRUTE_FORCE_MAX_N = 4


def _radius_batch(tables: np.ndarray, n: int) -> np.ndarray:
    """Vectorized radii of a batch of +-1 tables (rows).  Constants get +inf."""
    count = tables.shape[0]
    coeffs = _fwht_inplace(tables.astype(float)) / 2**n
    lv = subset_levels(n)
    w = np.zeros((count, n + 1))
    for m in range(n + 1):
        w[:, m] = np.abs(coeffs[:, lv == m]).sum(axis=1)
    tail = w[:, 1:]
    target = 1.0 - np.minimum(w[:, 0], 1.0)
    lo = np.zeros(count)
    hi = np.ones(count)
    pw = np.arange(1, n + 1, dtype=float)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = (tail * mid[:, None] ** pw[None, :]).sum(axis=1) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    rho = 0.5 * (lo + hi)
    rho = np.where(tail.sum(axis=1) <= target * (1.0 + UNIT_RADIUS_TOL), 1.0, rho)
    rho = np.where(tail.sum(axis=1) == 0.0, math.inf, rho)
    return rho


def _brute_chunk(n: int, start: int, stop: int):
    points = 2**n
    ks = np.arange(start, stop, dtype=np.uint64)
    bits = (ks[:, None] >> np.arange(points, dtype=np.uint64)[None, :]) & 1
    tables = 1.0 - 2.0 * bits
    rho = _radius_batch(tables, n)
    i = int(np.argmin(rho))  # ties resolve to the smallest enumeration index
    return float(rho[i]), start + i, tables[i]


def brute_force_bn_radius(N: int, workers: int = 1):
    """Minimum radius over every nonconstant +-1-valued function on {-1,+1}^N.

    Enumerates all 2^(2^N) sign tables (N <= 4), table entry j of function k
    being +1 when bit j of k is clear.  Returns (radius, minimizer) with ties
    broken by the first table in enumeration order.  The search space is
    partitioned into ``workers`` chunks and merged by minimum, so the result
    does not depend on the worker count.

    The matching lower-bound argument for 2^(1/N) - 1 covers all real-valued
    functions, so the +-1-valued sweep is a confirmation, not an independent
    optimization.
    """
    if not 1 <= N <= BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to 1 <= N <= {BRUTE_FORCE_MAX_N}")
    workers = max(1, int(workers))
    total = 2 ** (2**N)
    bounds = np.linspace(0, total, workers + 1, dtype=np.int64)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    if len(spans) == 1:
        results = [_brute_chunk(N, *spans[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda ab: _brute_chunk(N, *ab), spans))
    best = min(results, key=lambda t: (t[0], t[1]))
    return best[0], BooleanFunction(N, best[2])


def homogeneous_class_scan(N: int, m: int, trials: int, seed: int, workers: int = 1) -> float:
    """Upper-bound witness search for the m-homogeneous class radius.

    Draws ``trials`` random-sign m-homogeneous functions with unit
    coefficients, solves each radius exactly (sup norms from full tables) and
    returns the minimum: an upper-bound estimate for the class radius.  Each
    trial uses its own substream keyed by (seed, trial), so the outcome is
    independent of how trials are spread over workers.
    """
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    if N > 20:
        raise ValueError("scan is capped at N <= 20")
    if trials < 1:
        raise ValueError("need at least one trial")
    lv = subset_levels(N)
    mask = lv == m

    def one(trial: int) -> float:
        rng = np.random.default_rng([seed, trial])
        coeffs = np.zeros(2**N)
        coeffs[mask] = rng.choice([-1.0, 1.0], size=int(mask.sum()))
        f = inverse_walsh(Spectrum(N, coeffs))
        return boolean_radius(level_profile(walsh_transform(f), sup_norm(f))).radius

    workers = max(1, int(workers))
    if workers == 1:
        return min(one(t) for t in range(trials))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return min(pool.map(one, range(trials)))
