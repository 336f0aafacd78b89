"""Machine verification of the spectral inequalities over constructed and random functions.

Each check is written once, over a block of truth tables shaped
``(rows, 2^n)``, and returns the margin RHS - LHS of every row (negative
beyond the numerical slack counts as a failure).  The public per-function
checks call it on a block of one row and return a one-sample report.
``run_suite`` stacks the named families and the seeded random draws of each
dimension into blocks, transforms every block once and evaluates each
requested suite on it as array margins; under ``all`` the suites share the
blocks.  Proven inequalities must come back with zero failures; the
Bohnenblust-Hille-type quantity and the degree-d Wiener ratio are
open-constant scans and are reported, never asserted.

A row's margins do not depend on the block it sits in.  The transform, level
sums, p-norms and degrees are the block routines of ``cube`` and ``radius``,
whose one-row cases are ``walsh_transform``, ``level_profile``, ``p_norm`` and
``degree``; the other per-row reductions run in the order of the one-function
arithmetic (sums over a coefficient subset are taken over a contiguous copy in
bitmask order), and every scalar power goes through libm ``pow`` (``cube._pow``).
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

# walsh_transform is not called here; perfbench/test_spans.py reads it from this module
from .cube import (
    BooleanFunction, _as_int, _degrees, _fwht_inplace, _p_norms, _pow, _walsh_rows, subset_levels, walsh_transform
)
from .families import (
    _sign_draw,
    biased_indicator,
    dictator,
    extremal_indicator_flip,
    majority,
    parity,
    threshold,
    ThresholdSpec,
)
from .radius import _dense_radii, _level_sums

#: Numerical slack: sides are sums of at most 2^14 double terms.
SLACK = 1e-9

#: Most doubles in one block of truth tables (128 KiB).  A block's working
#: set is a few arrays of this size, whatever n_max and samples are.  Blocks
#: of 2^20 ran a suite pass about 10 % faster but raised its peak memory by
#: about 3 MB.
BLOCK_DOUBLES = 2**14

RANDOM_MODES = ("table_uniform", "boolean_pm1", "spectral_random", "low_degree")

#: Admissible (p, q) pairs exercised by the hypercontractivity suite.
HYPER_GRID = ((2.0, 4.0), (2.0, 3.0), (1.5, 3.0), (3.0, 6.0))

#: epsilon grid for the level-m suite.
EPSILON_GRID = tuple(i / 10.0 for i in range(1, 10))


@dataclass(frozen=True)
class InequalityReport:
    suite: str
    samples: int
    failures: int
    worst_margin: float
    witness: Optional[BooleanFunction]


# -- blocks of truth tables ---------------------------------------------------


class _Tables:
    """A block of truth tables on {-1,+1}^n, one function per row, with the
    per-row quantities the checks share, each computed once on demand."""

    def __init__(self, n: int, values: np.ndarray):
        self.n = n
        self.values = values

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    def take(self, rows) -> "_Tables":
        """The selected rows, keeping every quantity already computed."""
        out = _Tables(self.n, self.values[rows])
        for name, value in vars(self).items():
            if name not in ("n", "values", "levels"):
                setattr(out, name, value[rows])
        return out

    @cached_property
    def levels(self) -> np.ndarray:
        """|S| of every coefficient column."""
        return subset_levels(self.n)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return _walsh_rows(self.values)

    @cached_property
    def sup(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=1)

    @cached_property
    def mean(self) -> np.ndarray:
        return np.mean(self.values, axis=1)

    @cached_property
    def degree(self) -> np.ndarray:
        return _degrees(self.coeffs, self.levels)

    @cached_property
    def constant(self) -> np.ndarray:
        return np.ptp(self.values, axis=1) == 0.0


def _exp(x: np.ndarray) -> np.ndarray:
    return np.array([math.exp(v) for v in x.tolist()], dtype=float)


def _degree_groups(levels: np.ndarray, d: np.ndarray, lowest: int):
    """(rows, columns, cap) per distinct cap in d: the rows with that cap and the
    subsets with lowest <= |S| <= cap, in bitmask order."""
    for cap in np.unique(d).tolist():
        yield np.flatnonzero(d == cap), np.flatnonzero((levels >= lowest) & (levels <= cap)), cap


def _require(ok: np.ndarray, message: str) -> None:
    if not np.all(ok):
        raise ValueError(message)


def _require_degree(t: _Tables, d: np.ndarray, message: str) -> None:
    bad = np.flatnonzero(t.degree > d)
    if bad.size:
        raise ValueError(message.format(degree=t.degree[bad[0]], d=d[bad[0]]))


def _check(rhs, lhs):
    """Margins RHS - LHS and whether each falls short by more than the slack."""
    margin = rhs - lhs
    return margin, margin < -SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _single(suite: str, f: BooleanFunction, check, *args) -> InequalityReport:
    """The one-sample report of ``check`` on the block of f alone."""
    margin, fail = check(_Tables(f.n, f.values[None, :]), *args)
    return InequalityReport(suite, 1, int(fail[0, 0]), float(margin[0, 0]), f)


# -- draws ----------------------------------------------------------------------


def _draw_tables(N: int, seeds, mode: str, d: int) -> np.ndarray:
    """One row per seed, drawn as ``random_bounded_function`` describes; the
    spectral modes share one butterfly."""
    size = 2**N
    out = np.zeros((len(seeds), size))
    support = np.flatnonzero(subset_levels(N) <= min(d, N))
    for row, seed in zip(out, seeds):
        rng = np.random.default_rng(seed)
        if mode == "boolean_pm1":
            row[:] = _sign_draw(rng, size)
        elif mode == "table_uniform":
            row[:] = rng.uniform(-1.0, 1.0, size=size)
        elif mode == "spectral_random":
            row[:] = rng.normal(size=size)
        else:
            row[support] = rng.normal(size=support.size)
    if mode == "boolean_pm1":
        return out
    if mode in ("spectral_random", "low_degree"):
        _fwht_inplace(out)
    top = np.max(np.abs(out), axis=1, keepdims=True)
    return np.divide(out, top, out=out, where=top > 0)


def random_bounded_function(N: int, seed, mode: str, d: int = 3) -> BooleanFunction:
    """Seeded random function with sup norm <= 1 (rescaled to 1 unless zero).

    Modes: uniform values, random sign table, random dense spectrum, or a
    random spectrum supported on levels <= d.  ``seed`` may be anything
    numpy's default_rng accepts, including (seed, index) sequences.
    """
    N, d = _as_int("N", N), _as_int("d", d)
    if not 1 <= N <= 14:
        raise ValueError("random draws are capped at N <= 14")
    if mode not in RANDOM_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return BooleanFunction(N, _draw_tables(N, [seed], mode, d)[0])


# -- the checks, each over a block ------------------------------------------------


def _wiener(t: _Tables):
    _require(t.sup <= 1.0 + SLACK, "wiener pair check needs ||f||_inf <= 1")
    top = np.partition(np.abs(t.coeffs), t.values.shape[1] - 2, axis=1)[:, -2:]
    return _check(1.0, (top[:, 0] + top[:, 1])[:, None])


def wiener_pair_check(f: BooleanFunction) -> InequalityReport:
    """|fhat(A)| + |fhat(B)| <= 1 for every pair A != B, given ||f||_inf <= 1.

    The max over pairs is the sum of the two largest absolute coefficients.
    """
    return _single("wiener", f, _wiener)


def _split(t: _Tables):
    c0 = t.mean[:, None]
    half = 0.5 * (t.values - c0)
    lhs = np.max(np.abs(c0 + half) + np.abs(half), axis=1)
    return _check(t.sup[:, None], lhs[:, None])


def split_pointwise_check(f: BooleanFunction) -> InequalityReport:
    """|fhat({}) + h(x)| + |h(x)| <= ||f||_inf at every x, h = (f - fhat({}))/2."""
    return _single("split", f, _split)


def _caratheodory(t: _Tables):
    _require(t.sup <= 1.0 + SLACK, "caratheodory check needs ||f||_inf <= 1")
    lhs = np.mean(np.abs(t.values - t.mean[:, None]), axis=1)
    rhs = 2.0 * (1.0 - np.abs(t.mean))
    return _check(rhs[:, None], lhs[:, None])


def caratheodory_check(f: BooleanFunction) -> InequalityReport:
    """E|f - fhat({})| <= 2 (1 - |fhat({})|) for ||f||_inf <= 1."""
    return _single("caratheodory", f, _caratheodory)


def caratheodory_sharpness(lambdas, p: float):
    """Rows (lambda, ratio) with ratio = ((2-2L)^p L + (2L)^p (1-L))^{1/p} / (4L).

    The denominator is the two-sided bound 2 * (2 lambda) of the averaged
    inequality; at p = 1 the ratio is exactly 1 - lambda (so it climbs to 1
    as lambda -> 0, which is why the constant 2 cannot be improved), while
    for any p > 1 it blows up as lambda -> 0 (no p > 1 version exists).
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got p = {p}")
    rows = []
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"need 0 < lambda <= 1, got lambda = {lam}")
        lhs = ((2.0 - 2.0 * lam) ** p * lam + (2.0 * lam) ** p * (1.0 - lam)) ** (1.0 / p)
        rows.append((float(lam), lhs / (4.0 * lam)))
    return rows


def _degree_l2(t: _Tables, d: np.ndarray):
    _require(t.sup <= 1.0 + SLACK, "degree-l2 check needs ||f||_inf <= 1")
    _require_degree(t, d, "function has degree {degree} > d = {d}")
    energy = np.empty(t.rows)
    for rows, cols, _ in _degree_groups(t.levels, d, 1):
        energy[rows] = np.sum(np.take(t.coeffs[rows], cols, axis=1) ** 2, axis=1)
    rhs = 2.0 * _exp(d) * (1.0 - np.abs(t.coeffs[:, 0]))
    return _check(rhs[:, None], np.sqrt(energy)[:, None])


def degree_l2_check(f: BooleanFunction, d: int) -> InequalityReport:
    """(sum_{0<|S|<=d} fhat(S)^2)^{1/2} <= 2 e^d (1 - |fhat({})|) for ||f||_inf <= 1."""
    return _single("degree-l2", f, _degree_l2, np.array([d]))


def _norm_comparison(t: _Tables, d: np.ndarray):
    _require_degree(t, d, "degree exceeds d")
    rhs = _exp(d) * _p_norms(t.values, 1.0)
    return _check(rhs[:, None], _p_norms(t.values, 2.0)[:, None])


def norm_comparison_check(f: BooleanFunction, d: int) -> InequalityReport:
    """||f||_2 <= e^d ||f||_1 for functions of degree at most d."""
    return _single("norm-comparison", f, _norm_comparison, np.array([d]))


def hypercontractive_bound(p: float, q: float) -> float:
    """Largest admissible noise rate sqrt((p-1)/(q-1)) for L_p -> L_q."""
    if not 1.0 <= p <= q:
        raise ValueError("need 1 <= p <= q")
    return 1.0 if p == q else math.sqrt((p - 1.0) / (q - 1.0))


#: (p, q, rho) checks of the hypercontractivity suite: rho at 0, half and all
#: of the admissible bound for each pair of HYPER_GRID.
HYPER_CHECKS = tuple(
    (p, q, rho)
    for p, q in HYPER_GRID
    for rho in (0.0, 0.5 * hypercontractive_bound(p, q), hypercontractive_bound(p, q))
)


def _hyper(t: _Tables, checks):
    """One column per (p, q, rho); one inverse butterfly per distinct nonzero rho.

    T_0 f is the constant fhat(empty), so rho = 0 repeats each row's first
    coefficient: the butterfly of (c_0, +-0, ...) gives c_0 in every entry,
    up to the sign of a zero, which _p_norms drops with its abs."""
    for p, q, rho in checks:
        bound = hypercontractive_bound(p, q)
        if not 0.0 <= rho <= bound + 1e-12:
            raise ValueError(f"rho = {rho} exceeds the admissible bound {bound} for ({p}, {q})")
    norms = {p: _p_norms(t.values, p) for p in dict.fromkeys(p for p, _, _ in checks)}
    lhs = np.empty((t.rows, len(checks)))
    rhs = np.empty_like(lhs)
    for rho in dict.fromkeys(rho for _, _, rho in checks):
        if rho == 0.0:
            smoothed = np.repeat(t.coeffs[:, :1], t.coeffs.shape[1], axis=1)  # contiguous, as a butterfly leaves it
        else:
            smoothed = _fwht_inplace(t.coeffs * rho**t.levels)
        for i, (p, q, r) in enumerate(checks):
            if r == rho:
                lhs[:, i] = _p_norms(smoothed, q)
                rhs[:, i] = norms[p]
    return _check(rhs, lhs)


def hypercontractivity_check(f: BooleanFunction, p: float, q: float, rho: float) -> InequalityReport:
    """||T_rho f||_q <= ||f||_p for rho within the admissible bound."""
    return _single("hyper", f, _hyper, [(p, q, rho)])


def _bh(t: _Tables, d: np.ndarray) -> np.ndarray:
    _require_degree(t, d, "degree exceeds d")
    _require(t.sup != 0, "zero function has no ratio")
    ratio = np.empty(t.rows)
    for rows, cols, cap in _degree_groups(t.levels, d, 0):
        e = 2.0 * cap / (cap + 1.0)
        total = np.sum(np.abs(np.take(t.coeffs[rows], cols, axis=1)) ** e, axis=1)
        ratio[rows] = _pow(total, 1.0 / e) / t.sup[rows]
    return ratio


def bh_ratio(f: BooleanFunction, d: int) -> float:
    """(sum_{|S|<=d} |fhat(S)|^{2d/(d+1)})^{(d+1)/2d} / ||f||_inf.

    Profiling quantity for the degree-d coefficient inequality; the constant
    there is existential, so the ratio is reported, never asserted.
    """
    return float(_bh(_Tables(f.n, f.values[None, :]), np.array([d]))[0])


def _cd_ratio(t: _Tables) -> np.ndarray:
    den = 1.0 - np.abs(t.mean)
    _require(den > 1e-12, "constant functions have no ratio")
    return np.max(np.abs(t.values - t.mean[:, None]), axis=1) / den


def wiener_degree_ratio(f: BooleanFunction) -> float:
    """||f - fhat({})||_inf / (1 - |fhat({})|): the open degree-d Wiener quantity.

    Whether this admits a degree-dependent constant is open; exploratory scan
    material only.
    """
    return float(_cd_ratio(_Tables(f.n, f.values[None, :]))[0])


def _level_m(t: _Tables, ms, epsilons):
    """One column per (m, epsilon), m-major, for f or -f, whichever has E >= 0:
    level energies are sign-blind, so delta = 1 - |fhat({})|."""
    if not all(0.0 < eps < 1.0 for eps in epsilons):
        raise ValueError("need 0 < epsilon < 1")
    if not all(1 <= m <= t.n for m in ms):
        raise ValueError("need 1 <= m <= n")
    _require(np.abs(t.sup - 1.0) <= 1e-9, "normalize to ||f||_inf = 1 first")
    delta = 1.0 - np.abs(t.coeffs[:, 0])
    _require(delta > 1e-12, "constant-one function excluded (delta = 0)")
    energy = np.sqrt(_level_sums(t.coeffs, np.square))[:, list(ms)]
    scale = np.array([[2.0 * eps ** (-m / 2.0) for eps in epsilons] for m in ms])
    bias = np.stack([_pow(delta / 2.0, 1.0 / (1.0 + eps)) for eps in epsilons], axis=1)
    rhs = (scale[None, :, :] * bias[:, None, :]).reshape(t.rows, -1)
    return _check(rhs, np.repeat(energy, len(epsilons), axis=1))


def level_m_bound_check(f: BooleanFunction, m: int, epsilon: float) -> InequalityReport:
    """(sum_{|S|=m} fhat(S)^2)^{1/2} <= 2 eps^{-m/2} (delta/2)^{1/(1+eps)}.

    Needs ||f||_inf = 1 and E[f] = 1 - delta with delta in (0, 1]; callers
    normalize so that E[f] >= 0.  Levels m >= 1 only: the level-0 statement
    fails for fhat (its proof substitutes g = (1-f)/2, which only matches f
    on nonempty sets).
    """
    if np.mean(f.values) < -1e-12:
        raise ValueError("normalize so that E[f] >= 0 first")
    return _single("level-m", f, _level_m, [_as_int("m", m)], [epsilon])


def _biased_radius(t: _Tables):
    _require(t.sup != 0, "zero function excluded")
    delta = 1.0 - np.abs(t.mean) / t.sup
    _require(delta > 1e-12, "constant functions excluded (delta = 0)")
    rho = _dense_radii(_level_sums(t.coeffs, np.abs), t.sup)
    bound = np.array([1.0 / (5.0 * math.sqrt(t.n) * math.sqrt(math.log(2.0 / x))) for x in delta.tolist()])
    return _check(rho[:, None], bound[:, None])


def biased_radius_lower_check(f: BooleanFunction) -> InequalityReport:
    """rho(f) >= 1 / (5 sqrt(N) sqrt(log(2/delta))), delta the exact bias gap.

    delta is the largest value with |E f| <= (1 - delta) ||f||_inf; constants
    (delta = 0) are excluded.
    """
    return _single("biased-radius", f, _biased_radius)


# -- suite driver ------------------------------------------------------------


def family_functions(N: int):
    """Deterministic list of (name, function) for the named families at dimension N."""
    N = _as_int("N", N)
    out = [
        ("extremal", extremal_indicator_flip(N)),
        ("dictator", dictator(N, 1)),
        ("parity-full", parity(N, range(1, N + 1))),
        ("constant", parity(N, ())),
    ]
    if N >= 2:
        out.append(("parity-pair", parity(N, (1, 2))))
        out.append(("biased-quarter", biased_indicator(N, 0.25)))
    out.append(("biased-point", biased_indicator(N, 2.0**-N)))
    if N % 2 == 1:
        out.append(("majority", majority(N)))
    else:
        out.append(("threshold-1", threshold(ThresholdSpec(N, 1))))
    if N >= 3:
        out.append((f"threshold-{N - 1}", threshold(ThresholdSpec(N, N - 1))))
    return out


class _Suite(NamedTuple):
    """A verify suite's check over a block, the rows it applies to, and whether
    it only reports.  An assertable check gives (margins, failures), each shaped
    (rows, checks per row); a report-only one gives one ratio per row."""

    check: Callable
    rows: Callable = lambda t: np.ones(t.rows, dtype=bool)
    report: bool = False


def _nonconstant(t: _Tables) -> np.ndarray:
    return ~t.constant


# In verify's order, read-only; ``all`` runs the assertable suites in this order.
SUITES = types.MappingProxyType({
    "wiener": _Suite(_wiener),
    "split": _Suite(_split),
    "caratheodory": _Suite(_caratheodory),
    "degree-l2": _Suite(lambda t: _degree_l2(t, np.maximum(t.degree, 1))),
    "norm-comparison": _Suite(lambda t: _norm_comparison(t, np.maximum(t.degree, 1))),
    "hyper": _Suite(lambda t: _hyper(t, HYPER_CHECKS)),
    "level-m": _Suite(lambda t: _level_m(t, range(1, t.n + 1), EPSILON_GRID), _nonconstant),
    "biased-radius": _Suite(_biased_radius, _nonconstant),
    "bh": _Suite(lambda t: _bh(t, np.maximum(t.degree, 1)), lambda t: t.sup != 0, True),
    "cd-ratio": _Suite(_cd_ratio, _nonconstant, True),
})

ASSERTABLE_SUITES = tuple(name for name, suite in SUITES.items() if not suite.report)
REPORT_SUITES = tuple(name for name, suite in SUITES.items() if suite.report)


def _suite_rows(suite: str, t: _Tables):
    """Per-row (samples, failures, margin) of one suite over a block; rows the
    suite does not apply to get 0 samples and a NaN margin."""
    check, rows, report = SUITES[suite]
    keep = rows(t)
    samples = np.zeros(t.rows, dtype=np.int64)
    failures = np.zeros(t.rows, dtype=np.int64)
    margin = np.full(t.rows, np.nan)
    if keep.any():
        out = check(t if keep.all() else t.take(keep))
        if report:  # never fails; the worst ratio is the largest
            samples[keep], margin[keep] = 1, out
        else:
            margins, fails = out
            samples[keep], failures[keep], margin[keep] = margins.shape[1], fails.sum(axis=1), margins.min(axis=1)
    return samples, failures, margin


class _Merge:
    """Merge of one suite's rows: sample and failure sums, and the worst margin
    (the largest for report suites) with the first item attaining it as witness."""

    def __init__(self, suite: str):
        self.suite = suite
        self.maximize = SUITES[suite].report
        self.samples = self.failures = 0
        self.worst = self.key = self.witness = None

    def add(self, t: _Tables, key_of, samples, failures, margin) -> None:
        self.samples += int(samples.sum())
        self.failures += int(failures.sum())
        rows = np.flatnonzero(~np.isnan(margin))
        if not rows.size:
            return
        i = int(rows[(np.argmax if self.maximize else np.argmin)(margin[rows])])
        value, key = float(margin[i]), key_of(i)
        if (
            self.worst is None
            or (value > self.worst if self.maximize else value < self.worst)
            or (value == self.worst and key < self.key)
        ):
            self.worst, self.key, self.witness = value, key, BooleanFunction(t.n, t.values[i])

    def report(self) -> InequalityReport:
        worst = 0.0 if self.witness is None else self.worst
        return InequalityReport(self.suite, self.samples, self.failures, worst, self.witness)


def _item_key(N: int, families: int, first: int, i: int):
    row = first + i
    return (0, N, row) if row < families else (1, N, row - families)


def _blocks(n_max: int, samples: int, seed: int, d: int):
    """Blocks of at most BLOCK_DOUBLES table values, each with its rows' item keys.

    Per N the rows are the named families (N <= 10), then the draws of
    substreams (seed, N, mode index, index) by mode and index, each drawn once.
    Item keys order the rows as the suite items run: every family, then every
    draw.
    """
    for N in range(1, n_max + 1):
        fams = [f.values for _, f in family_functions(N)] if N <= 10 else []
        draws = [len(fams) + k * samples for k in range(len(RANDOM_MODES) + 1)] if N >= 2 else [len(fams)]
        step = max(1, BLOCK_DOUBLES >> N)
        for a in range(0, draws[-1], step):
            b = min(a + step, draws[-1])
            tables = np.empty((b - a, 2**N))
            if a < len(fams):
                tables[: len(fams) - a] = fams[a:b]
            for k, mode in enumerate(RANDOM_MODES[: len(draws) - 1]):
                lo, hi = max(a, draws[k]), min(b, draws[k + 1])
                if lo < hi:
                    seeds = [[seed, N, k, r - draws[k]] for r in range(lo, hi)]
                    tables[lo - a : hi - a] = _draw_tables(N, seeds, mode, d)
            yield _Tables(N, tables), partial(_item_key, N, len(fams), a)


def run_suite(suite: str, n_max: int, samples: int, seed: int, d: int = 3) -> InequalityReport:
    """Drive one suite (or ``all``) over the families and seeded random draws.

    ``d`` caps the spectrum level of the low-degree draw mode.  Random draws
    use substreams keyed by (seed, N, mode, index), each drawn once and shared
    by every suite under ``all``.  The report merges by failure sum and worst
    margin, ties going to the first item (families N <= 10, then draws by N,
    mode, index).  Report-only suites carry the maximum observed ratio in
    ``worst_margin`` and never fail.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    n_max, samples = _as_int("n_max", n_max), _as_int("samples", samples)
    seed, d = _as_int("seed", seed), _as_int("d", d)
    if not 2 <= n_max <= 14:
        raise ValueError("need 2 <= n_max <= 14")
    if d < 1:
        raise ValueError("need d >= 1 for the low-degree draw mode")
    if samples < 1:
        raise ValueError(f"need samples >= 1 random draws per mode and dimension, got {samples}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed = {seed}")
    merges = [_Merge(s) for s in (ASSERTABLE_SUITES if suite == "all" else (suite,))]
    for t, key_of in _blocks(n_max, samples, seed, d):
        for merge in merges:
            merge.add(t, key_of, *_suite_rows(merge.suite, t))
    parts = [merge.report() for merge in merges]
    if suite != "all":
        return parts[0]
    worst = min(parts, key=lambda r: r.worst_margin)
    return InequalityReport(
        "all",
        sum(p.samples for p in parts),
        sum(p.failures for p in parts),
        worst.worst_margin,
        worst.witness,
    )
