"""Exact large-N analysis of the threshold functions sign(x_1 + ... + x_N - alpha).

For integer alpha with N - alpha odd the per-level spectrum of psi_{N,alpha}
comes from the generating identity

    sum_n binom(N-1, n-1) psihat([n]) z^{n-1}
        = binom(N-1, b) 2^{1-N} (1+z)^a (1-z)^b,

with a = (N+alpha-1)/2 and b = (N-alpha-1)/2, whose integer coefficients
follow a three-term (Krawtchouk) recurrence; the empty-set coefficient is the
exact binomial tail 2 sigma(x_1 + ... + x_N > alpha) - 1.  Radii are solved
from these integers, a whole scan in one batch, the published spectrum (an
integer over 2^{N-1} per level, by Krawtchouk reciprocity) from the dual
recurrence.

A radius row is radius._level_row's, cut at level 1 with ||psi||_2 = 1 (psi
is +-1 valued); the exact tail count is summed from the nearer end of [0, N/2].

On top of this the module provides the torus supremum G and its
antiderivative I, the Mills-ratio-type function Y, the binomial-tail
correction term bounded by sqrt(pi/2), the radius sandwich between I(rho)
and I(3 rho)/3, the majority constant gamma, and the lower-bound root t_N for
the degree-N disc polynomials.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cube import SymmetricSpectrum, _as_int
from .families import canonical_alpha
from .radius import (SCAN_BLOCK_DOUBLES, RadiusResult, _binomials, _bisect, _block_width, _level_row, _log_ratio,
                     _solve_reduced)

#: Dimension cap for threshold radii and scans (exact integers of N bits).
MAX_SYMMETRIC_N = 100001

#: Dimension cap for exact symmetric spectra: their output grows as N^2 digits,
#: and above N of about 14,000 a numerator passes CPython's 4,300-digit int-to-str limit.
MAX_SPECTRUM_N = 4001

#: Relative slack for the sandwich inequalities.
SANDWICH_TOL = 1e-9

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

#: Y: erfc form below this x, continued fraction of this depth from it up (both measured
#: against a 50-digit reference; 20 terms already reach full precision at x = 6).
Y_SWITCH = 6.0
Y_CF_TERMS = 24

#: Dimension cap for t_N (one Python float per degree, a Horner pass per halving).
MAX_TN_N = 10**6

#: Quadrature: adaptive Simpson relative target and work cap.
QUAD_REL_TOL = 1e-10
QUAD_MAX_EVALS = 10**6


@dataclass(frozen=True)
class ThresholdReport:
    """Radius analysis of one threshold function at its odd-parity alpha."""

    n: int
    alpha: int
    radius: float
    ratio: float  # radius * (alpha + sqrt(n))
    mckay_c: float
    sandwich_ok: bool
    y_value: float  # Y((alpha + 1) / sqrt(n))


def _check_n(N: int, cap: int) -> int:
    """N as an int (an integral float such as 7.0 passes), checked against cap:
    every entry here checks N first, against its own cap, and goes on with this int."""
    N = _as_int("N", N)
    if not 1 <= N <= cap:
        raise ValueError(f"need 1 <= N <= {cap}")
    return N


def canonical_pair(N: int, alpha: float, cap: int = MAX_SYMMETRIC_N) -> tuple:
    """(N, canonical_alpha(N, alpha)) for any alpha in [0, N), N checked against
    cap before alpha: MAX_SYMMETRIC_N for radii, MAX_SPECTRUM_N for spectra."""
    N = _check_n(N, cap)
    return N, canonical_alpha(N, alpha)


def _check_parity(N: int, alpha) -> int:
    N = _check_n(N, MAX_SYMMETRIC_N)
    alpha = _as_int("alpha", alpha)
    if not -1 <= alpha < N:
        raise ValueError(f"need -1 <= alpha < N, got alpha = {alpha}")
    if (N - alpha) % 2 != 1:
        raise ValueError(f"need N - alpha odd, got N = {N}, alpha = {alpha}")
    return alpha


def _tail_count(N: int, upto: int, lead: int | None = None) -> int:
    """sum_{m <= upto} binom(N, m), exact, summed from the nearer end of [0, N/2].

    Past the middle the count is 2^N minus the count up to N - 1 - upto
    (binom(N, m) = binom(N, N - m)).  Below it, twice the count plus the
    middle terms upto < m < N - upto make 2^N, so from the middle end the
    count is 2^N less those terms, halved: the terms upto < m < N/2 twice and
    the central binom(N, N/2) of even N once, walked by _binomials up from
    binom(N, upto + 1) = N lead / (upto + 1).  lead = binom(N - 1, upto), which
    the complement leaves unchanged, saves that start's math.comb where the
    caller has it.  Odd N at upto = (N - 1)/2 walks no term: the count is 2^(N-1).
    """
    if upto < 0:
        return 0
    if 2 * upto >= N:
        return 2**N - _tail_count(N, N - 1 - upto, lead)
    if upto + 1 <= N // 2 - upto:
        return sum(itertools.islice(_binomials(N), upto + 1))
    middle = 0
    if upto < N // 2:
        start = N * lead // (upto + 1) if lead is not None else math.comb(N, upto + 1)
        terms = _binomials(N, upto + 1, start)
        middle = 2 * sum(itertools.islice(terms, (N - 1) // 2 - upto)) + (next(terms) if N % 2 == 0 else 0)
    return (2**N - middle) >> 1


def threshold_spectrum_exact(N: int, alpha: int) -> SymmetricSpectrum:
    """Exact per-level spectrum of sign(x_1 + ... + x_N - alpha), N - alpha odd.

    Every coefficient is an integer over 2^n, n = N - 1.  Level m >= 1 holds
    binom(n, b) c_{m-1} / (2^n binom(n, m-1)) = d_{m-1} / 2^n, where by
    Krawtchouk reciprocity d_x = K_b(x; n), the z^b coefficient of
    (1+z)^{n-x} (1-z)^x.  The dual recurrence d_0 = binom(n, b) and
    (n - x) d_{x+1} = alpha d_x - x d_{x-1} divides exactly, so no product of
    two N-bit integers and no gcd is formed; it runs for x <= n/2 only, and
    _mirror gives the rest by d_{n-x} = (-1)^b d_x.  Level 0 is the exact tail
    expectation (T - 2^n) / 2^n.  Each level is kept as (d >> u, 2^(n - u)),
    u the trailing zeros of d up to n, and -d as (-(d >> u), 2^(n - u)): no
    Fraction is built.  alpha = -1 (N even) is admitted so that canonicalized
    thresholds with an even integer alpha, where the odd-parity representative
    drops below zero, still have an exact spectrum; the identities hold there
    unchanged.
    """
    N = _check_n(N, MAX_SPECTRUM_N)
    alpha, T, lead = _tail_terms(N, alpha)
    n, pairs = N - 1, []
    for d in itertools.chain((T - 2**n,), itertools.islice(_dual_terms(alpha, n, lead), n // 2 + 1)):
        u = min((d & -d).bit_length() - 1, n) if d else n
        pairs.append((d >> u, 1 << (n - u)))
    return SymmetricSpectrum._adopt(N, tuple(_mirror(pairs, n, alpha, lambda pq: (-pq[0], pq[1]))))


def _dual_terms(alpha, n: int, lead):
    """d_0 = lead, d_1, ..., d_n of the dual recurrence
    (n - x) d_{x+1} = alpha d_x - x d_{x-1}, on ints or on Decimals.

    Every division is exact, so int's floor and Decimal's truncation give the
    same integers; a Decimal run needs an exact context (_EXACT) around it.
    d_x = K_b(x; n) is the z^b coefficient of (1+z)^{n-x} (1-z)^x, and
    z -> -z swaps the two factors, so d_{n-x} = (-1)^b d_x: the spectra take
    d_0..d_{n//2} from here and the rest from _mirror.
    """
    d_prev, d = 0, lead
    yield d
    for x in range(n):
        d_prev, d = d, (alpha * d - x * d_prev) // (n - x)
        yield d


def _mirror(levels: list, n: int, alpha: int, negate) -> list:
    """levels, extended in place from levels 0..n//2 + 1 to 0..n + 1: level m >= 1
    holds d_{m-1}, and d_{n-x} = (-1)^b d_x with b = (n - alpha) / 2; negate
    maps a level of d to that of -d."""
    rest = levels[n - n // 2 : 0 : -1]  # d_{n - n//2 - 1}, ..., d_0
    levels += map(negate, rest) if (n - alpha) // 2 % 2 else rest
    return levels


#: Decimal arithmetic that never rounds an integer: libmpdec's widest context.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def threshold_spectrum_text(N: int, alpha: int) -> list:
    """(numerator, denominator, log|coefficient|) of each level of
    threshold_spectrum_exact(N, alpha), the two integers as decimal text,
    with no Fraction built.

    CPython's int-to-str is quadratic in the digit count, which at N = 4001
    costs more than the spectrum itself.  So the dual recurrence runs twice,
    each time up to x = n/2 only: on ints, which give each level's
    trailing-zero count u and its log, and on exact Decimals, which hold the
    same integers in base 10^19 limbs, where each step and str() are linear.
    The levels past the middle come from _mirror (d_{n-x} = (-1)^b d_x): the
    partner's numerator text, with its sign flipped when b is odd, and its
    denominator text and log.  A zero level is taken from the int side as
    ("0", "1", -inf), since Decimal can give -0.  Each distinct denominator's
    text and log is made once and shared by reference.
    """
    N = _check_n(N, MAX_SPECTRUM_N)
    alpha, T, lead = _tail_terms(N, alpha)
    n, empty = N - 1, T - 2 ** (N - 1)  # level 0 is empty / 2^n, level m >= 1 is d_{m-1} / 2^n
    ints = itertools.chain((empty,), itertools.islice(_dual_terms(alpha, n, lead), n // 2 + 1))
    decs = itertools.chain((decimal.Decimal(empty),), _dual_terms(alpha, n, decimal.Decimal(lead)))  # zip stops it
    dens, out = {}, []  # u -> (Decimal 2^u, text and log of 2^(n - u))
    with decimal.localcontext(_EXACT):
        for d, e in zip(ints, decs):
            if not d:
                out.append(("0", "1", -math.inf))
                continue
            u = min((d & -d).bit_length() - 1, n)
            if u not in dens:
                dens[u] = decimal.Decimal(1 << u), str(1 << (n - u)), math.log(1 << (n - u))
            two_u, q, log_q = dens[u]
            # the log_abs of threshold_spectrum_exact's reduced pair, bit for bit
            out.append((str(e // two_u), q, math.log(abs(d >> u)) - log_q))
    return _mirror(out, n, alpha, _negate_text)


def _negate_text(level: tuple) -> tuple:
    """The (numerator, denominator, log) text of -d from that of d; "0" stays "0"."""
    p, q, log = level
    return (p if p == "0" else p[1:] if p[0] == "-" else "-" + p), q, log


def maj_identity_eval(N: int, r: float) -> float:
    """Closed form binom(N-1, (N-1)/2) 2^{1-N} (1 + r^2)^{(N-1)/2} for odd N.

    Equals sum_n binom(N-1, n-1) |psihat([n])| r^{n-1} for the majority
    spectrum (the alternating level signs line up along the imaginary axis).
    """
    N = _check_n(N, MAX_SYMMETRIC_N)
    if N % 2 == 0:
        raise ValueError("majority identity needs odd N")
    if math.isnan(r):
        raise ValueError("need a number r, got nan")
    h = (N - 1) // 2
    lg = math.log(math.comb(N - 1, h)) - (N - 1) * math.log(2.0) + h * math.log1p(r * r)
    return math.exp(lg) if lg <= 709.0 else math.inf


def branch_point(N: int, alpha: float) -> float:
    """r_alpha = alpha / ((N-1) + sqrt((N-1)^2 - alpha^2)), where G switches branch."""
    return _branch_point(_check_n(N, MAX_SYMMETRIC_N), alpha)


def _branch_point(N: int, alpha: float) -> float:
    if alpha <= 0:
        return 0.0
    return alpha / ((N - 1) + math.sqrt((N - 1) ** 2 - alpha**2))


def _g(N: int, alpha: float, r: float) -> float:
    """The torus supremum sup_z |1+zr|^a |1-zr|^b from its log, valid for every r >= 0.

    The interior critical point t = alpha(1+r^2)/(2r(N-1)) lies in [-1,1]
    exactly for r between r_alpha and 1/r_alpha; there the supremum has the
    r-independent product of bias factors, outside it sits at z = 1.
    """
    a = (N + alpha - 1) / 2.0
    b = (N - alpha - 1) / 2.0
    ra = _branch_point(N, alpha)
    if r >= ra and (ra == 0.0 or r <= 1.0 / ra):
        lg = (N - 1) / 2.0 * math.log1p(r * r)
        if alpha > 0:
            x = alpha / (N - 1)
            # at alpha = N - 1 (b = 0, x = 1) the b term tends to 0; log1p(-1) is undefined
            lg += a / 2.0 * math.log1p(x) + (b / 2.0 * math.log1p(-x) if b else 0.0)
    else:
        lg = a * math.log1p(r) + b * math.log(abs(1.0 - r))
    return math.exp(lg) if lg <= 709.0 else math.inf


def g_function(N: int, alpha: float, r: float) -> float:
    """The supremum G(r), evaluated in the log domain.

    Branch formula: (1+r)^a (1-r)^b below the branch point r_alpha, then
    (1+r^2)^{(N-1)/2} (1 + alpha/(N-1))^{a/2} (1 - alpha/(N-1))^{b/2};
    continuous at r_alpha.  Defined for all r >= 0 (the supremum form is),
    which the sandwich check needs whenever 3 rho exceeds 1.
    """
    N = _check_alpha(N, alpha)
    if not r >= 0:
        raise ValueError(f"need r >= 0, got {r!r}")
    return _g(N, alpha, r)


def _check_alpha(N: int, alpha: float) -> int:
    """N checked as _check_n does, and 0 <= alpha <= N - 1, for G and I."""
    N = _check_n(N, MAX_SYMMETRIC_N)
    if not 0 <= alpha <= N - 1:
        raise ValueError("need 0 <= alpha <= N - 1")
    return N


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    """Classic adaptive Simpson with Richardson correction and a work cap.

    The acceptance tolerance is absolute, scaled once by the coarse estimate
    of the whole integral, and halves per level; the Simpson error shrinks
    sixteenfold per halving, so the recursion always terminates.
    """
    evals = [0]

    def fc(x):
        evals[0] += 1
        if evals[0] > QUAD_MAX_EVALS:
            raise RuntimeError("quadrature exceeded its subdivision cap")
        return f(x)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fc(lm), fc(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 40 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + rec(
            m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
        )

    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = fc(a), fc(m), fc(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, fa, m, fm, b, fb, whole, rel_tol * max(abs(whole), 1e-300), 0)


def i_integral(N: int, alpha: float, rho: float) -> float:
    """I(rho) = integral of G over [0, rho] by adaptive Simpson.

    G is smooth away from its branch points, which are forced subdivision
    nodes.  rho may exceed 1 (the sandwich evaluates I at 3 rho).
    """
    N = _check_alpha(N, alpha)
    if not 0 <= rho < math.inf:
        raise ValueError(f"need 0 <= rho < inf, got {rho!r}")
    ra = _branch_point(N, alpha)
    cuts = [0.0]
    for c in (ra, (1.0 / ra) if ra > 0 else math.inf):
        if 0.0 < c < rho:
            cuts.append(c)
    cuts.append(rho)
    f = lambda r: _g(N, alpha, r)
    return sum(_adaptive_simpson(f, lo, hi, QUAD_REL_TOL) for lo, hi in zip(cuts[:-1], cuts[1:]))


def _two_square(z: float) -> tuple:
    """(hi, lo) with hi + lo = z * z exactly: Dekker's product, z split at 2^27 + 1."""
    hi = z * z
    t = 134217729.0 * z
    zh = t - (t - z)
    zl = z - zh
    return hi, ((zh * zh - hi) + 2.0 * zh * zl) + zl * zl


def y_function(x: float) -> float:
    """Y(x) = e^{x^2/2} int_x^inf e^{-t^2/2} dt = sqrt(pi/2) erfcx(x / sqrt(2)).

    Below Y_SWITCH it is sqrt(pi/2) e^{z^2} erfc(z) at z = x / sqrt(2), with
    z^2 split exactly into hi + lo and e^{z^2} = e^hi (1 + lo): a rounded z^2
    would cost up to z^2 ulp.  From Y_SWITCH up it is Laplace's continued
    fraction 1/(x + 1/(x + 2/(x + 3/(x + ...)))) (Abramowitz & Stegun
    26.2.14), Y_CF_TERMS deep, which never overflows.  Both stay within
    6e-16 relative of a 50-digit reference.  Y(0) = sqrt(pi/2) exactly,
    Y(inf) = 0, Y ~ 1/x; NaN propagates.
    """
    if x < 0:
        raise ValueError("need x >= 0")
    if x >= Y_SWITCH:
        acc = x
        for k in range(Y_CF_TERMS, 0, -1):
            acc = x + k / acc
        return 1.0 / acc
    z = x / math.sqrt(2.0)
    hi, lo = _two_square(z)
    return SQRT_HALF_PI * math.exp(hi) * (1.0 + lo) * math.erfc(z)


def mckay_residual(N: int, alpha: int) -> float:
    """The correction c with tail = sqrt(N) binom(N-1,b) Y((alpha+1)/sqrt(N)) e^{c/sqrt(N)}.

    tail is the exact integer sum_{n <= b} binom(N, n); every logarithm is
    taken on exact integers, so only the final combination is floating point.
    Raises if c leaves [0, sqrt(pi/2)] by more than 1e-9 (the guaranteed
    range for the admitted alpha).
    """
    N = _check_n(N, MAX_SYMMETRIC_N)
    return _mckay(N, *_tail_terms(N, alpha))


def _tail_terms(N: int, alpha) -> tuple:
    """(alpha, T, lead) for a checked alpha: the exact integers
    T = sum_{m <= b} binom(N, m) and lead = binom(N-1, b), b = (N - alpha - 1) / 2,
    computed once and shared by the radius, the tail correction and the
    sandwich of one report."""
    alpha = _check_parity(N, alpha)
    b = (N - alpha - 1) // 2
    lead = math.comb(N - 1, b)
    return alpha, _tail_count(N, b, lead), lead


def _mckay(N: int, alpha: int, T: int, lead: int) -> float:
    c = math.sqrt(N) * (
        math.log(T)
        - 0.5 * math.log(N)
        - math.log(lead)
        - math.log(y_function((alpha + 1) / math.sqrt(N)))
    )
    if not -1e-9 <= c <= SQRT_HALF_PI + 1e-9:
        raise ValueError(f"tail correction {c} escaped [0, sqrt(pi/2)] at N={N}, alpha={alpha}")
    return c


def _level_logs(N: int, alpha: int, T: int, lead: int) -> list:
    """log(W_m / t), m = 1..M, W_m = binom(N, m) |psihat([m])|, of psi_{N,alpha} with (alpha, T, lead) =
    _tail_terms(N, alpha): as t = 1 - |psihat(empty)| = den / 2^{N-1}, den = min(T, 2^N - T), and ||psi||_2 = 1,
    the _level_row of N lead, den and (|c_{m-1}|, 1), c_k the z^k coefficient of (1+z)^a (1-z)^b: c_0 = 1,
    (k+1) c_{k+1} = alpha c_k - (N-k) c_{k-1} from (1 - z^2) P' = (alpha - (N-1) z) P, every division exact."""
    def levels():
        c_prev, c = 0, 1
        for k in range(N):
            yield abs(c), 1
            c_prev, c = c, (alpha * c - (N - k) * c_prev) // (k + 1)

    den = min(T, 2**N - T)
    return _level_row(N, N * lead, den, levels(), _log_ratio(den, 1, 1 - N))


def _radii_exact(rows) -> tuple:
    """Radii of psi_{N,alpha} for rows (N, alpha, T, lead), each from _tail_terms,
    with the residual of each reduced equation (over its target) and the halvings.
    The level logs of every row are formed first; consecutive rows are then
    padded with -inf to the _block_width of their widest kept row, in blocks of
    at most SCAN_BLOCK_DOUBLES, and each block is solved by one _solve_reduced."""
    logs = [np.array(_level_logs(*row)) for row in rows]
    widest = _block_width(max(map(len, logs), default=1))
    out, step = ([], [], []), max(1, SCAN_BLOCK_DOUBLES // widest)
    for i in range(0, len(logs), step):
        block = logs[i : i + step]
        tail = np.full((len(block), _block_width(max(map(len, block)))), -math.inf)
        for r, row in enumerate(block):
            tail[r, : len(row)] = row
        for acc, part in zip(out, _solve_reduced(tail, np.zeros(len(block)))):
            acc += part.tolist()
    return out


def exact_radius(N: int, alpha: int) -> RadiusResult:
    """The RadiusResult of psi_{N,alpha}, N - alpha odd, from the exact integers.

    This is the one-row solve that threshold_scan runs for a single pair, so
    both give the same radius bits.  _level_logs divides the equation by the
    target min(T, 2^N - T) / 2^{N-1}; the residual is scaled back by it.
    """
    N = _check_n(N, MAX_SYMMETRIC_N)
    alpha, T, lead = _tail_terms(N, alpha)
    (rho,), (residual,), (iterations,) = _radii_exact([(N, alpha, T, lead)])
    return RadiusResult(rho, residual * math.exp(_log_ratio(min(T, 2**N - T), 1, 1 - N)), iterations, "bisection")


def _sandwich_ok(N: int, alpha: int, rho: float, T: int, lead: int) -> bool:
    """I(rho) <= min(T, 2^N - T)/(N lead) <= I(3 rho)/3, each within
    SANDWICH_TOL, with (alpha, T, lead) = _tail_terms(N, alpha)."""
    # G at formal alpha = -1 equals G at +1 (swap z -> -z in the supremum); there
    # T counts the tie and exceeds 2^(N-1), so the middle term is the minority count.
    a_eff = abs(alpha)
    mid = math.exp(math.log(min(T, 2**N - T)) - math.log(N) - math.log(lead))
    lo, hi = i_integral(N, a_eff, rho), i_integral(N, a_eff, 3.0 * rho) / 3.0
    return lo <= mid * (1.0 + SANDWICH_TOL) and mid <= hi * (1.0 + SANDWICH_TOL)


def sandwich_check(N: int, alpha: int) -> bool:
    """I(rho) <= min(T, 2^N - T)/(N binom(N-1,b)) <= I(3 rho)/3 at the solved radius rho.

    The left side can be an equality up to rounding (for majority it is one
    exactly), hence the relative slack.
    """
    N = _check_n(N, MAX_SYMMETRIC_N)
    alpha, T, lead = _tail_terms(N, alpha)
    return _sandwich_ok(N, alpha, _radii_exact([(N, alpha, T, lead)])[0][0], T, lead)


def threshold_radius(N: int, alpha: float) -> ThresholdReport:
    """Full radius analysis of sign(x_1 + ... + x_N - alpha).

    alpha is canonicalized to the odd-parity representative first; the report
    carries that representative, the exact-spectrum radius, the normalized
    ratio radius * (alpha + sqrt(N)), the tail correction and the sandwich
    verdict.
    """
    return threshold_scan([(N, alpha)])[0]


def threshold_scan(pairs) -> list:
    """threshold_radius of each (N, alpha), all radii from one _radii_exact call.

    Every pair is checked and canonicalized by canonical_pair before the first
    radius.  Reports follow the input order; a repeated canonical (N, alpha) is
    dropped.
    """
    keys = dict.fromkeys(canonical_pair(N, alpha) for N, alpha in pairs)
    rows = [(N, *_tail_terms(N, a)) for N, a in keys]
    return [
        ThresholdReport(N, a, rho, rho * (a + math.sqrt(N)), _mckay(N, a, T, lead), _sandwich_ok(N, a, rho, T, lead),
                        y_function((a + 1) / math.sqrt(N)))
        for (N, a, T, lead), rho in zip(rows, _radii_exact(rows)[0])
    ]


@functools.cache
def gamma_constant() -> float:
    """The gamma with int_0^gamma e^{u^2/2} du = sqrt(pi/2).

    Bisection on [0.5, 2] over the adaptive-Simpson integral; the integrand
    is smooth and increasing, and the bracket is driven to machine width, so
    the defining integral matches sqrt(pi/2) to well under 1e-12.
    """
    f = lambda u: math.exp(0.5 * u * u)
    root, _ = _bisect(lambda mid: _adaptive_simpson(f, 0.0, float(mid), 1e-14) < SQRT_HALF_PI, 0.5, 2.0)
    return float(root)


def _odd_n(N) -> int:
    N = _as_int("N", N)
    if N % 2 == 0:
        raise ValueError(f"majority scan needs odd N, got {N}")
    return _check_n(N, MAX_SYMMETRIC_N)


def majority_scan(Ns):
    """Rows (N, rho(Maj_N), rho sqrt(N), rho sqrt(N)/gamma) for odd integer N, in input order.

    Row N is (N, *_tail_terms(N, 0)): the tail count of odd N is 2^(N-1), and lead(N) =
    binom(N - 1, (N - 1)/2) walks from the row before when that row is N - 2, lead(N) =
    lead(N - 2) (N - 2) (N - 1) / ((N - 1)/2)^2, one exact division; the first N and an N
    after a gap, a repeat or a step down take math.comb."""
    # each N is checked as it is taken, before the first radius: a range far
    # past the cap stops at its first N over it instead of building every row
    Ns = [_odd_n(N) for N in Ns]
    gam = gamma_constant()
    rows = []
    for N in Ns:
        if rows and rows[-1][0] == N - 2:
            lead = rows[-1][3] * (N - 2) * (N - 1) // ((N - 1) // 2) ** 2
        else:
            lead = math.comb(N - 1, (N - 1) // 2)
        rows.append((N, 0, 1 << (N - 1), lead))
    radii = _radii_exact(rows)[0]
    return [(N, rho, rho * math.sqrt(N), rho * math.sqrt(N) / gam) for N, rho in zip(Ns, radii)]


def tail_lower_bound_check(N: int, alpha: float) -> bool:
    """sigma(x_1 + ... + x_N > alpha) >= exp(-6 (1 + alpha/sqrt(N))^2).

    The tail is exact (log of an integer tail count); alpha = N is excluded
    since its tail is empty.
    """
    N = _check_n(N, MAX_SYMMETRIC_N)  # the tail walk grows quadratically in N
    if not 0 <= alpha < N:
        raise ValueError("need 0 <= alpha < N (the tail at alpha = N is empty)")
    upto = math.ceil((N - alpha) / 2) - 1  # number of -1s strictly winning the threshold
    log_sigma = math.log(_tail_count(N, upto)) - N * math.log(2.0)
    return log_sigma >= -6.0 * (1.0 + alpha / math.sqrt(N)) ** 2 - 1e-12


def tn_lower_bound(N: int) -> float:
    """The root t_N in (0, 1] of sum_{k=1}^N cos(pi/(floor(N/k)+2)) t^k = 1/2.

    The printed equation starts the sum at k = 0, whose floor(N/0) term is
    undefined; the k >= 1 reading matches the coefficient-bound indexing the
    equation comes from, and is what is solved here.
    """
    N = _check_n(N, MAX_TN_N)
    if N == 1:  # cos(pi/3) t = 1/2 has the root 1, but math.cos(math.pi / 3) is 0.5000000000000001
        return 1.0
    coefs = [math.cos(math.pi / (N // k + 2)) for k in range(1, N + 1)]

    def f(t: float) -> float:
        acc = 0.0
        for c in reversed(coefs):  # Horner from the top power
            acc = (acc + c) * t
        return acc

    return float(_bisect(lambda mid: f(float(mid)) < 0.5, 0.0, 1.0)[0])
