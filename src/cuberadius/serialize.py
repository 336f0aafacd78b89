"""JSON and CSV emission for the data types: every document the program writes,
and the loaders of the documents it reads.

Reals are printed with 17 significant digits everywhere, which round-trips
IEEE doubles bit-exactly through decimal text.  The emitters build their own
JSON text, and CSV cells by the same rule, so the bytes are fully deterministic.
The rule is ``fmt17``: the text of ``"%.17g"``, except that a negative zero is
written ``-0.0``, since ``%.17g``'s ``-0`` is a JSON integer and reads back as +0.0.

A 1-D float64 array (a dense table, spectrum or witness) is written by a
vectorised writer with the bytes of ``fmt17`` of each value.  It finds the
17-digit integer D that ``%.17g`` rounds |x| to as a double-double product of
|x| and a power of ten (Dekker's exact product; D is off by under 1e-13 before
rounding), and lays D out by ``%g``'s rules: fixed notation for exponents -4
to 16, exponential otherwise, trailing zeros dropped.  Where that could differ
from ``%.17g``, the value is written by ``"%.17g"`` itself: a rounding within
2^-20 of a tie (``%.17g`` breaks exact ties to even), and a nonzero magnitude
outside [1e-290, 1e299], subnormals among them.

Truth tables and dense spectra are parsed by ``orjson``, from a ``str`` or
straight from UTF-8 bytes, and it reads each decimal number as the double
nearest to it, as ``float`` does.  It is strict JSON: ``NaN``, ``Infinity``
and numbers beyond the double range are malformed text, and an integer of
2^64 or more is read as its nearest double.  Symmetric spectra are parsed
by the standard ``json`` module, whose non-finite tokens reach the loader's
own check of the rationals; exponent forms in their texts are refused.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cube import BooleanFunction, Spectrum, SymmetricSpectrum
from .inequalities import InequalityReport
from .radius import RadiusResult
from .threshold import threshold_spectrum_text


def fmt17(x: float) -> str:
    """Shortest-width 17-significant-digit decimal form of a finite double;
    a negative zero is written ``-0.0``, as the JSON integer ``-0`` reads back as +0.0."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    text = "%.17g" % float(x)
    return "-0.0" if text == "-0" else text


#: Values written per pass of _emit_floats; its scratch arrays have this many rows.
#: Kept small for memory: 2**16 raised the peak RSS of the perfbench `dense` workload from about 75 to 92 MB.
_CHUNK = 2**14
#: Nonzero magnitudes outside this range, subnormals among them, are left to "%.17g" itself.
_FAST_MIN, _FAST_MAX = 1e-290, 1e299
#: Exponents e of the powers 10^e in the scaling table: e = 16 - k for the k of every
#: magnitude in [_FAST_MIN, _FAST_MAX], and one step of correction either way.
_POW_MIN, _POW_MAX = -285, 308
#: The exponent table covers -_EXP_MAX.._EXP_MAX, beyond every k of a magnitude in [_FAST_MIN, _FAST_MAX].
_EXP_MAX = 330
#: Veltkamp's splitter 2^27 + 1: v * _SPLIT splits a double into two halves of 26 bits.
_SPLIT = 134217729.0
#: Layouts of %g: 0..20 for fixed notation at exponent k = layout - 4 (-4 <= k <= 16),
#: 21 and 22 for exponential notation with two and three exponent digits.
_LAYOUTS = 23


class _Tables(NamedTuple):
    pow10: np.ndarray  # rows hi, lo, hi's upper and lower half: 10^e = hi + lo for e in _POW_MIN.._POW_MAX
    digit8: np.ndarray  # "a.b.c.d." of each 4-digit group abcd, as one uint64
    zeros: np.ndarray  # trailing zeros of each 4-digit group; 4 for 0000
    head: np.ndarray  # "-0.000d." of each leading digit d, as one uint64
    expo: np.ndarray  # "e+ddd, " of each exponent -_EXP_MAX.._EXP_MAX, as one uint64
    masks: np.ndarray  # (classes + 1, 6) uint64: 0/1 bytes, the record bytes each class keeps
    sizes: np.ndarray  # the number of bytes each row of masks keeps


def _split(v):
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _float_tables() -> _Tables:
    """The vector writer's tables, built on its first call (a few ms), not at import."""
    rows = []
    for e in range(_POW_MIN, _POW_MAX + 1):
        if e >= 0:
            hi = float(10**e)
            lo = float(10**e - int(hi))
        else:
            den = 10**-e
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        m, ex = math.frexp(hi)  # split at scale 1: hi * _SPLIT can overflow
        mh, ml = _split(m)
        rows.append((hi, lo, math.ldexp(mh, ex), math.ldexp(ml, ex)))
    group = np.arange(10**4, dtype=np.int16)  # int16: no temporary here passes the 128 KiB mmap threshold of malloc
    digit8 = np.full((10**4, 8), ord("."), np.uint8)
    digit8[:, ::2] = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1) + ord("0")
    # the class of a value is (sign, layout, significant digits): row (neg * _LAYOUTS + layout) * 17 + sig - 1
    neg, layout, sig = (c.ravel() for c in np.meshgrid((0, 1), range(_LAYOUTS), range(1, 18), indexing="ij"))
    k, sci = layout - 4, layout > 20  # sci: exponential notation
    small = k < 0  # fixed notation below 1: "0." and -k-1 zeros before the digits
    j = np.arange(17)
    dot = np.where(sci, 0, k)  # the digit whose '.' slot is kept when digits follow it
    keep = np.zeros((len(sig) + 1, 48), np.uint8)  # the last row, for values left to "%.17g", keeps none
    keep[:-1, 0] = neg
    keep[:-1, 1:3] = small[:, None]
    keep[:-1, 3:6] = small[:, None] & (j[:3] < -k[:, None] - 1)
    keep[:-1, 6:40:2] = j < np.where(sci | small, sig, np.maximum(sig, k + 1))[:, None]
    keep[:-1, 7:40:2] = (j == dot[:, None]) & ((sig > dot + 1) & ~small)[:, None]
    keep[:-1, [40, 41, 43, 44]] = sci[:, None]
    keep[:-1, 42] = layout == 22
    keep[:-1, 45:47] = 1
    return _Tables(
        pow10=np.array(rows).T.copy(),
        digit8=digit8.view(np.uint64).ravel(),
        zeros=sum((group % 10**i == 0).astype(np.int8) for i in (1, 2, 3)) + (group == 0),
        head=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64),
        expo=np.frombuffer(b"".join(b"e%+04d, \0" % e for e in range(-_EXP_MAX, _EXP_MAX + 1)), np.uint64),
        masks=keep.view(np.uint64),
        sizes=keep.sum(axis=1),
    )


def _scaled(a, e, pow10):
    """a * 10^e as p + s: p the double product, s its error by Dekker's exact
    product plus a * lo, so that |p + s - a * 10^e| < 1e-13 where p is near 10^16."""
    hi, lo, hh, hl = (row.take(e - _POW_MIN) for row in pow10)
    p = a * hi
    ah, al = _split(a)
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _float_records(x, rec, t: _Tables):
    """Write the record of each value of x into rec, shaped (len(x), 6) uint64,
    and return each value's class: the row of t.masks that keeps the bytes of
    its text, or the last row, which keeps none, for a value left to "%.17g".

    A record is 48 bytes: '-' (byte 0), "0.000" (1-5), the 17 digits d0..d16
    of D, each followed by a '.' slot (6-39), "e+ddd" (40-44) and ", " (45-46).
    D is |x| * 10^(16 - k) rounded to an integer, with k the exponent for which
    10^16 <= D < 10^17: %.17g's digits, and k its exponent.
    """
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, 16 - k, t.pow10)
    # log10 can miss k by one next to a power of ten; then p + s lies outside [10^16, 10^17)
    above = (p > 1e17) | ((p == 1e17) & (s >= 0))
    below = (p < 1e16) | ((p == 1e16) & (s < 0))
    step = above.view(np.int8) - below.view(np.int8)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        p[redo], s[redo] = _scaled(a[redo], 16 - k[redo], t.pow10)
    # p >= 10^16 is an integer, so p + s rounds as s does. With s off by under 1e-13, a
    # rounding further than 2^-20 from a tie is decided right; the others (exact ties,
    # which %.17g breaks to even, among them) are left to "%.17g"
    skip = ~(fast | zero) | (np.abs(s - np.floor(s) - 0.5) < 2.0**-20)
    D = p.astype(np.int64) + np.floor(s + 0.5).astype(np.int64)
    top = D == 10**17  # rounded up to the next power of ten
    D[top] = 10**16
    k += top
    D[zero] = 0
    k[zero] = 0
    upper = (D // 10**8).astype(np.uint32)
    lower = (D - upper.astype(np.int64) * 10**8).astype(np.uint32)
    d0 = upper // 10**8
    groups = (upper // 10**4 - d0 * 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    rec[:, 0] = t.head.take(d0)
    for col, g in enumerate(groups, 1):
        rec[:, col] = t.digit8.take(g)
    rec[:, 5] = t.expo.take(k + _EXP_MAX)
    tz = t.zeros.take(groups[0])
    for g in groups[1:]:
        tz = np.where(g == 0, tz + 4, t.zeros.take(g))
    neg = np.signbit(x)
    sig = 17 - tz
    sig[zero] = 1 + neg[zero]  # "0", and "-0.0" as fmt17 writes it
    layout = np.where((k >= -4) & (k <= 16), k + 4, np.where(np.abs(k) < 100, 21, 22))
    cls = (neg * _LAYOUTS + layout) * 17 + sig - 1
    cls[skip] = len(t.masks) - 1
    return cls


def _emit_floats(arr: np.ndarray) -> str:
    """What the per-value path emits for a 1-D float64 array: "[" + ", ".join
    of fmt17 of each value + "]", written _CHUNK values at a time."""
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"cannot format non-finite value {bad[0]}")
    if not arr.size:
        return "[]"
    t = _float_tables()
    rec = np.empty((min(arr.size, _CHUNK), 6), np.uint64)
    out = bytearray(b"[")
    for start in range(0, arr.size, _CHUNK):
        x = arr[start : start + _CHUNK]
        cls = _float_records(x, rec[: x.size], t)
        text = np.compress(t.masks.take(cls, axis=0).view(bool).ravel(), rec[: x.size].view(np.uint8).ravel())
        # each run of skipped values goes where its empty records sit
        skip = cls == len(t.masks) - 1
        ends = np.cumsum(t.sizes.take(cls))
        edges = np.flatnonzero(np.diff(skip)) + 1
        done = 0
        for lo, hi in zip([0, *edges], [*edges, x.size]):
            if skip[lo]:
                at = int(ends[lo])
                out.extend(text[done:at])  # not +=, which numpy would take for elementwise addition
                out.extend(("%.17g, " * (hi - lo) % tuple(x[lo:hi].tolist())).encode())
                done = at
        out.extend(text[done:])
    out[-2:] = b"]"  # in place of the last ", "
    return out.decode()


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt17(float(value))
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in value.items()) + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64:
        return _emit_floats(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    return _emit(obj) + "\n"


def dumps_truth_table(f: BooleanFunction) -> str:
    return dumps({"n": f.n, "values": f.values})


def dumps_spectrum(s: Spectrum) -> str:
    return dumps({"n": s.n, "coeffs": s.coeffs})


def _loads_vector(text: str | bytes, kind: str, key: str, adopt):
    # imported here, not with the module, so that commands without --input
    # start without orjson's import (about 10 ms)
    import orjson

    obj = orjson.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"n", key}:
        raise ValueError(f'{kind} JSON must be {{"n": ..., "{key}": [...]}}')
    items = obj[key]
    # np.asarray would read true/false as 1/0 and "1.5" as 1.5
    if not isinstance(items, list) or not set(map(type, items)) <= {int, float}:
        raise ValueError(f"{key} must hold numbers in a list (booleans and strings are not numbers)")
    return adopt(obj["n"], np.asarray(items, dtype=float))


def loads_truth_table(text: str | bytes) -> BooleanFunction:
    return _loads_vector(text, "truth-table", "values", BooleanFunction._adopt)


def loads_spectrum(text: str | bytes) -> Spectrum:
    return _loads_vector(text, "spectrum", "coeffs", Spectrum._adopt)


def _dumps_levels(n: int, levels) -> str:
    # what dumps emits for {"n": n, "level_coeffs": ["p/q", ...], "log_abs": ["%.17g" or "-inf", ...]},
    # from (p text, q text, log) per level; log is finite or -inf by construction.
    # The texts go into one join as they are: no entry string copies a numerator.
    # Each distinct log is formatted once per call (the Krawtchouk mirror repeats half
    # of them), keyed by its float: log|p| - log q is never -0.0, which would share 0.0's key.
    parts, logs, texts, sep = ['{"n": %d, "level_coeffs": [' % n], [], {}, ""
    for p, q, v in levels:
        parts += (sep, '"', p, "/", q, '"')
        sep = ", "
        text = texts.get(v)
        if text is None:
            text = texts[v] = '"-inf"' if v == -math.inf else '"%.17g"' % v
        logs.append(text)
    parts.append('], "log_abs": [%s]}\n' % ", ".join(logs))
    return "".join(parts)


def dumps_symmetric_spectrum(s: SymmetricSpectrum) -> str:
    # exact threshold spectra share a few power-of-two denominators, so each distinct one is printed once
    dens = {q: str(q) for q in {q for _, q in s._pairs}}
    levels = ((str(p), dens[q], v) for (p, q), v in zip(s._pairs, s.log_abs.tolist()))
    return _dumps_levels(s.n, levels)


def dumps_threshold_spectrum(N: int, alpha: int) -> str:
    """dumps_symmetric_spectrum(threshold_spectrum_exact(N, alpha)), byte for
    byte, from threshold_spectrum_text: no Fraction and no int-to-str of a numerator."""
    return _dumps_levels(N, threshold_spectrum_text(N, alpha))


def loads_symmetric_spectrum(text: str) -> SymmetricSpectrum:
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"n", "level_coeffs"} <= set(obj) <= {"n", "level_coeffs", "log_abs"}:
        raise ValueError('symmetric-spectrum JSON must be {"n": ..., "level_coeffs": [...]}, "log_abs" optional')
    items = obj["level_coeffs"]
    # JSON true/false would otherwise be read as 1/0
    if not isinstance(items, list) or bool in map(type, items):
        raise ValueError("level_coeffs must hold numbers in a list (booleans are not numbers)")
    # an exponent form such as "1e-10000000" would build a 33-million-bit denominator first
    if any(isinstance(c, str) and ("e" in c or "E" in c) for c in items):
        raise ValueError("level_coeffs: exponent forms are not read; write p/q or a plain decimal")
    try:
        coeffs = [Fraction(c) for c in items]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"level_coeffs: {exc}") from None
    return SymmetricSpectrum(obj["n"], coeffs)


def radius_result_obj(r: RadiusResult) -> dict:
    return {
        "radius": "inf" if math.isinf(r.radius) else float(r.radius),
        "residual": float(r.residual),
        "iterations": r.iterations,
        "method": r.method,
    }


def dumps_radius_result(r: RadiusResult) -> str:
    return dumps(radius_result_obj(r))


def dumps_report(r: InequalityReport) -> str:
    return dumps(
        {
            "suite": r.suite,
            "samples": r.samples,
            "failures": r.failures,
            "worst_margin": float(r.worst_margin),
            "witness": {"n": r.witness.n, "values": r.witness.values} if r.witness is not None else None,
        }
    )


THRESHOLD_SCAN_HEADER = ("n", "alpha", "radius", "ratio", "mckay_c", "sandwich_ok", "y_value")
MAJORITY_SCAN_HEADER = ("n", "radius", "radius_sqrt_n", "ratio_to_gamma", "gamma")


def _csv(header, rows) -> str:
    """The header line, then one line per row: a str cell as it is, any other cell as _emit writes it."""
    lines = [",".join(header)] + [",".join(c if isinstance(c, str) else _emit(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def radius_result_csv(r: RadiusResult) -> str:
    obj = radius_result_obj(r)
    return _csv(obj.keys(), [obj.values()])


def threshold_scan_csv(reports) -> str:
    return _csv(THRESHOLD_SCAN_HEADER, [dataclasses.astuple(r) for r in reports])


def majority_scan_csv(rows, gamma: float) -> str:
    return _csv(MAJORITY_SCAN_HEADER, [(*row, gamma) for row in rows])
