"""JSON and CSV emission for the data types.

Reals are printed with 17 significant digits everywhere, which round-trips
IEEE doubles bit-exactly through decimal text.  The emitters build their own
JSON text so the float formatting (and hence byte-level output) is fully
deterministic.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np

from .cube import BooleanFunction, Spectrum, SymmetricSpectrum
from .inequalities import InequalityReport
from .radius import RadiusResult
from .threshold import threshold_spectrum_text


def fmt17(x: float) -> str:
    """Shortest-width 17-significant-digit decimal form of a finite double."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite value {x}")
    return "%.17g" % float(x)


def _emit(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt17(float(value))
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    return _emit(obj) + "\n"


def truth_table_obj(f: BooleanFunction) -> dict:
    return {"n": f.n, "values": [float(v) for v in f.values]}


#: Most values formatted by one ``%`` in _dumps_vector.
VECTOR_PIECE = 2**16


def _dumps_vector(n: int, key: str, arr: np.ndarray) -> str:
    # what dumps emits for {"n": n, key: arr}; the arrays are finite by construction.
    # One "%.17g, %.17g, ..." % piece per VECTOR_PIECE values, not one string per value.
    values = arr.tolist()
    pieces = [tuple(values[i : i + VECTOR_PIECE]) for i in range(0, len(values), VECTOR_PIECE)]
    body = ", ".join([", ".join(["%.17g"] * len(p)) % p for p in pieces])
    return '{"n": %d, "%s": [%s]}\n' % (n, key, body)


def dumps_truth_table(f: BooleanFunction) -> str:
    return _dumps_vector(f.n, "values", f.values)


def _entries(obj: dict, key: str, convert):
    """convert(obj[key]) for a JSON list; any failure is a ValueError naming key."""
    items = obj[key]
    # JSON true/false would otherwise be read as 1/0
    if not isinstance(items, list) or bool in map(type, items):
        raise ValueError(f"{key} must hold numbers in a list (booleans are not numbers)")
    try:
        return convert(items)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _numbers(items: list) -> np.ndarray:
    return np.asarray(items, dtype=float)


def loads_truth_table(text: str) -> BooleanFunction:
    obj = json.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"n", "values"}:
        raise ValueError('truth-table JSON must be {"n": ..., "values": [...]}')
    return BooleanFunction._adopt(obj["n"], _entries(obj, "values", _numbers))


def dumps_spectrum(s: Spectrum) -> str:
    return _dumps_vector(s.n, "coeffs", s.coeffs)


def loads_spectrum(text: str) -> Spectrum:
    obj = json.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"n", "coeffs"}:
        raise ValueError('spectrum JSON must be {"n": ..., "coeffs": [...]}')
    return Spectrum._adopt(obj["n"], _entries(obj, "coeffs", _numbers))


def _dumps_levels(n: int, levels) -> str:
    # what dumps emits for {"n": n, "level_coeffs": ["p/q", ...], "log_abs": ["%.17g" or "-inf", ...]},
    # from (p text, q text, log) per level; log is finite or -inf by construction.
    # The texts go into one join as they are: no entry string copies a numerator.
    parts, logs, sep = ['{"n": %d, "level_coeffs": [' % n], [], ""
    for p, q, v in levels:
        parts += (sep, '"', p, "/", q, '"')
        sep = ", "
        logs.append('"-inf"' if v == -math.inf else '"%.17g"' % v)
    parts.append('], "log_abs": [%s]}\n' % ", ".join(logs))
    return "".join(parts)


def dumps_symmetric_spectrum(s: SymmetricSpectrum) -> str:
    # exact threshold spectra share a few power-of-two denominators, so each distinct one is printed once
    dens = {q: str(q) for q in {c.denominator for c in s.level_coeffs}}
    levels = ((str(c.numerator), dens[c.denominator], v) for c, v in zip(s.level_coeffs, s.log_abs.tolist()))
    return _dumps_levels(s.n, levels)


def dumps_threshold_spectrum(N: int, alpha: int) -> str:
    """dumps_symmetric_spectrum(threshold_spectrum_exact(N, alpha)), byte for
    byte, from threshold_spectrum_text: no Fraction and no int-to-str of a numerator."""
    return _dumps_levels(N, threshold_spectrum_text(N, alpha))


def loads_symmetric_spectrum(text: str) -> SymmetricSpectrum:
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"n", "level_coeffs"} <= set(obj) <= {"n", "level_coeffs", "log_abs"}:
        raise ValueError('symmetric-spectrum JSON must be {"n": ..., "level_coeffs": [...]}, "log_abs" optional')
    return SymmetricSpectrum(obj["n"], _entries(obj, "level_coeffs", lambda v: [Fraction(c) for c in v]))


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
            "witness": truth_table_obj(r.witness) if r.witness is not None else None,
        }
    )


THRESHOLD_SCAN_HEADER = ("n", "alpha", "radius", "ratio", "mckay_c", "sandwich_ok", "y_value")
MAJORITY_SCAN_HEADER = ("n", "radius", "radius_sqrt_n", "ratio_to_gamma", "gamma")


def _csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def threshold_scan_csv(reports) -> str:
    rows = [
        (
            str(r.n),
            str(r.alpha),
            fmt17(r.radius),
            fmt17(r.ratio),
            fmt17(r.mckay_c),
            "true" if r.sandwich_ok else "false",
            fmt17(r.y_value),
        )
        for r in reports
    ]
    return _csv(THRESHOLD_SCAN_HEADER, rows)


def majority_scan_csv(rows, gamma: float) -> str:
    out = [(str(n), fmt17(r), fmt17(rs), fmt17(rg), fmt17(gamma)) for n, r, rs, rg in rows]
    return _csv(MAJORITY_SCAN_HEADER, out)
