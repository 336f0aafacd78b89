"""JSON and CSV emission for the data types: every document the program writes,
and the loaders of the documents it reads.

Reals are printed with 17 significant digits everywhere, which round-trips
IEEE doubles bit-exactly through decimal text.  The emitters build their own
JSON text, and CSV cells by the same rule, so the bytes are fully deterministic.

Truth tables and dense spectra are parsed by ``orjson``, which reads each
decimal number as the double nearest to it, as ``float`` does.  It is strict
JSON: ``NaN``, ``Infinity`` and numbers beyond the double range are malformed
text, and an integer of 2^64 or more is read as its nearest double.  Symmetric
spectra are parsed by the standard ``json`` module, whose non-finite tokens
reach the loader's own check of the rationals.
"""

from __future__ import annotations

import dataclasses
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


#: Most values formatted by one ``%`` in _emit_floats.
VECTOR_PIECE = 2**16


def _emit_floats(arr: np.ndarray) -> str:
    """What the per-value path emits for a 1-D float64 array, from one
    "%.17g, %.17g, ..." % piece per VECTOR_PIECE values, not one string per value."""
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"cannot format non-finite value {bad[0]}")
    values = arr.tolist()
    pieces = [tuple(values[i : i + VECTOR_PIECE]) for i in range(0, len(values), VECTOR_PIECE)]
    return "[%s]" % ", ".join([", ".join(["%.17g"] * len(p)) % p for p in pieces])


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


def _loads_vector(text: str, kind: str, key: str, adopt):
    # imported here, not with the module, so that commands without --input
    # start without orjson's import (about 10 ms)
    import orjson

    obj = orjson.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"n", key}:
        raise ValueError(f'{kind} JSON must be {{"n": ..., "{key}": [...]}}')
    return adopt(obj["n"], _entries(obj, key, lambda v: np.asarray(v, dtype=float)))


def loads_truth_table(text: str) -> BooleanFunction:
    return _loads_vector(text, "truth-table", "values", BooleanFunction._adopt)


def loads_spectrum(text: str) -> Spectrum:
    return _loads_vector(text, "spectrum", "coeffs", Spectrum._adopt)


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
