import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberadius import serialize
from cuberadius.cube import Spectrum, SymmetricSpectrum, from_truth_table, walsh_transform
from cuberadius.inequalities import InequalityReport
from cuberadius.radius import RadiusResult
from cuberadius.serialize import (
    MAJORITY_SCAN_HEADER,
    THRESHOLD_SCAN_HEADER,
    dumps,
    dumps_radius_result,
    dumps_report,
    dumps_spectrum,
    dumps_symmetric_spectrum,
    dumps_truth_table,
    fmt17,
    loads_spectrum,
    loads_symmetric_spectrum,
    loads_truth_table,
    majority_scan_csv,
    radius_result_csv,
    threshold_scan_csv,
)
from cuberadius.threshold import ThresholdReport, threshold_radius, threshold_spectrum_exact


def test_fmt17_round_trips_awkward_doubles():
    values = [0.1, 2.0 / 3.0, 1e-308, 4.9e-324, math.pi, -1.2345678901234567e300, 0.0]
    for v in values:
        assert float(fmt17(v)) == v


def test_fmt17_writes_negative_zero_as_a_float():
    assert (fmt17(-0.0), fmt17(0.0)) == ("-0.0", "0")


def test_fmt17_rejects_non_finite():
    with pytest.raises(ValueError):
        fmt17(math.inf)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_float_arrays_reject_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"n": 2, "values": np.array([0.5, 1.0, bad, -1.0])})


def test_truth_table_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    f = from_truth_table(5, rng.normal(size=32) * 1e3)
    back = loads_truth_table(dumps_truth_table(f))
    assert back.n == 5
    assert np.array_equal(back.values, f.values)


def test_spectrum_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    s = walsh_transform(from_truth_table(4, rng.normal(size=16)))
    back = loads_spectrum(dumps_spectrum(s))
    assert np.array_equal(back.coeffs, s.coeffs)


def test_loaders_read_utf8_bytes():
    values = np.random.default_rng(2).normal(size=16)
    table = dumps_truth_table(from_truth_table(4, values))
    assert np.array_equal(loads_truth_table(table.encode()).values, values)
    assert np.array_equal(loads_spectrum(table.replace('"values"', '"coeffs"').encode()).coeffs, values)


def test_negative_zero_round_trips_bit_exactly():
    zeros = np.array([-0.0, 0.0])
    f = from_truth_table(1, zeros)
    assert dumps_truth_table(f) == '{"n": 1, "values": [-0.0, 0]}\n'
    back = loads_truth_table(dumps_truth_table(f)).values
    assert np.array_equal(back.view(np.uint64), zeros.view(np.uint64))
    s = Spectrum(1, zeros)
    back = loads_spectrum(dumps_spectrum(s)).coeffs
    assert np.array_equal(back.view(np.uint64), zeros.view(np.uint64))


def _parsed_bits(token: str) -> str:
    """float.hex of the value loads_truth_table reads for one decimal token."""
    return float(loads_truth_table('{"n": 1, "values": [%s, 0]}' % token).values[0]).hex()


def _assert_parsed_as_float(token: str):
    want = float(token)
    if token.lstrip("-").isdigit():
        want = want or 0.0  # a JSON integer has no negative zero: "-0" (%.17g of -0.0) is 0
    if math.isinf(want):
        # past the double range: strict JSON input, rejected as malformed
        with pytest.raises(ValueError):
            _parsed_bits(token)
    else:
        assert _parsed_bits(token) == want.hex(), token


_EXACT_HALF_ULP_ABOVE_ONE = "1.00000000000000011102230246251565404236316680908203125"


@pytest.mark.parametrize("token", [
    _EXACT_HALF_ULP_ABOVE_ONE,  # a tie: rounds to even, 1.0
    _EXACT_HALF_ULP_ABOVE_ONE[:-1] + "4",
    _EXACT_HALF_ULP_ABOVE_ONE[:-1] + "6",
    "2.2250738585072011e-308",  # just below the smallest normal
    "2.4703282292062327e-324",  # just below half the smallest subnormal: 0
    "2.4703282292062328e-324",  # just above it: the smallest subnormal
    "1.7976931348623158e308",  # rounds to DBL_MAX
    "1.7976931348623159e308",  # past the halfway point to 2^1024: out of range
    "-0.0",
    "-1e-400",  # underflows to -0.0
    "18446744073709551615",  # 2^64 - 1, still an exact integer to the parser
    "18446744073709551617",  # 2^64 + 1, read as its nearest double
    "-9223372036854775809",
    "9" * 40,
])
def test_decimal_edge_cases_parse_to_the_bits_of_float(token):
    _assert_parsed_as_float(token)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DOUBLE_TEXT = st.builds(lambda x, fmt: fmt(x), _FINITE, st.sampled_from([lambda x: "%.17g" % x, repr, lambda x: "%.25e" % x]))


@st.composite
def _decimal_text(draw):
    """A JSON number of up to 40 significant digits: d.ddde<exp> for exp in
    [-330, 308], or an integer that does not start with 0."""
    sign = draw(st.sampled_from(["", "-"]))
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    if draw(st.booleans()):
        return sign + str(int(digits) or 1)
    exp = draw(st.integers(-330, 308))
    return f"{sign}{digits[0]}{'.' + digits[1:] if digits[1:] else ''}e{exp}"


@settings(max_examples=1000, deadline=None)
@given(token=_DOUBLE_TEXT | _decimal_text())
def test_loaders_parse_decimal_text_to_the_bits_of_float(token):
    _assert_parsed_as_float(token)


def test_truth_table_schema_validated():
    with pytest.raises(ValueError):
        loads_truth_table('{"n": 2, "vals": [1, 1, 1, 1]}')


def test_booleans_are_not_numbers():
    with pytest.raises(ValueError, match="values"):
        loads_truth_table('{"n": 2, "values": [1, true, -1, 1]}')
    with pytest.raises(ValueError, match="coeffs"):
        loads_spectrum('{"n": 1, "coeffs": [0.5, false]}')


@pytest.mark.parametrize("entry", ['"1.5"', '"2"', '"x"', "null", "[1]", '{"a": 1}'])
def test_strings_are_not_numbers(entry):
    with pytest.raises(ValueError, match="^values must hold numbers"):
        loads_truth_table('{"n": 1, "values": [%s, 2]}' % entry)
    with pytest.raises(ValueError, match="^coeffs must hold numbers"):
        loads_spectrum('{"n": 1, "coeffs": [0.5, %s]}' % entry)


def test_symmetric_spectrum_needs_its_keys():
    with pytest.raises(ValueError, match="level_coeffs"):
        loads_symmetric_spectrum('{"n": 1}')


def test_symmetric_spectrum_must_be_an_object():
    with pytest.raises(ValueError, match="symmetric-spectrum JSON"):
        loads_symmetric_spectrum('[1, "1/2"]')


def test_symmetric_spectrum_rejects_booleans():
    with pytest.raises(ValueError, match="level_coeffs must hold numbers"):
        loads_symmetric_spectrum('{"n": 1, "level_coeffs": [true, "1/2"]}')


def test_symmetric_spectrum_rejects_non_rationals():
    for bad in ("null", '"1/0"', "Infinity", "NaN", '"x"'):
        with pytest.raises(ValueError, match="level_coeffs"):
            loads_symmetric_spectrum('{"n": 1, "level_coeffs": [%s, "1/2"]}' % bad)


def test_symmetric_spectrum_refuses_exponent_forms_fast():
    # "1e-10000000" alone would build a 33-million-bit denominator (13.8 s) before any check
    import time

    for bad in ('"1e-10000000"', '"2.5E3"', '"1/2e1"'):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^level_coeffs: exponent forms are not read"):
            loads_symmetric_spectrum('{"n": 1, "level_coeffs": ["0", %s]}' % bad)
        assert time.perf_counter() - start < 1.0, bad
    # "p/q", plain decimals and JSON numbers, exponent-form numbers among them, still load
    s = loads_symmetric_spectrum('{"n": 3, "level_coeffs": ["-3/4", "0.25", 0.25, 25e-2]}')
    assert s.level_coeffs == (Fraction(-3, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_dense_emitters_match_the_generic_emitter():
    awkward = [0.1, -0.0, 5e-324, -1.7976931348623157e308, 1 / 3, 2.0**-1074 * 3, 1e16, -2.5]
    f = from_truth_table(3, awkward)
    assert dumps_truth_table(f) == dumps({"n": 3, "values": awkward})
    s = walsh_transform(f)
    assert dumps_spectrum(s) == dumps({"n": 3, "coeffs": [float(c) for c in s.coeffs]})


def _one_string_per_value(n, key, values):
    return '{"n": %d, "%s": [%s]}\n' % (n, key, ", ".join(map(fmt17, values.tolist())))


@pytest.mark.parametrize("n", [1, 2, 9, 16, 17])
def test_vector_pieces_write_the_bytes_of_one_string_per_value(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 1.0, 2**n) * 10.0 ** rng.integers(-300, 300, 2**n)
    f = from_truth_table(n, values)
    assert dumps_truth_table(f) == _one_string_per_value(n, "values", values)
    s = walsh_transform(f)
    assert dumps_spectrum(s) == _one_string_per_value(n, "coeffs", s.coeffs)
    witness = _one_string_per_value(n, "values", values).rstrip("\n")
    report = '{"suite": "wiener", "samples": 1, "failures": 0, "worst_margin": 0, "witness": %s}\n' % witness
    assert dumps_report(InequalityReport("wiener", 1, 0, 0.0, f)) == report


def _assert_written_as_fmt17(values):
    values = np.asarray(values, dtype=np.float64)
    assert dumps(values) == "[%s]\n" % ", ".join(map(fmt17, values.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, max_size=40))
def test_vector_writer_writes_fmt17_of_each_value(values):
    _assert_written_as_fmt17(values)


def test_vector_writer_on_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_written_as_fmt17(values[np.isfinite(values)])


def test_vector_writer_edges():
    tiny, huge = 5e-324, 1.7976931348623157e308
    edges = [0.0, -0.0, tiny, huge, 2.2250738585072014e-308, 1e-290, 1e299, 0.5, 2.5, 1e22, 1e23]
    edges += [1e-5, 9.9999999999999991e-6, 1e-4, 9.9999999999999991e-5, 1e16, 1e17, 99999999999999999.0]
    edges += [1000000000000000.25, 1000000000000000.75]  # exact ties at the 17th digit
    for k in range(-300, 301):
        p = float("1e%d" % k)
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    edges += [-v for v in edges]
    assert [fmt17(v) for v in (99999999999999999.0, 1000000000000000.25)] == ["1e+17", "1000000000000000.2"]
    _assert_written_as_fmt17(edges)


def test_vector_writer_around_the_chunk_size():
    from cuberadius.serialize import _CHUNK

    rng = np.random.default_rng(5)
    for size in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        values = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-320, 300, size)
        values[rng.random(size) < 0.1] = 0.0
        values[rng.random(size) < 0.05] = 1000000000000000.25  # a tie, written by "%.17g" itself
        _assert_written_as_fmt17(values)


def test_importing_the_cli_builds_no_writer_table():
    src = str(Path(serialize.__file__).resolve().parent.parent)
    code = "import cuberadius.cli\nfrom cuberadius import serialize\nprint(serialize._float_tables.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_symmetric_spectrum_round_trip_is_exact():
    s = SymmetricSpectrum(3, ["-3/4", "1/4", "1/4", "1/4"])
    back = loads_symmetric_spectrum(dumps_symmetric_spectrum(s))
    assert back.level_coeffs == s.level_coeffs


def _generic_symmetric_dumps(s: SymmetricSpectrum) -> str:
    """The symmetric-spectrum JSON built through the generic emitter, one string per entry."""
    obj = {
        "n": s.n,
        "level_coeffs": [f"{c.numerator}/{c.denominator}" for c in s.level_coeffs],
        "log_abs": ["-inf" if v == -math.inf else fmt17(v) for v in s.log_abs],
    }
    return dumps(obj)


@pytest.mark.parametrize(
    "s",
    [
        SymmetricSpectrum(3, ["-3/4", "1/4", "1/4", "1/4"]),
        SymmetricSpectrum(2, [0, "-1/3", "123456789012345678901234567890/7"]),
        threshold_spectrum_exact(1, 0),
        threshold_spectrum_exact(2, -1),
        threshold_spectrum_exact(9, 0),
        threshold_spectrum_exact(61, 12),
        threshold_spectrum_exact(4001, 2000),
    ],
    ids=lambda s: f"n{s.n}",
)
def test_symmetric_emitter_matches_the_generic_emitter(s):
    assert dumps_symmetric_spectrum(s) == _generic_symmetric_dumps(s)


def test_symmetric_spectrum_round_trip_is_byte_exact_at_the_cap():
    text = dumps_symmetric_spectrum(threshold_spectrum_exact(4001, 0))
    back = loads_symmetric_spectrum(text)
    assert dumps_symmetric_spectrum(back) == text


def test_radius_result_methods():
    with pytest.raises(ValueError, match="unknown method"):
        RadiusResult(0.5, 0.0, 1, "brute_force")


def test_radius_result_json():
    obj = json.loads(dumps_radius_result(RadiusResult(0.5, 1e-12, 40, "bisection")))
    assert obj == {"radius": 0.5, "residual": 1e-12, "iterations": 40, "method": "bisection"}
    obj = json.loads(dumps_radius_result(RadiusResult(math.inf, 0.0, 0, "closed_form")))
    assert obj["radius"] == "inf"


def test_report_json_with_and_without_witness():
    f = from_truth_table(1, [1.0, -1.0])
    rep = InequalityReport("wiener", 3, 0, 0.25, f)
    obj = json.loads(dumps_report(rep))
    assert obj["suite"] == "wiener" and obj["witness"]["values"] == [1.0, -1.0]
    obj = json.loads(dumps_report(InequalityReport("split", 1, 0, 0.0, None)))
    assert obj["witness"] is None


def test_threshold_scan_header_follows_the_report_fields():
    assert THRESHOLD_SCAN_HEADER == tuple(field.name for field in dataclasses.fields(ThresholdReport))


def test_radius_result_csv():
    assert radius_result_csv(RadiusResult(0.5, 1e-12, 40, "bisection")) == (
        "radius,residual,iterations,method\n0.5,9.9999999999999998e-13,40,bisection\n"
    )


def test_threshold_scan_csv_shape():
    text = threshold_scan_csv([threshold_radius(3, 0)])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(THRESHOLD_SCAN_HEADER)
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[1] == "0" and fields[5] == "true"
    assert float(fields[2]) == pytest.approx(0.5960716379833215)


def test_majority_scan_csv_shape():
    text = majority_scan_csv([(3, 0.5, 0.8, 0.9)], 1.03)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(MAJORITY_SCAN_HEADER)
    assert lines[1].split(",")[0] == "3"


def test_json_uses_17_significant_digits():
    f = from_truth_table(1, [1 / 3, -2 / 3])
    text = dumps_truth_table(f)
    assert "0.33333333333333331" in text
