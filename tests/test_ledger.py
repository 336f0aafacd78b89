"""The output ledger: the exact bytes of every command and the bits of the library radii.

Tier-1 checks results at tolerances, so a last-bit move passes it.  The
ledger, ``tests/ledger.json``, pins for a fixed list of in-process ``cli.main``
argv lines the exit code, the sha256 and length of the output bytes and the
last stderr line, and the ``float.hex`` of library radii at the oracle pairs
of ``test_threshold.py`` and of ``brute_force_bn_radius(1..4)`` with its
witness, and the sha256 of a few exact spectra's reduced pairs and
``log_abs`` bytes.  Every line runs twice in one process, and both runs must agree.

The bytes depend on numpy's and the C library's exp and log on this CPU, so
the file records a machine fingerprint.  On another fingerprint the exit
codes, the stderr lines and the run-twice check are still asserted; the byte
and bit entries xfail with a message naming both fingerprints.

A change that moves an entry on purpose rewrites the file and names the
entry and the reason in CHANGES.md:

    PYTHONPATH=src python tests/rewrite_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cuberadius import cli
from cuberadius.radius import boolean_radius_symmetric, brute_force_bn_radius, homogeneous_class_scan
from cuberadius.threshold import exact_radius, threshold_spectrum_exact

LEDGER = Path(__file__).resolve().parent / "ledger.json"


def _table(n: int, scale: float = 1.0) -> str:
    """A truth-table file of n variables with values from integer arithmetic alone."""
    values = [scale * (((k * 2654435761) % 2001) - 1000) / 997 for k in range(2**n)]
    return json.dumps({"n": n, "values": values})


# The files that --input lines read, written into a fresh directory {tmp}.
INPUTS = {
    "t6.json": _table(6),
    "t10.json": _table(10),
    "huge.json": _table(4, 1e305),
    "bom.json": "\ufeff" + _table(2),
    "nan.json": '{"n": 1, "values": [NaN, 1]}',
    "short.json": '{"n": 2, "values": [1, 2]}',
}

# Every subcommand and family, both formats, the benchmark's operations at
# small sizes, the help texts and the error exits.
ARGV = [
    "radius --family extremal --n 5",
    "radius --family extremal --n 30 --format csv",
    "radius --family dictator --n 4",
    "radius --family dictator --n 2 --format csv",
    "radius --family parity --n 6 --m 3",
    "radius --family parity --n 24",
    "radius --family parity --n 3 --m 0 --format csv",
    "radius --family threshold --n 22 --alpha 3.217",
    "radius --family threshold --n 9 --alpha 2 --format csv",
    "radius --family majority --n 101",
    "radius --family majority --n 100001",
    "radius --family biased --n 8 --lambda 0.25",
    "radius --family biased --n 5 --lambda 0.5 --format csv",
    "radius --input {tmp}/t6.json",
    "radius --input {tmp}/t10.json --n 3 --format csv",
    "radius --input {tmp}/huge.json",
    "radius --input {tmp}/bom.json --output {tmp}/out.txt",
    "spectrum --family extremal --n 3",
    "spectrum --family dictator --n 3",
    "spectrum --family parity --n 4 --m 2",
    "spectrum --family threshold --n 5 --alpha 1.5",
    "spectrum --family majority --n 5",
    "spectrum --family biased --n 4 --lambda 0.375",
    "spectrum --family majority --n 41 --symmetric",
    "spectrum --family threshold --n 401 --alpha 197 --symmetric",
    # the Krawtchouk mirror's edges: b odd and even, n odd and even, a zero middle level
    "spectrum --family threshold --n 1 --alpha 0 --symmetric",
    "spectrum --family threshold --n 2 --alpha 0 --symmetric",
    "spectrum --family threshold --n 4000 --alpha 0 --symmetric",
    "spectrum --family threshold --n 3995 --alpha 1994 --symmetric",
    "spectrum --family threshold --n 4001 --alpha 1998 --symmetric",
    "spectrum --family threshold --n 4001 --alpha 4000 --symmetric",
    "spectrum --family majority --n 4001 --symmetric",
    "spectrum --input {tmp}/t6.json --n 6",
    "spectrum --input {tmp}/huge.json",
    "bn --n 7",
    "bn --n 4 --brute --workers 2",
    "threshold-scan --n-list 101,201 --alphas 0,sqrt,half",
    "majority-scan --n-start 91 --n-stop 111 --workers 1",
    # consecutive odd N at the radius cap
    "majority-scan --n-start 99997 --n-stop 100001",
    "verify --suite all --n-max 6 --samples 3 --seed 1 --workers 1",
    "verify --suite hyper --n-max 5 --samples 4 --seed 12345",
    "verify --suite bh --n-max 5 --samples 4 --seed 1",
    "verify --suite wiener --n-max 5 --samples 4 --seed 1",
    "verify --suite split --n-max 5 --samples 4 --seed 1",
    "verify --suite caratheodory --n-max 5 --samples 4 --seed 1",
    "verify --suite degree-l2 --n-max 5 --samples 4 --seed 1",
    "verify --suite norm-comparison --n-max 5 --samples 4 --seed 1",
    "verify --suite level-m --n-max 5 --samples 4 --seed 1",
    "verify --suite biased-radius --n-max 5 --samples 4 --seed 1",
    "verify --suite cd-ratio --n-max 5 --samples 4 --seed 1",
    "gamma",
    "tn --n 50",
    "--help",
    "radius --help",
    "spectrum --help",
    "verify --help",
    # error exits
    "radius --family parity --n -2 --m -1",
    "radius --family parity --n -2",
    "radius --family parity --n 3 --m 4",
    "radius --family parity --n -2 --m 1",
    "spectrum --family parity --n -2 --m 1",
    "radius --family extremal --n 0",
    "spectrum --family extremal --n 0",
    "radius --family threshold --n 5 --alpha inf",
    "spectrum --family majority --n 4 --symmetric",
    "spectrum --family biased --n 3 --symmetric",
    "bn --n 0",
    "radius --family dictator --n 25",
    "radius --family bogus --n 3",
    "radius --n 3",
    "spectrum --family parity",
    "radius --family threshold --n 3",
    "radius --family majority --n 4",
    "radius --family biased --n 3",
    "radius --family biased --n 3 --lambda nan",
    "radius --family majority --n 100003",
    "spectrum --family parity --n 3 --symmetric",
    "spectrum --family extremal --n 3 --symmetric",
    "spectrum --symmetric --family threshold --n 4002 --alpha 1",
    "spectrum --symmetric --input {tmp}/t6.json",
    "spectrum --family majority --n 5 --symmetric --input {tmp}/t6.json",
    "spectrum --symmetric",
    "spectrum --symmetric --n 5",
    "radius --input {tmp}/nan.json",
    "spectrum --input {tmp}/short.json",
    "bn --n 5 --brute",
    "threshold-scan --n-list 5 --alphas 1.5",
    "threshold-scan --n-list ,,",
    "threshold-scan --n-list 5 --alphas ,",
    "majority-scan --n-start 7 --n-stop 3",
    "verify --suite wiener --n-max 2 --samples 1 --seed -1",
    "verify --suite bogus --n-max 3",
    "tn --n 0",
]

# The pairs of test_threshold.py's 60-digit oracle (N - alpha odd).
ORACLE_PAIRS = [(101, 50), (1001, 0), (2001, 44), (2001, 1000), (101, 98), (106, 101), (114, 21)]

# Exact spectra pinned by their reduced pairs and log_abs bytes: a zero middle level,
# the formal alpha = -1 at the cap and at its smallest N, and the benchmark's point.
SPECTRUM_PAIRS = [(4001, 1998), (4000, -1), (3995, 1994), (2, -1)]


def fingerprint() -> dict:
    """What the bits depend on besides the code: numpy, the C library and the CPU's SIMD features."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "glibc": " ".join(platform.libc_ver()),
        "simd": ",".join(sorted(name for name, on in __cpu_features__.items() if on)),
    }


def _run(line: str, tmp: str) -> dict:
    """One ledger entry; a line's bytes are its stdout and, with --output, the file it wrote."""
    argv = shlex.split(line.format(tmp=tmp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage and --help exits
            code = exc.code
    data = out.getvalue().encode()
    if "--output" in argv:
        written = Path(argv[argv.index("--output") + 1])
        data += written.read_bytes()
        written.unlink()
    lines = err.getvalue().splitlines()
    return {
        "code": code,
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
        "stdout_len": len(data),
        "stderr": lines[-1] if lines else "",
    }


def run_cli_lines() -> tuple:
    """Two passes over ARGV in this process: (first pass, second pass), each {line: entry}."""
    # argparse wraps its usage and help to the terminal width, which COLUMNS sets
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80", LINES="24"):
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        return tuple({line: _run(line, tmp) for line in ARGV} for _ in range(2))


def library_bits() -> dict:
    bits = {}
    for N, a in ORACLE_PAIRS:
        r = exact_radius(N, a)
        bits[f"exact_radius({N}, {a})"] = [r.radius.hex(), r.residual.hex(), r.iterations]
        r = boolean_radius_symmetric(threshold_spectrum_exact(N, a), 1.0)
        bits[f"boolean_radius_symmetric({N}, {a})"] = [r.radius.hex(), r.residual.hex(), r.iterations]
    for N in range(1, 5):
        rho, witness = brute_force_bn_radius(N)
        bits[f"brute_force_bn_radius({N})"] = [rho.hex(), hashlib.sha256(witness.values.tobytes()).hexdigest()]
    bits["homogeneous_class_scan(10, 2, 50, 3)"] = [homogeneous_class_scan(10, 2, 50, 3).hex()]
    for N, a in SPECTRUM_PAIRS:
        s = threshold_spectrum_exact(N, a)
        bits[f"threshold_spectrum_exact({N}, {a})"] = [
            hashlib.sha256(" ".join(f"{p:x}/{q:x}" for p, q in s._pairs).encode()).hexdigest(),  # hex is linear
            hashlib.sha256(s.log_abs.tobytes()).hexdigest(),
        ]
    return bits


def record() -> dict:
    """The whole ledger as rewrite_ledger.py writes it."""
    first, second = run_cli_lines()
    if first != second:
        raise RuntimeError(f"a second run differs: {[line for line in ARGV if first[line] != second[line]]}")
    return {"fingerprint": fingerprint(), "cli": first, "library": library_bits()}


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


@pytest.fixture(scope="module")
def runs():
    return run_cli_lines()


def _bytes_or_xfail(ledger):
    here, there = fingerprint(), ledger["fingerprint"]
    if here != there:
        keys = [k for k in sorted(here | there) if here.get(k) != there.get(k)]
        moved = "; ".join(f"{k}: ledger {there.get(k)}, here {here.get(k)}" for k in keys)
        pytest.xfail(f"another machine fingerprint ({moved}); bytes unchecked")


def test_the_ledger_lists_every_line(ledger):
    assert list(ledger["cli"]) == ARGV


def test_every_line_runs_twice_alike(runs):
    first, second = runs
    assert [line for line in ARGV if first[line] != second[line]] == []


def test_exit_codes_and_stderr(ledger, runs):
    got = {line: (e["code"], e["stderr"]) for line, e in runs[0].items()}
    want = {line: (e["code"], e["stderr"]) for line, e in ledger["cli"].items()}
    assert {line: got[line] for line in ARGV if got[line] != want[line]} == {}
    # a usage or input error is one cuberadius line, never a traceback
    assert all(e["stderr"].startswith("cuberadius") for e in ledger["cli"].values() if e["code"])


def test_stdout_bytes(ledger, runs):
    _bytes_or_xfail(ledger)
    moved = [line for line in ARGV if runs[0][line] != ledger["cli"][line]]
    assert moved == []


def test_library_bits(ledger):
    _bytes_or_xfail(ledger)
    got = library_bits()
    assert {k: v for k, v in got.items() if ledger["library"].get(k) != v} == {}
    assert list(got) == list(ledger["library"])
