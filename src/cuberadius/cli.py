"""Command-line front end.

Subcommands: radius, bn, threshold-scan, majority-scan, spectrum, verify,
gamma, tn.  Scalar results are emitted as JSON, scans (and ``radius --format
csv``) as CSV; ``serialize`` writes every byte of both (17 significant digits),
so the output is byte-deterministic for a fixed command and seed.  No command
starts threads.  ``bn``, ``verify`` and ``majority-scan`` still parse
``--workers`` so that existing command lines keep running, and ignore it; no
library function takes a worker count.  Ranges and caps are checked by the
library function that owns them, not again here.  Exit codes: 0 success,
1 verification failure, 2 usage, input or work-cap error.

``FAMILIES`` is the one table of the ``--family`` names: argparse's choices
read it, and ``_family`` checks a name and its flags once per command and
resolves it to where its radius comes from (an exact threshold row, a
character's level, or its dense table) and how its dense table is built.
``--n`` is ignored when ``--input`` gives a table.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import types
from typing import Callable, NamedTuple

import numpy as np

from . import families, inequalities, radius, serialize, threshold
from .cube import BooleanFunction, sup_norm, walsh_transform


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Family(NamedTuple):
    """What --family names, for the flags given."""

    row: tuple | None  # (N, alpha): the radius is the exact threshold row psi_{N,alpha}'s
    subset: range | None  # S: a character x^S, whose radius is that of weight 1 at level |S|
    table: Callable  # () -> the dense table, for spectrum and for the other radii
    problem: str | None = None  # why the flags name no member
    symmetric: bool = False  # --symmetric prints the row's exact spectrum


def _character(n: int, m: int) -> _Family:
    """x^S for S = {1, ..., m}."""
    S = range(1, m + 1)
    return _Family(None, S, lambda: families.parity(n, S), f"--m must be >= 0, got {m}" if m < 0 else None)


# In argparse's order, read-only.  The extremal indicator flip is -psi_{N,N-1}, the dictator x^{1}.
FAMILIES = types.MappingProxyType({
    "extremal": lambda a: _Family((a.n, a.n - 1), None, lambda: families.extremal_indicator_flip(a.n)),
    "dictator": lambda a: _character(a.n, 1),
    "parity": lambda a: _character(a.n, a.n if a.m is None else a.m),
    "threshold": lambda a: _Family(
        (a.n, a.alpha), None, lambda: families.threshold(families.ThresholdSpec(a.n, a.alpha)),
        "threshold needs --alpha" if a.alpha is None else None, True,
    ),
    "majority": lambda a: _Family(
        (a.n, 0), None, lambda: families.majority(a.n), "majority needs odd n" if a.n % 2 == 0 else None, True
    ),
    "biased": lambda a: _Family(
        None, None, lambda: families.biased_indicator(a.n, a.lam), "biased needs --lambda" if a.lam is None else None
    ),
})


def _family(args) -> _Family:
    """Check --family and the flags it needs, once per command, and resolve it.
    --symmetric (spectrum only) names the two families it takes when --family is
    missing, and refuses another family before its own flags are checked."""
    symmetric = getattr(args, "symmetric", False)
    if args.family is None:
        raise ValueError("--symmetric needs --family threshold or majority" if symmetric
                         else "need --family (or --input where supported)")
    if args.n is None:
        raise ValueError("--n is required with --family")
    family = FAMILIES[args.family](args)
    if symmetric and not family.symmetric:
        raise ValueError("--symmetric supports only threshold and majority")
    if family.problem:
        raise ValueError(family.problem)
    return family


def _load_input_function(path: str):
    # the parser reads the bytes, with no text decode; a table that an editor
    # saved with a UTF-8 byte-order mark is read without it
    with open(path, "rb") as fh:
        return serialize.loads_truth_table(fh.read().removeprefix(b"\xef\xbb\xbf"))


def cmd_radius(args) -> int:
    # threshold, majority and extremal are threshold functions up to sign: their
    # radius is solved from exact integer level weights, with no 2^n table, up to
    # N = 100001 and with the bits threshold-scan prints; dictator and parity are
    # characters, whose level profile is known, so they build no table either
    family = None if args.input else _family(args)
    if family and family.row:
        result = threshold.exact_radius(*threshold.canonical_pair(*family.row))
    elif family and family.subset is not None:
        # the dense table's checks first; S empty is the constant, weight 1 at level 0
        degree = families.subset_mask(args.n, family.subset).bit_count()
        w = np.zeros(args.n + 1)
        w[degree] = 1.0
        result = radius.boolean_radius(radius.LevelProfile(args.n, w, 1.0))
    else:
        f = _load_input_function(args.input) if args.input else family.table()
        # The radius does not change under scaling.  A table whose butterfly
        # could overflow is scaled by an exact power of two to a sup norm in
        # [1/2, 1); the residual is scaled back.  Smaller tables keep their bits.
        sup = sup_norm(f)
        e = math.frexp(sup)[1] if sup >= 2.0 ** (1023 - f.n) else 0
        if e:
            f = BooleanFunction._adopt(f.n, np.ldexp(f.values, -e))
        result = radius.boolean_radius(radius.level_profile(walsh_transform(f), math.ldexp(sup, -e)))
        result = dataclasses.replace(result, residual=math.ldexp(result.residual, e))
    emit = serialize.radius_result_csv if args.format == "csv" else serialize.dumps_radius_result
    _write(args, emit(result))
    return 0


def cmd_bn(args) -> int:
    obj = {"n": args.n, "formula": radius.bn_radius_formula(args.n)}
    code = 0
    if args.brute:
        brute, _ = radius.brute_force_bn_radius(args.n)
        obj["brute_force"] = brute
        obj["match"] = bool(abs(brute - obj["formula"]) <= 1e-10)
        if not obj["match"]:
            code = 1
    _write(args, serialize.dumps(obj))
    return code


def _int_token(flag: str, tok: str, forms: str = "an integer") -> int:
    """int(tok), or a ValueError that names the flag and the forms it accepts."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{flag}: expected {forms}, got {tok!r}") from None


def _alpha_tokens(spec: str, N: int):
    for tok in spec.split(","):
        tok = tok.strip()
        if tok == "sqrt":
            yield math.isqrt(max(N, 0))  # the scan reports an N below 1 itself
        elif tok == "half":
            yield N // 2
        elif tok:
            yield _int_token("--alphas", tok, "an integer, 'sqrt' or 'half'")


def cmd_threshold_scan(args) -> int:
    Ns = [_int_token("--n-list", t.strip()) for t in args.n_list.split(",") if t.strip()]
    pairs = [(N, a) for N in Ns for a in _alpha_tokens(args.alphas, N)]
    if not pairs:
        raise ValueError("empty threshold scan: --n-list and --alphas each need at least one value")
    _write(args, serialize.threshold_scan_csv(threshold.threshold_scan(pairs)))
    return 0


def cmd_majority_scan(args) -> int:
    if args.n_start % 2 == 0 or args.n_stop % 2 == 0:
        raise ValueError("majority scan bounds must be odd")
    if args.n_start > args.n_stop:
        raise ValueError(f"empty majority range: --n-start {args.n_start} exceeds --n-stop {args.n_stop}")
    rows = threshold.majority_scan(range(args.n_start, args.n_stop + 1, 2))
    _write(args, serialize.majority_scan_csv(rows, threshold.gamma_constant()))
    return 0


def cmd_spectrum(args) -> int:
    if args.symmetric:
        if args.input:
            raise ValueError("--symmetric prints a family's exact spectrum and reads no file: drop --input")
        pair = threshold.canonical_pair(*_family(args).row, threshold.MAX_SPECTRUM_N)
        text = serialize.dumps_threshold_spectrum(*pair)
    else:
        f = _load_input_function(args.input) if args.input else _family(args).table()
        text = serialize.dumps_spectrum(walsh_transform(f))
    _write(args, text)
    return 0


def cmd_verify(args) -> int:
    report = inequalities.run_suite(args.suite, args.n_max, args.samples, args.seed, d=args.d)
    _write(args, serialize.dumps_report(report))
    return 0 if report.failures == 0 else 1


def cmd_gamma(args) -> int:
    _write(args, serialize.dumps({"gamma": threshold.gamma_constant()}))
    return 0


TN_NOTE = (
    "sum starts at k=1: the printed k=0 term floor(N/0) is undefined; "
    "the coefficient bound behind the equation runs over 1 <= k <= N"
)


def cmd_tn(args) -> int:
    _write(args, serialize.dumps({"n": args.n, "t_n": threshold.tn_lower_bound(args.n), "note": TN_NOTE}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuberadius",
        description="Boolean radii of functions on the Boolean cube from their Fourier-Walsh spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", help="write to this file instead of stdout")

    def add_family(p):
        p.add_argument("--family", choices=list(FAMILIES))
        p.add_argument("--n", type=int, help="cube dimension")
        p.add_argument("--alpha", type=float, help="threshold level")
        p.add_argument("--lambda", dest="lam", type=float, help="bias of the +-1 indicator")
        p.add_argument("--m", type=int, help="parity on the first m coordinates")

    p = sub.add_parser("radius", help="Boolean radius of a family member or a truth-table JSON file")
    add_family(p)
    p.add_argument("--input", help="truth-table JSON file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("bn", help="exact class radius 2^(1/N)-1, optionally brute-force confirmed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="exhaust all sign tables (N <= 4)")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_bn)

    p = sub.add_parser("threshold-scan", help="CSV scan of threshold-function radii")
    p.add_argument("--n-list", required=True, help="comma-separated dimensions")
    p.add_argument("--alphas", default="0,sqrt,half", help="comma list of integers, 'sqrt', 'half'")
    add_common(p)
    p.set_defaults(func=cmd_threshold_scan)

    p = sub.add_parser("majority-scan", help="CSV scan of majority radii against gamma/sqrt(N)")
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-stop", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_majority_scan)

    p = sub.add_parser("spectrum", help="dump a dense or symmetric spectrum as JSON")
    add_family(p)
    p.add_argument("--input", help="truth-table JSON file")
    p.add_argument("--symmetric", action="store_true", help="exact per-level spectrum (threshold/majority)")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run an inequality suite; exit 0 iff no failures")
    p.add_argument("--suite", required=True, choices=[*inequalities.SUITES, "all"])
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=100, help="random draws per mode per dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=3, help="level cap for the low-degree draw mode")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gamma", help="the constant with int_0^gamma e^(u^2/2) du = sqrt(pi/2)")
    add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("tn", help="lower-bound root t_N for degree-N disc polynomials")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_tn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"cuberadius: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
