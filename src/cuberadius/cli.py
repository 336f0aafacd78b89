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
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import families, inequalities, radius, serialize, threshold
from .cube import BooleanFunction, sup_norm, walsh_transform


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family(args) -> str:
    """Check --family and --n, and the arguments that threshold and majority need."""
    if args.family is None:
        raise ValueError("need --family (or --input where supported)")
    if args.n is None:
        raise ValueError("--n is required with --family")
    if args.family == "threshold" and args.alpha is None:
        raise ValueError("threshold needs --alpha")
    if args.family == "majority" and args.n % 2 == 0:
        raise ValueError("majority needs odd n")
    return args.family


def _threshold_pair(args):
    """(N, alpha) of the threshold function psi_{N,alpha} that the family
    threshold, majority or extremal names, alpha as given; None for the other
    families.  The extremal indicator flip is -psi_{N,N-1}."""
    name = _family(args)
    if name not in ("threshold", "majority", "extremal"):
        return None
    return args.n, {"threshold": args.alpha, "majority": 0, "extremal": args.n - 1}[name]


def _parity_set(args) -> range:
    m = args.m if args.m is not None else args.n
    if m < 0:
        raise ValueError(f"--m must be >= 0, got {m}")
    return range(1, m + 1)


def _character_profile(args):
    """The level profile of the character x^S that dictator (S = {1}) or
    parity (S = {1..m}) names, with the checks of its dense table: weight 1
    at level |S| (the constant at S empty), sup norm 1, the profile the
    butterfly would find.  None for the other families."""
    name = _family(args)
    if name not in ("dictator", "parity"):
        return None
    degree = families.subset_mask(args.n, [1] if name == "dictator" else _parity_set(args)).bit_count()
    w = np.zeros(args.n + 1)
    w[degree] = 1.0
    return radius.LevelProfile(args.n, w, 1.0)


def _build_family(args):
    name = _family(args)
    if name == "threshold":
        return families.threshold(families.ThresholdSpec(args.n, args.alpha))
    if name == "majority":
        return families.majority(args.n)
    if name == "extremal":
        return families.extremal_indicator_flip(args.n)
    if name == "dictator":
        return families.dictator(args.n, 1)
    if name == "parity":
        return families.parity(args.n, _parity_set(args))
    if name == "biased":
        if args.lam is None:
            raise ValueError("biased needs --lambda")
        return families.biased_indicator(args.n, args.lam)
    raise ValueError(f"unknown family {name!r}")


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
    if not args.input and (pair := _threshold_pair(args)):
        result = threshold.exact_radius(*threshold.canonical_pair(*pair))
    elif not args.input and (profile := _character_profile(args)):
        result = radius.boolean_radius(profile)
    else:
        f = _load_input_function(args.input) if args.input else _build_family(args)
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
        pair = _threshold_pair(args)
        if pair is None or args.family == "extremal":
            raise ValueError("--symmetric supports only threshold and majority")
        pair = threshold.canonical_pair(*pair, threshold.MAX_SPECTRUM_N)
        text = serialize.dumps_threshold_spectrum(*pair)
    else:
        f = _load_input_function(args.input) if args.input else _build_family(args)
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
        p.add_argument(
            "--family",
            choices=["extremal", "dictator", "parity", "threshold", "majority", "biased"],
        )
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
    p.add_argument(
        "--suite",
        required=True,
        choices=list(inequalities.ASSERTABLE_SUITES) + list(inequalities.REPORT_SUITES) + ["all"],
    )
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
