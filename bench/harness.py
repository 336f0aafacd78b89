"""The half of the ``bench/`` scripts that they share: timers, tree loading and ``main``.

    python3 bench/bench_<layer>.py --label change
    python3 bench/bench_<layer>.py --label change --against <other checkout>/src

A script holds its ``CASES`` (name: description) and a generator
``cases(tree)`` that builds each case's inputs from ``tree`` and yields
``(name, build)`` or ``(name, build, reset)``: ``build(tree)`` returns the
zero-argument call of the case for any tree, fed those same inputs, and
``reset`` runs untimed before every call.  The harness builds both trees' calls
of a case before it asks for the next one, so a builder may read the
generator's loop variables.  A script may also define ``readings(tree, name,
call)``, a dict of further readings of one case (page faults, evaluations), and
``cold()``, the readings of its fresh-process cases.

The package timed is the one under this checkout's ``src``, imported by
``load_tree``.  Alone, each case reports ``median_s``: the median over RUNS of
the mean seconds per call, a run being enough calls to last about RUN_S, after
one untimed warm-up; ``cold()`` runs first.  With ``--against`` the other
checkout's ``src`` is imported as well, as the package ``cuberadius_against``,
and each case's output on the two trees is compared first (arrays by their
bytes, dataclasses field by field); a difference is reported, not timed.
Otherwise ``interleaved`` times the two trees alternately in this process:
PAIRS pairs of one batch each, a batch being enough calls to last about
BATCH_S, which side goes first alternating from pair to pair.  A case then
reports the median seconds per call of each side, the median of the per-pair
ratios (this tree over the other) and how many pairs this tree won.  The
fresh-process cases are left out of this mode.

The run is added under ``--label`` to ``--out`` (``BENCH_<layer>.json`` at the
repository root by default) together with the machine: core count, CPU, Python
and numpy versions; repeated runs under one label are kept in order.

Uses only the standard library and numpy; it is not part of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "cube", "families", "inequalities", "radius", "serialize", "threshold")
RUNS = 5
RUN_S = 0.1
PAIRS = 21
BATCH_S = 0.02


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load_tree(src: Path, name: str):
    """The cuberadius package under ``src``, imported as the package ``name`` with its modules."""
    init = src / "cuberadius" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return package


def cli_call(tree, argv):
    """``tree.cli.main(argv)`` as a zero-argument call that returns its stdout."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            tree.cli.main(argv)
        return out.getvalue()

    return call


def seconds_per_call(call, number: int, reset=None) -> float:
    """Mean seconds of ``number`` calls, each timed on its own after an untimed ``reset``."""
    total = 0.0
    for _ in range(number):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        call()
        total += time.perf_counter() - t0
    return total / number


def calls_lasting(seconds: float, call, reset=None) -> int:
    """How many calls last about ``seconds``, judged from one call after an untimed warm-up."""
    seconds_per_call(call, 1, reset)
    return max(1, round(seconds / max(seconds_per_call(call, 1, reset), 1e-6)))


def median_s(call, reset=None) -> float:
    """Median over RUNS of the mean seconds per call; ``reset`` runs untimed before each."""
    number = calls_lasting(RUN_S, call, reset)
    return statistics.median(seconds_per_call(call, number, reset) for _ in range(RUNS))


def interleaved(mine, theirs, reset=None) -> dict:
    """Seconds per call of each side over PAIRS alternating batches, and their ratios."""
    seconds_per_call(theirs, 1, reset)
    number = calls_lasting(BATCH_S, mine, reset)
    pairs = []
    for i in range(PAIRS):
        if i % 2:
            b = seconds_per_call(theirs, number, reset)
            a = seconds_per_call(mine, number, reset)
        else:
            a = seconds_per_call(mine, number, reset)
            b = seconds_per_call(theirs, number, reset)
        pairs.append((a, b))
    return {
        "this_s": statistics.median(a for a, _ in pairs),
        "against_s": statistics.median(b for _, b in pairs),
        "ratio": statistics.median(a / b for a, b in pairs),
        "this_faster_pairs": sum(a < b for a, b in pairs),
        "pairs": PAIRS,
        "calls_per_batch": number,
    }


def fresh_process(argv) -> tuple:
    """(wall seconds, peak RSS in MB, stdout bytes) of one fresh ``python argv`` on this checkout's src.

    The peak is ``ru_maxrss``, which for a spawned child counts this process's
    own peak at the spawn too (the child shares its memory until the exec), so
    ``main`` runs the fresh processes before it imports the package.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r, w = os.pipe()
    with open(r, "rb") as pipe:
        t0 = time.perf_counter()
        try:
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
        finally:
            os.close(w)
        out = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed with status {status}")
    return wall, usage.ru_maxrss / 1024.0, out  # ru_maxrss is in KiB on Linux


def plain(value):
    """``value`` with each tree's own types taken apart, so that two trees' outputs compare."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, hashlib.blake2b(np.ascontiguousarray(value)).digest()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def output(call, reset=None):
    if reset is not None:
        reset()
    return plain(call())


def parser(script) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=script.__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run's list in the output file")
    ap.add_argument("--against", type=Path, help="another checkout's src, timed alternately with this checkout's")
    ap.add_argument("--out", type=Path, default=ROOT / f"BENCH_{Path(script.__file__).stem.removeprefix('bench_')}.json")
    return ap


def shown(key: str, value) -> str:
    if key == "median_s":
        return f"{value * 1e3:10.3f} ms"
    if key == "cases":
        if not value.get("same_output", True):
            return "OUTPUTS DIFFER"
        return (f"{value['this_s'] * 1e3:9.3f} ms against {value['against_s'] * 1e3:9.3f} ms, "
                f"ratio {value['ratio']:.3f}, won {value['this_faster_pairs']}/{value['pairs']}")
    if isinstance(value, dict):
        return f"{key} {value['this']:g} against {value['against']:g}"
    return f"{value:10g} {key}"


def main(script, argv=None) -> int:
    """Run ``script``'s cases on this checkout (and ``--against``) and add the run to its JSON file."""
    args = parser(script).parse_args(argv)
    cold = script.cold() if args.against is None and hasattr(script, "cold") else {}
    mine = load_tree(SRC, "cuberadius")
    other = None if args.against is None else load_tree(args.against.resolve(), "cuberadius_against")
    readings = getattr(script, "readings", lambda tree, name, call: {})
    run = {"machine": machine(), "against": None if other is None else str(args.against)}
    for name, build, *reset in script.cases(mine):
        call = build(mine)
        if other is None:
            run.setdefault("median_s", {})[name] = median_s(call, *reset)
            for key, value in readings(mine, name, call).items():
                run.setdefault(key, {})[name] = value
        else:
            theirs = build(other)
            same = output(call, *reset) == output(theirs, *reset)
            run.setdefault("cases", {})[name] = interleaved(call, theirs, *reset) if same else {"same_output": False}
            for key, value in readings(mine, name, call).items():
                run.setdefault(key, {})[name] = {"this": value, "against": readings(other, name, theirs)[key]}
        got = [shown(key, values[name]) for key, values in run.items() if key not in ("machine", "against") and name in values]
        print(f"{args.label:>10} {name:>31} " + "; ".join(got))
    for key, values in cold.items():
        run.setdefault(key, {}).update(values)
        for name, value in values.items():
            print(f"{args.label:>10} {name:>31} {shown(key, value)}")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["what"] = (f"seconds per call of the cases of bench/{Path(script.__file__).name}: alone, median_s (the median "
                    f"of {RUNS} runs of the mean seconds per call); with --against, cases ({PAIRS} alternating pairs)")
    data["cases"] = script.CASES
    data.setdefault("runs", {}).setdefault(args.label, []).append(run)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0
