"""cuberadius benchmark: one seeded workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  Every
operation runs in-process through ``cuberadius.cli.main`` or the public
library calls a user makes, and every output is checked.  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (spans from
``spans.py``), and the untraced passes of the same run give the tracing
overhead.  Lines before it, prefixed ``#``, describe the machine and give
the pass quartiles.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import Tracer

#: Fresh processes timed for ``setup_s``, spread over the run; the median is reported.
SETUP_REPEATS = 12
#: Passes run even when they overrun ``--seconds``.
MIN_PASSES = 3

#: Unit of every metric, as BENCHMARK.json declares it.
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    return info


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh process that imports the package and writes the inputs."""
    target = Path(tempfile.mkdtemp(dir=workdir))
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # rounds every set-up time up to the next poll.
    subprocess.run(
        [sys.executable, str(Path(workloads.__file__)), "--workload", workload, "--seed", str(seed), "--dir", str(target)],
        check=True,
    )
    elapsed = time.perf_counter() - start
    shutil.rmtree(target)
    return elapsed


def _run_op(op):
    try:
        return op.run()
    except Exception as exc:  # a crashing operation is a failed one
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(ops, tracer=None):
    """One pass over the operations: (wall s, cpu s, outputs, root span or None)."""
    root = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        outputs = [_run_op(op) for op in ops]
    else:
        tracer.reset()
        tracer.install()
        try:
            with tracer.root("pass") as root:
                outputs = [_run_op(op) for op in ops]
        finally:
            tracer.uninstall()
    return time.perf_counter() - wall0, time.process_time() - cpu0, outputs, root


def check_outputs(ops, outputs) -> list:
    """Problems per operation; every operation must exit 0 and pass its check."""
    found = []
    for op, (code, text) in zip(ops, outputs):
        if code != 0:
            problems = [f"exit code {code}: {text.strip()[-300:]}"]
        else:
            try:
                problems = op.check(text)
            except Exception as exc:  # unparseable output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        found.append(problems)
    return found


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(ops, seconds: float, traced: bool, setup=None):
    """Run passes for ``seconds``; with ``traced`` every other pass is traced.

    ``setup``, if given, is timed SETUP_REPEATS times between the passes,
    evenly over the run, so its median sees the same machine as theirs.  The
    set-ups do not count towards ``seconds``.
    """
    tracer = Tracer() if traced else None
    passes, setups = [], []
    reference, problems = None, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        with_trace = traced and len(passes) % 2 == 0
        wall, cpu, outputs, _ = run_pass(ops, tracer if with_trace else None)
        digests = [hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() for code, text in outputs]
        if reference is None:
            op_problems = check_outputs(ops, outputs)
            reference = [(d, not p) for d, p in zip(digests, op_problems)]
            problems += [f"{op.name}: {p}" for op, ps in zip(ops, op_problems) for p in ps[:3]]
        del outputs
        for op, d, (ref, ok) in zip(ops, digests, reference):
            attempted += 1
            if d != ref or not ok:
                failed += 1
                if d != ref:
                    problems.append(f"{op.name}: output differs from the first pass")
        layers = layer_metrics(tracer) if with_trace else None
        passes.append({"wall": wall, "cpu": cpu, "traced": with_trace, "layers": layers})
        elapsed = time.perf_counter() - start - sum(setups)
        longest = max(p["wall"] for p in passes[-2:])
        done = len(passes) >= MIN_PASSES and elapsed + longest > seconds
        if setup is not None:
            due = SETUP_REPEATS if done else int(SETUP_REPEATS * min(1.0, elapsed / seconds))
            while len(setups) < due:
                setups.append(setup())
        if done:
            return passes, setups, attempted, failed, problems


def layer_metrics(tracer) -> dict:
    g = tracer.groups
    walsh, solve, draw = g["cube.walsh"], g["radius.solve"], g["inequalities.draw"]
    spectrum, quad, read, write = g["threshold.spectrum"], g["threshold.quad"], g["serialize.read"], g["serialize.write"]
    functions = draw.calls + g["inequalities.families"].counters["functions"]
    return {
        "cube.walsh.calls": walsh.calls,
        "cube.walsh.self_s": walsh.self_s,
        "cube.walsh.butterfly_ops": walsh.counters["butterfly_ops"],
        "cube.walsh.bytes_computed": walsh.counters["bytes_computed"],
        "cube.self_s": tracer.layer_self("cube"),
        "radius.level_profile.self_s": g["radius.level_profile"].self_s,
        "radius.solve.calls": solve.calls,
        "radius.solve.self_s": solve.self_s,
        "radius.solve.iterations": solve.counters["iterations"],
        "radius.solve.residual_max": solve.counters["residual_max"],
        "radius.brute.self_s": g["radius.brute"].self_s,
        "radius.self_s": tracer.layer_self("radius"),
        "threshold.spectrum.calls": spectrum.calls,
        "threshold.spectrum.self_s": spectrum.self_s,
        "threshold.spectrum.max_bigint_bits": spectrum.counters["max_bigint_bits"],
        "threshold.quad.calls": quad.calls,
        "threshold.quad.self_s": quad.self_s,
        "threshold.mckay.self_s": g["threshold.mckay"].self_s,
        "threshold.gamma.self_s": g["threshold.gamma"].self_s,
        "threshold.self_s": tracer.layer_self("threshold"),
        "inequalities.draw.calls": draw.calls,
        "inequalities.draw.self_s": draw.self_s,
        "inequalities.draw.per_substream": draw.calls / len(draw.substreams) if draw.substreams else 0.0,
        "inequalities.check.calls": g["inequalities.check"].calls,
        "inequalities.check.self_s": g["inequalities.check"].self_s,
        "inequalities.transforms_per_function": tracer.walsh_in_inequalities / functions if functions else 0.0,
        "inequalities.driver.self_s": g["inequalities.driver"].self_s,
        "inequalities.self_s": tracer.layer_self("inequalities"),
        "families.build.self_s": g["families.build"].self_s,
        "serialize.read.self_s": read.self_s,
        "serialize.read.bytes": read.counters["bytes"],
        "serialize.write.self_s": write.self_s,
        "serialize.write.bytes": write.counters["bytes"],
        "cli.self_s": g["cli"].self_s,
        "trace.spans": tracer.spans,
    }


def end_to_end(passes, setups, attempted, failed) -> dict:
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    values = {
        "setup_s": (statistics.median(setups), quartiles(setups)),
        "wall_s": (statistics.median(walls), quartiles(walls)),
        "cpu_s": (statistics.median(cpus), quartiles(cpus)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
        "success_rate": ((attempted - failed) / attempted, None),
    }
    for name, (value, q) in values.items():
        spread = "" if q is None else f"  q1 {q[0]:.6g}  q3 {q[1]:.6g}"
        print(f"# {name:<14} {value:.6g} {UNITS[name]}{spread}")
    print(f"# error_rate     {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(f"# passes         {len(passes)}, setups {len(setups)}")
    return {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in values.items()}


def per_layer(passes) -> tuple:
    """Medians of the traced passes' times; counts must repeat exactly across them."""
    traced = [p["layers"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    overhead = statistics.median(p["wall"] for p in passes if p["traced"]) - statistics.median(untraced)
    metrics, problems = {}, []
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = overhead
    for name, value in metrics.items():
        print(f"# {name:<40} {value:.6g} {UNITS[name]}")
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.import_cuberadius()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine(), sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT))
    try:
        params = workloads.make_inputs(args.workload, args.seed, workdir)
        ops = workloads.operations(args.workload, params)
        setup = None if args.trace else lambda: time_setup(args.workload, args.seed, workdir)
        passes, setups, attempted, failed, problems = measure(ops, args.seconds, bool(args.trace), setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics, count_problems = per_layer(passes)
        problems += count_problems
    else:
        metrics = end_to_end(passes, setups, attempted, failed)
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        problems.append(f"metrics {sorted(metrics)} are not the ones BENCHMARK.json declares")
    for p in problems:
        print(f"# FAILED {p}")
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
