"""Run the benchmark over ten seeds, twice, and record a perf-trajectory entry.

    python3 perfbench/collect.py --label seed --out perfbench/trajectory/BENCH_seed.json

It makes two sets of untraced runs, each with one run per seed 1..10 on every
workload, and reports per end-to-end metric and set the median, the quartiles
and the spread (q3 - q1) / median, next to the metric's bound and a third of
it.  It also reports how far the second set's median is worse than the
first's.  Then it runs the traced benchmark twice per workload on seed 1 and
checks that every count repeats exactly.  The command, run length, workloads
and bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
TRACED_RUNS = 2


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = next((json.loads(l[len("# machine ") :]) for l in lines if l.startswith("# machine ")), None)
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, correct {result['correct']}", file=sys.stderr)
    return result, machine


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def untraced_set(spec, workload, machine):
    results = []
    for seed in SEEDS:
        result, machine["info"] = run_once(spec, workload, seed, 0)
        results.append(result)
    return {
        "seeds": list(SEEDS),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results], m["bound"])
            for m in spec["end_to_end"]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    machine = {}
    entry = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {w: {} for w in names}}
    sets = [{w: untraced_set(spec, w, machine) for w in names} for _ in range(SETS)]
    over_bound, over_target, correct = [], [], True
    for w in names:
        entry["workloads"][w]["untraced_sets"] = [s[w] for s in sets]
        correct = correct and all(s[w]["correct"] and s[w]["failed"] == 0 for s in sets)
        drifts = {}
        for name, first in sets[0][w]["metrics"].items():
            last = sets[-1][w]["metrics"][name]
            sign = 1.0 if better[name] == "lower" else -1.0
            drifts[name] = sign * (last["median"] - first["median"]) / first["median"]
            for i, s in enumerate(sets, 1):
                m = s[w]["metrics"][name]
                flag = ""
                if m["spread"] > m["bound"]:
                    flag = "over bound"
                    over_bound.append(f"{w} {name} spread, set {i}")
                elif m["spread"] > m["bound"] / 3:
                    flag = "over bound/3"
                    over_target.append(f"{w} {name} spread, set {i}")
                print(f"{w:<10} {name:<13} set {i}  median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                      f"spread {m['spread']:.4f}  bound {m['bound']}  {flag}")
            print(f"{w:<10} {name:<13} second median worse than first by {drifts[name]:+.4f}")
            if drifts[name] > first["bound"]:
                over_bound.append(f"{w} {name} median drift")
        entry["workloads"][w]["median_worse_by"] = drifts
        traced = [run_once(spec, w, 1, 1)[0] for _ in range(TRACED_RUNS)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        correct = correct and repeat and all(t["correct"] for t in traced)
        print(f"{w:<10} traced runs: counts repeat exactly: {repeat}")
        entry["workloads"][w]["traced"] = {
            "seed": 1,
            "counts_repeat": repeat,
            "runs": [{k: v["value"] for k, v in t["metrics"].items()} for t in traced],
        }
    entry["machine"] = machine["info"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"correct: {correct}")
    print(f"spread or median drift over the bound: {over_bound or 'none'}")
    print(f"spread over a third of the bound: {over_target or 'none'}")
    return 0 if correct and not over_bound else 1


if __name__ == "__main__":
    sys.exit(main())
