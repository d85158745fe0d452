"""Steadiness of the benchmark on one commit.

Runs ``run.py`` repeatedly, one seed after another, and reports for each
workload and end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, plus the
share of failed operations.  With ``--against`` it also compares each
median with an earlier set: the change in the worse direction, as a share
of the earlier median, must stay within the bound.

    python3 benchmark/steady.py --runs 10 --label set1
    python3 benchmark/steady.py --runs 10 --first-seed 101 --label set2 \\
        --against benchmark/out/steady/set1.json
    python3 benchmark/steady.py --report benchmark/out/steady/set2.json \\
        --against benchmark/out/steady/set1.json

Raw results go to benchmark/out/steady/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = HERE / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["samples"] = json.loads(record.read_text())["samples"]
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarise(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def report(data: dict, spec: dict, against: dict | None) -> bool:
    """Print the table; True when every spread and median shift is within
    its bound (setup_s is exempt from the spread test)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, runs in data["runs"].items():
        failed = [r["failed"] / r["attempted"] for r in runs]
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(set(failed))}, "
              f"correct {all(r['correct'] for r in runs)}, run wall time "
              f"{statistics.median(walls):.1f} s (max {max(walls):.1f})")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6}" + ("  shift vs earlier" if against else ""))
        for name, m in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            line = (f"  {name:<14} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                    f"{s['spread']:>7.3f} {m['bound']:>6.2f}")
            if name != "setup_s" and s["spread"] > m["bound"]:
                steady = False
                line += "  SPREAD OVER BOUND"
            if against and workload in against["runs"]:
                old = statistics.median(r["metrics"][name]["value"] for r in against["runs"][workload])
                shift = (s["median"] - old) / old * (1 if m["better"] == "lower" else -1)
                line += f"  {shift:+.3f}"
                if shift > m["bound"]:
                    steady = False
                    line += " WORSE BEYOND BOUND"
            print(line)
    return steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    ap.add_argument("--against", default=None, help="an earlier set's JSON")
    ap.add_argument("--report", default=None, help="report a saved set instead of running")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report:
        data = json.loads(Path(args.report).read_text())
    else:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        data = {"run_seconds": spec["run_seconds"], "runs": {}}
        for workload in names:
            data["runs"][workload] = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                result = run_once(workload, seed, spec["run_seconds"], 0)
                data["runs"][workload].append(result)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        out = HERE / "out" / "steady"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.label}.json").write_text(json.dumps(data, indent=1))
    against = json.loads(Path(args.against).read_text()) if args.against else None
    return 0 if report(data, spec, against) else 1


if __name__ == "__main__":
    sys.exit(main())
