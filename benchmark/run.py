"""brokenray benchmark: forward -> reconstruct -> predict through the CLI.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in its own child process with BLAS and OpenMP pools
pinned to one thread, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "brokenray" / "cli.py").is_file():
        return fail(f"no brokenray sources under {root / 'src'}; run from a checkout's root")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    runs = HERE / "out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=runs))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"workload process exited with {proc.returncode}")
    result = json.loads((out / "result.json").read_text())
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child waited for is the workload
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = peak_kib / 1024.0
    # keep the run's record (with every stage sample) and its spans
    keep = HERE / "out" / "results"
    keep.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (keep / f"{stem}.json").write_text(json.dumps(result))
    if args.trace:
        shutil.move(out / "spans.json", keep / f"{stem}-spans.json")
    shutil.rmtree(out)

    measured = result.pop("metrics")
    if set(measured) != set(declared):
        return fail(f"metrics {sorted(measured)} differ from BENCHMARK.json {sorted(declared)}")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
