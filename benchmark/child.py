"""One run of one workload, inside the child process that ``run.py`` starts.

A single closed loop runs the user's pipeline through the CLI in process,
one command at a time: ``forward``, ``reconstruct`` and ``predict`` on the
config the benchmark wrote, then the output checks.  It repeats whole
rounds until the next round would end past ``--seconds`` (and at least
``MIN_ROUNDS`` times).  Commands are timed; checks are not.

Usage: python3 benchmark/child.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR
Writes DIR/result.json; with --trace 1 also DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import brokenray  # noqa: E402
from brokenray import cli  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
# the traced run alternates untraced and traced rounds to measure overhead
MIN_TRACED_ROUNDS = 4


def inside_mirror(inp):
    """Which points lie inside the workload's mirror (none without one)."""
    if inp.mirror is None:
        return lambda pts: np.zeros(len(pts), bool)
    a, b = (inp.mirror[1],) * 2 if inp.mirror[0] == "circle" else inp.mirror[1:]
    return lambda pts: (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 <= 1.0


class Run:
    def __init__(self, inp, out: Path, tracer):
        """Write the workload's config into ``out`` and set it up: build
        its operator at least three times and for at least a second."""
        self.inp = inp
        self.out = out
        self.config = out / "config.ini"
        self.config.write_text(inp.config_text())
        self.cfg = cli.ExperimentConfig.from_file(self.config)
        self.tracer = tracer
        self.rng = np.random.default_rng([inp.seed, 4])
        self.times = {"setup": [], "forward": [], "reconstruct": [], "predict": []}
        self.attempted = 0
        self.failed = 0
        self.failed_checks = Counter()
        self.reported = set()
        self.op = self.build(3, 1.0)

    def build(self, min_builds: int, min_seconds: float):
        """Time ``ExperimentConfig.operator()``; return the last operator."""
        spent, done = 0.0, 0
        while done < min_builds or spent < min_seconds:
            t0 = perf_counter()
            op = self.cfg.operator()
            elapsed = perf_counter() - t0
            self.times["setup"].append(elapsed)
            spent, done = spent + elapsed, done + 1
        return op

    def command(self, name: str, traced: bool) -> str:
        """Run one CLI command; return what it printed."""
        buf = io.StringIO()
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main([name, "--config", str(self.config), "--out", str(self.out)])
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = traceback.format_exc()
        elapsed = perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"[{name}] failed: {rc} {buf.getvalue()}", file=sys.stderr)
        self.times[name].append(elapsed)
        return buf.getvalue()

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:  # a check that cannot read its input fails
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed += 1
            self.failed_checks[name] += 1
        if not ok or name not in self.reported:
            self.reported.add(name)
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.stderr)

    def round(self, traced: bool) -> None:
        inp, out = self.inp, self.out
        # more set-up samples, spread over the run like the stage samples:
        # the host's speed drifts on a scale of 10-40 s
        self.op = self.build(1, 0.1)
        self.command("forward", traced)
        printed = self.command("reconstruct", traced)
        # predict overwrites the manifest, so read reconstruct's now
        manifest_path = out / "manifest.txt"
        manifest = checks.read_manifest(manifest_path.read_text()) if manifest_path.exists() else {}
        for _ in range(inp.predict_repeats):
            self.command("predict", traced)
        f, g = checks.random_pair(self.op, self.rng)
        self.check("forward_closed_form", lambda: checks.check_forward(inp, out))
        self.check("adjoint_identity", lambda: checks.check_adjoint(self.op, f, g))
        self.check("relative_error", lambda: checks.check_relative_error(out, printed, manifest))
        if inp.method == "landweber":
            self.check("landweber_residual",
                       lambda: checks.check_landweber_residual(inp, self.op, out, manifest))
        if inp.mirror is not None:
            self.check("caustic_envelope", lambda: checks.check_caustic(inp, out))
        if inp.mirror is not None and inp.mirror[0] == "circle":
            self.check("tangent_locus", lambda: checks.check_tangent_locus(inp, out))
        self.check("polygon_radii", lambda: checks.check_polygon_radii(inp, out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if Path(brokenray.__file__).resolve().parent != ROOT / "src" / "brokenray":
        print(f"brokenray imported from {brokenray.__file__}, not this checkout", file=sys.stderr)
        return 2
    inp = WORKLOADS[args.workload](args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(inside_mirror(inp))
    run = Run(inp, out, tracer)
    traced_rounds, plain_rounds = [], []
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(plain_rounds) > len(traced_rounds)
        tracer.round = len(traced_rounds)
        t0 = perf_counter()
        run.round(traced)
        (traced_rounds if traced else plain_rounds).append(perf_counter() - t0)
        done = len(traced_rounds) + len(plain_rounds)
        every = traced_rounds + plain_rounds
        if done >= min_rounds and (perf_counter() - t_start) + statistics.median(every) > args.seconds:
            if not args.trace or len(traced_rounds) == len(plain_rounds):
                break

    if args.trace:
        tracer.write(out / "spans.json")
        overhead = 100.0 * (statistics.median(traced_rounds) / statistics.median(plain_rounds) - 1.0)
        metrics = layer_metrics(tracer.spans, overhead)
    else:
        metrics = {f"{stage}_s": statistics.median(samples) for stage, samples in run.times.items()}
    result = {
        "correct": not run.failed_checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "rounds": done,
        "samples": run.times,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
