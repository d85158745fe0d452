"""Spans around the program's public functions, and the per-layer metrics
derived from them.

The tracer replaces each function under the name its caller looks it up
by: ``cli`` binds ``landweber``, ``fbp``, ``caustic_curve``, ``render`` ...
by name, ``transforms`` and ``conjugate`` bind ``reflect``, and
``reconstruct`` binds ``lambda_filter`` and ``step_size_estimate``.
Operator methods are replaced on their classes.  A span is
``[name, start, end, parent index, round, attrs]``; spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus
its children's.  Nothing in the program is edited: ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import brokenray.cli as cli
import brokenray.conjugate as conjugate
import brokenray.io as brio
import brokenray.reconstruct as reconstruct
import brokenray.transforms as transforms

IO_WRITERS = ("save_image", "save_pgm", "save_sinogram", "save_caustic_csv",
              "save_locus_csv", "save_chain_csv", "write_manifest")
OPERATORS = (transforms.BrokenRayOperator, transforms.ParallelRayOperator,
             transforms.RadonOperator)


def _bins(args, kwargs, op):
    lay = op.sino_layout
    mask = getattr(op, "mask", None)
    admitted = lay.n_alpha * lay.n_s if mask is None else int(mask.sum())
    return {"admitted": admitted, "masked": lay.n_alpha * lay.n_s - admitted}


def _iters(args, kwargs, result):
    return {"iters": result.n_iters}


def _bytes(args, kwargs, result):
    path = str(args[0])
    size = os.path.getsize(path)
    if os.path.exists(path + ".scale"):
        size += os.path.getsize(path + ".scale")
    return {"bytes": size}


class Tracer:
    def __init__(self, inside_mirror):
        """``inside_mirror`` maps an (m, 2) array of points to a boolean
        array: which caustic points are useful, lying inside the mirror."""
        self.spans = []
        self.round = -1
        self._stack = []
        self._patches = []
        self._inside = inside_mirror

    def _caustic(self, args, kwargs, curve):
        pts = np.array([cp.point for cp in curve.points]).reshape(-1, 2)
        return {"points": len(pts), "inside": int(self._inside(pts).sum())}

    def _wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                span[5] = after(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        wrap = self._wrap
        wrap(cli.ExperimentConfig, "operator", "transforms.operator_build", _bins)
        wrap(transforms, "radon", "transforms.radon")
        wrap(transforms, "radon_adjoint", "transforms.radon_adjoint")
        for cls in OPERATORS:
            wrap(cls, "forward", "transforms.operator_forward")
            wrap(cls, "adjoint", "transforms.operator_adjoint")
        wrap(reconstruct, "lambda_filter", "transforms.lambda_filter")
        wrap(transforms, "reflect", "geometry.reflect")
        wrap(conjugate, "reflect", "geometry.reflect")
        wrap(reconstruct, "step_size_estimate", "reconstruct.power_iteration")
        wrap(cli, "landweber", "reconstruct.landweber", _iters)
        wrap(cli, "fbp", "reconstruct.fbp")
        wrap(cli, "caustic_curve", "conjugate.caustic_curve", self._caustic)
        wrap(cli, "conjugate_chain", "conjugate.conjugate_chain")
        wrap(cli, "tangent_conjugate_locus", "conjugate.tangent_locus")
        wrap(cli, "render", "phantoms.render")
        wrap(cli, "clip_to_boundary", "phantoms.clip")
        for writer in IO_WRITERS:
            wrap(brio, writer, "io.write", _bytes)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "attrs"],
                       "spans": self.spans}, fh)


def round_metrics(spans, indices) -> dict:
    """Per-layer totals over the spans ``indices`` of one round (one
    forward -> reconstruct -> predict pipeline).  Bin counts are per
    operator build."""
    child_time = defaultdict(float)
    for i in indices:
        sp = spans[i]
        if sp[3] >= 0:
            child_time[sp[3]] += sp[2] - sp[1]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    power_steps = 0
    for i in indices:
        name, start, end, parent, _, extra = spans[i]
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            attrs[name][key] += value
        if (name == "transforms.operator_forward" and parent >= 0
                and spans[parent][0] == "reconstruct.power_iteration"):
            power_steps += 1
    builds = max(calls["transforms.operator_build"], 1)
    return {
        "transforms.operator_build_s": total["transforms.operator_build"],
        "cli.operator_builds": calls["transforms.operator_build"],
        "transforms.admitted_bins": attrs["transforms.operator_build"]["admitted"] // builds,
        "transforms.masked_bins": attrs["transforms.operator_build"]["masked"] // builds,
        "transforms.radon_s": total["transforms.radon"],
        "transforms.radon_calls": calls["transforms.radon"],
        "transforms.radon_adjoint_s": total["transforms.radon_adjoint"],
        "transforms.radon_adjoint_calls": calls["transforms.radon_adjoint"],
        "transforms.line_map_s": self_time["transforms.operator_forward"]
        + self_time["transforms.operator_adjoint"],
        "transforms.lambda_filter_s": total["transforms.lambda_filter"],
        "transforms.lambda_filter_calls": calls["transforms.lambda_filter"],
        "geometry.reflect_s": total["geometry.reflect"],
        "geometry.reflect_calls": calls["geometry.reflect"],
        "reconstruct.power_iteration_s": total["reconstruct.power_iteration"],
        "reconstruct.power_steps": power_steps,
        "reconstruct.landweber_s": total["reconstruct.landweber"],
        "reconstruct.landweber_self_s": self_time["reconstruct.landweber"],
        "reconstruct.landweber_iters": attrs["reconstruct.landweber"]["iters"],
        "reconstruct.landweber_calls": calls["reconstruct.landweber"],
        "reconstruct.fbp_s": total["reconstruct.fbp"],
        "conjugate.caustic_curve_s": total["conjugate.caustic_curve"],
        "conjugate.caustic_points": attrs["conjugate.caustic_curve"]["points"],
        "conjugate.caustic_points_inside": attrs["conjugate.caustic_curve"]["inside"],
        "conjugate.conjugate_chain_s": total["conjugate.conjugate_chain"],
        "conjugate.tangent_locus_s": total["conjugate.tangent_locus"],
        "phantoms.render_s": total["phantoms.render"],
        "phantoms.clip_s": total["phantoms.clip"],
        "io.write_s": total["io.write"],
        "io.bytes_written": attrs["io.write"]["bytes"],
        "trace.spans": len(indices),
    }


def layer_metrics(spans, overhead_pct: float) -> dict:
    """Median over the traced rounds of each round's per-layer totals."""
    by_round = defaultdict(list)
    for i, sp in enumerate(spans):
        by_round[sp[4]].append(i)
    rounds = [round_metrics(spans, idx) for _, idx in sorted(by_round.items())]
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    out["trace.overhead_pct"] = overhead_pct
    return out
