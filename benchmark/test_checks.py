"""The benchmark's output checks catch a perturbed program.

    python3 -m pytest benchmark/test_checks.py -q

Each case runs one round of a workload (shrunk where that keeps the check
meaningful) through the CLI in process, with one part of the program
patched in process, and asserts that the check aimed at that part fails.
No source file is edited.  The unperturbed program passes every check.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from brokenray import cli, conjugate, geometry, transforms  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    # the forward tolerance depends on the image grid and the phantom, so
    # those stay; angles, iterations and caustic samples shrink
    "disk_landweber": lambda: workloads.disk_landweber(3, n_alpha=60, iterations=3),
    "ellipse_fbp": lambda: workloads.ellipse_fbp(3, n_s=16, n_alpha=16, n_samples=60),
    "parallel_landweber": lambda: workloads.parallel_landweber(3, n_alpha=60, iterations=3),
}
MIRRORS = ("disk_landweber", "ellipse_fbp")
LANDWEBER = ("disk_landweber", "parallel_landweber")


def run_round(inp, tmp_path):
    out = tmp_path / inp.name
    out.mkdir()
    run = child.Run(inp, out, tracer=None)
    run.round(traced=False)
    return run


def shift_reflected_angle(mp):
    table = transforms._reflection_table

    def shifted(boundary, family, layout):
        mask, s2, a2 = table(boundary, family, layout)
        return mask, s2, a2 + layout.dalpha

    mp.setattr(transforms, "_reflection_table", shifted)


def shift_parallel_offset(mp):
    cls = transforms.ParallelRayOperator
    mp.setattr(cli, "ParallelRayOperator",
               lambda offset, img, sino: cls(offset + sino.ds, img, sino))


def raise_grazing_threshold(mp):
    mp.setattr(transforms, "GRAZING_COS", 0.3)
    mp.setattr(geometry, "GRAZING_COS", 0.3)


def _scaled(adjoint):
    def scaled(self, g):
        back = adjoint(self, g)
        return back.copy_with(back.data * 1.01)

    return scaled


def scale_adjoint(mp):
    for cls in (transforms.BrokenRayOperator, transforms.ParallelRayOperator):
        mp.setattr(cls, "adjoint", _scaled(cls.adjoint))


def scale_relative_error(mp):
    original = cli.relative_error
    mp.setattr(cli, "relative_error", lambda f, rec: original(f, rec) * 1.01)


def negate_landweber_result(mp):
    original = cli.landweber

    def negated(g, op, cfg):
        result = original(g, op, cfg)
        result.final = result.final.copy_with(-result.final.data)
        return result

    mp.setattr(cli, "landweber", negated)


def move_conjugate_point(mp):
    original = conjugate.conjugate_point

    def moved(p, event, *args):
        q = original(p, event, *args)
        return None if q is None else q + 1e-4 * event.line_out.v

    mp.setattr(conjugate, "conjugate_point", moved)


def stretch_locus(mp):
    original = cli.tangent_conjugate_locus

    def stretched(p, radius):
        locus = original(p, radius)
        return dataclasses.replace(locus, t=locus.t * (1.0 + 1e-6))

    mp.setattr(cli, "tangent_conjugate_locus", stretched)


def drop_polygon_radius(mp):
    original = cli.polygon_artifact_radii
    mp.setattr(cli, "polygon_artifact_radii", lambda n_max: original(n_max)[:-1])


CASES = [
    (shift_reflected_angle, "forward_closed_form", MIRRORS),
    (shift_parallel_offset, "forward_closed_form", ("parallel_landweber",)),
    (raise_grazing_threshold, "forward_closed_form", MIRRORS),
    (scale_adjoint, "adjoint_identity", tuple(SMALL)),
    (scale_relative_error, "relative_error", tuple(SMALL)),
    (negate_landweber_result, "landweber_residual", LANDWEBER),
    (move_conjugate_point, "caustic_envelope", MIRRORS),
    (stretch_locus, "tangent_locus", ("disk_landweber",)),
    (drop_polygon_radius, "polygon_radii", tuple(SMALL)),
]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_unperturbed_program_passes(workload, tmp_path):
    run = run_round(SMALL[workload](), tmp_path)
    assert run.failed == 0, dict(run.failed_checks)


@pytest.mark.parametrize("perturb,check,workload", [
    pytest.param(perturb, check, w, id=f"{w}-{perturb.__name__}")
    for perturb, check, names in CASES for w in names
])
def test_check_catches_perturbation(perturb, check, workload, tmp_path, monkeypatch):
    perturb(monkeypatch)
    run = run_round(SMALL[workload](), tmp_path)
    assert check in run.failed_checks
