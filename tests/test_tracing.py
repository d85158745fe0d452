"""The benchmark's tracer finds, and counts calls to, every function it wraps.

``benchmark/tracing.py`` replaces program functions under the names their
callers look them up by, such as ``transforms.reflect``.  A change that
removes or renames one of those names would break the benchmark's traced
run; this test fails first.  It reads ``benchmark/`` and edits nothing there.
"""

import importlib.util
from pathlib import Path

import numpy as np

from brokenray import conjugate, geometry, transforms
from brokenray.geometry import Circle, Ellipse
from brokenray.transforms import Family, SinogramLayout

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_puts_it_back():
    tracer = load_tracing().Tracer(lambda pts: np.zeros(len(pts), dtype=bool))
    try:
        tracer.install()
        # the reflection table and the caustic each reflect once, through
        # the names the tracer wraps
        transforms._reflection_table(Ellipse(1.4, 0.9), Family.full(), SinogramLayout(4, 4, 1.5))
        conjugate.caustic_curve(np.array([0.5, 0.0]), Circle(1.0), n_samples=8)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["geometry.reflect"] * 2
    assert transforms.reflect is geometry.reflect
    assert conjugate.reflect is geometry.reflect
