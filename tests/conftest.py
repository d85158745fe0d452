"""Shared fixtures and independent oracles used across the test suite."""

import math

import numpy as np
import pytest

from brokenray.errors import BrokenRayError
from brokenray.geometry import (
    Circle,
    Ellipse,
    LineCoords,
    Parabola,
    SampledCurve,
    reflect,
    reflect_line_map,
)


def star_curve_points(n=512, base=1.0, amp=0.12, lobes=3):
    """Smooth wavy closed test curve r(phi) = base + amp*cos(lobes*phi)."""
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = base + amp * np.cos(lobes * phi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


@pytest.fixture(scope="session")
def circle():
    return Circle(1.0)


@pytest.fixture(scope="session")
def ellipse():
    return Ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def parabola():
    return Parabola(focal=1.0, x_max=4.0)


@pytest.fixture(scope="session")
def generic_curve():
    return SampledCurve(star_curve_points())


def fd_jacobian(boundary, line, from_point, h=1e-5):
    """Central finite differences of chi: (s, alpha) -> (s2, alpha2).

    Independent oracle for the analytic reflection Jacobian; the source
    anchor rides along the perturbed line at a fixed line coordinate.
    """
    t0 = float(np.dot(np.asarray(from_point, dtype=float), line.v))
    s, a = line.s, line.alpha

    def chi(ss, aa):
        return np.array(reflect_line_map(boundary, ss, aa, t0))

    ds = (chi(s + h, a) - chi(s - h, a)) / (2.0 * h)
    da = (chi(s, a + h) - chi(s, a - h)) / (2.0 * h)
    return np.column_stack([ds, da])


def random_admissible_events(boundary, rng, n, interior_radius=None):
    """Yield n random valid reflection events on the boundary.

    Sources are drawn inside the domain, directions uniformly; rays that
    miss or graze are re-drawn.
    """
    events = []
    attempts = 0
    while len(events) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("rejection sampling stalled")
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        if isinstance(boundary, Parabola):
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(-3.5, -(x * x) / (4.0 * boundary.focal) - 0.3)
            p = np.array([x, y])
        elif isinstance(boundary, Ellipse):
            u = math.sqrt(rng.uniform(0.0, 1.0)) * 0.85
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = np.array([boundary.a * u * math.cos(phi), boundary.b * u * math.sin(phi)])
        else:
            rad = interior_radius if interior_radius is not None else 0.8
            u = math.sqrt(rng.uniform(0.0, 1.0)) * rad
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = np.array([u * math.cos(phi), u * math.sin(phi)])
        line = LineCoords.through(p, alpha)
        try:
            events.append((line, p, reflect(boundary, line, p)))
        except BrokenRayError:
            continue
    return events
