"""Analytic test images: Gaussians, coherent states, Shepp-Logan.

All phantoms are evaluated pointwise at pixel centers, so rigid motions of
a spec re-render exactly (no resampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CenterOutsideWindow
from .geometry import unit_vectors
from .transforms import GridImage, _interior_support_mask

# Modified Shepp-Logan ellipse table:
# (intensity, semi_a, semi_b, x0, y0, rotation_degrees)
SHEPP_LOGAN_MODIFIED = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class PhantomSpec:
    """Phantom description; ``theta`` doubles as the coherent-state axis
    angle and as the global rotation for the Shepp-Logan table."""

    kind: str  # "gaussian" | "coherent" | "shepp_logan"
    center: tuple = (0.0, 0.0)
    sigma: float = 0.05
    theta: float = 0.0
    wavenumber: float = 80.0
    amplitude: float = 1.0

    @classmethod
    def gaussian(cls, center, sigma, amplitude=1.0):
        return cls("gaussian", tuple(center), sigma, amplitude=amplitude)

    @classmethod
    def coherent(cls, center, theta, sigma=0.05, wavenumber=80.0, amplitude=1.0):
        return cls("coherent", tuple(center), sigma, theta, wavenumber, amplitude)

    @classmethod
    def shepp_logan(cls, center=(0.0, 0.0), theta=0.0, amplitude=1.0):
        return cls("shepp_logan", tuple(center), theta=theta, amplitude=amplitude)


def render(spec: PhantomSpec, layout: GridImage) -> GridImage:
    """Evaluate the phantom at the pixel centers of the given layout."""
    cx, cy = spec.center
    if not (layout.x_min <= cx <= layout.x_max and layout.y_min <= cy <= layout.y_max):
        raise CenterOutsideWindow(f"phantom center {spec.center} outside the window")
    X, Y = layout.meshgrid()
    if spec.kind == "gaussian":
        if spec.sigma <= 0:
            raise ValueError("sigma must be positive")
        data = spec.amplitude * np.exp(
            -((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * spec.sigma**2)
        )
    elif spec.kind == "coherent":
        if spec.sigma <= 0 or spec.wavenumber < 0:
            raise ValueError("sigma must be positive and wavenumber nonnegative")
        w = unit_vectors(spec.theta)[1]
        phase = spec.wavenumber * ((X - cx) * w[0] + (Y - cy) * w[1])
        data = (
            spec.amplitude
            * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * spec.sigma**2))
            * np.cos(phase)
        )
    elif spec.kind == "shepp_logan":
        data = _shepp_logan(X - cx, Y - cy, spec.theta) * spec.amplitude
    else:
        raise ValueError(f"unknown phantom kind {spec.kind!r}")
    return layout.copy_with(data)


def _shepp_logan(X, Y, rotation):
    if rotation != 0.0:
        c, s = math.cos(-rotation), math.sin(-rotation)
        X, Y = c * X - s * Y, s * X + c * Y
    data = np.zeros_like(X)
    for inten, a, b, x0, y0, phi_deg in SHEPP_LOGAN_MODIFIED:
        phi = math.radians(phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        xr = (X - x0) * c + (Y - y0) * s
        yr = -(X - x0) * s + (Y - y0) * c
        data += inten * (((xr / a) ** 2 + (yr / b) ** 2) <= 1.0)
    return data


def place(spec: PhantomSpec, new_center=None, rotate_by: float = 0.0) -> PhantomSpec:
    """Rigid motion of the spec: move the center, rotate about it."""
    center = tuple(new_center) if new_center is not None else spec.center
    return replace(spec, center=center, theta=spec.theta + rotate_by)


def clip_to_boundary(img: GridImage, boundary, margin_px: float = 2.0) -> GridImage:
    """Zero the image within margin_px pixels of the reflecting boundary,
    satisfying the support precondition of the broken-ray transform."""
    keep = _interior_support_mask(boundary, img, margin_px)
    return img.copy_with(img.data * keep)
