"""The benchmark's workloads: experiment inputs drawn from a seed.

Each workload is one of the paper's experiments, written as a brokenray
INI config.  The seed moves the phantom only in ways that leave the amount
of work unchanged, so that runs with different seeds time the same work:

* on the disk the phantom turns about the centre by a whole number of
  sinogram angle bins, which is also a whole number of caustic samples;
* on the ellipse it moves to one of the four mirror images of one point
  under the ellipse's symmetries, which map both angle grids onto
  themselves;
* the parallel-ray transform does the same work for every phantom.

The caustic refinement does work that depends strongly on the source
position (0.5 s to 13 s on the same ellipse), so a free source position
would turn the seed into the largest source of spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQUARE_ORBIT_RADIUS = math.cos(math.pi / 4.0)
PARALLEL_OFFSET = 0.6


@dataclass(frozen=True)
class Inputs:
    """Everything the benchmark writes into one workload's config, kept so
    that the output checks can recompute the expected results."""

    name: str
    seed: int
    n: int
    n_s: int
    n_alpha: int
    s_max: float
    mirror: tuple | None  # ("circle", R) | ("ellipse", a, b) | None
    offset: float | None  # parallel-ray offset d, or None
    center: tuple
    theta: float
    sigma: float
    wavenumber: float  # 0: plain Gaussian
    amplitude: float
    method: str  # "landweber" | "fbp"
    iterations: int
    support_mask: str
    n_samples: int  # initial caustic samples for predict
    n_max: int  # polygon radii up to p = 2 n_max
    # predict on the parallel transform only writes the polygon radii in
    # about a millisecond; it is repeated so its median has enough samples
    predict_repeats: int = 1

    @property
    def dx(self) -> float:
        return 2.0 / self.n

    def config_text(self) -> str:
        cx, cy = self.center
        if self.mirror is None:
            boundary = "kind = none"
        elif self.mirror[0] == "circle":
            boundary = f"kind = circle\nradius = {self.mirror[1]!r}"
        else:
            boundary = f"kind = ellipse\na = {self.mirror[1]!r}\nb = {self.mirror[2]!r}"
        family = "kind = full" if self.offset is None else f"kind = parallel\noffset = {self.offset!r}"
        kind = "coherent" if self.wavenumber > 0.0 else "gaussian"
        return f"""\
[experiment]
name = {self.name}
seed = {self.seed}

[grid]
n = {self.n}
half_width = 1.0
n_s = {self.n_s}
n_alpha = {self.n_alpha}
s_max = {self.s_max!r}

[boundary]
{boundary}

[family]
{family}

[phantom]
kind = {kind}
center = {cx!r} {cy!r}
theta = {self.theta!r}
sigma = {self.sigma!r}
wavenumber = {self.wavenumber!r}
amplitude = {self.amplitude!r}
clip_margin_px = 2.0

[reconstruct]
method = {self.method}
iterations = {self.iterations}
step_size = auto
support_mask = {self.support_mask}
record_every = 0

[predict]
n_samples = {self.n_samples}
max_index = 64
n_max = {self.n_max}
"""


def disk_landweber(seed: int, n: int = 64, n_s: int = 48, n_alpha: int = 60,
                   iterations: int = 10, n_samples: int = 360) -> Inputs:
    """Unit-circle mirror, full family, coherent state on the square-orbit
    radius, Landweber with the auto step; predict draws caustic, chain and
    tangent locus."""
    rng = np.random.default_rng([seed, 1])
    bins = int(rng.integers(n_alpha))
    phi = 2.0 * math.pi * bins / n_alpha
    center = (SQUARE_ORBIT_RADIUS * math.cos(phi), SQUARE_ORBIT_RADIUS * math.sin(phi))
    # theta = phi + pi/2 makes the oscillation radial (the covector is
    # parallel to the position); the jitter tilts it off radial
    theta = phi + math.pi / 2.0 + float(rng.uniform(-0.3, 0.3))
    return Inputs(
        name="disk_landweber", seed=seed, n=n, n_s=n_s, n_alpha=n_alpha, s_max=1.0,
        mirror=("circle", 1.0), offset=None, center=center, theta=theta,
        sigma=0.075, wavenumber=20.0, amplitude=float(rng.uniform(0.5, 2.0)),
        method="landweber", iterations=iterations, support_mask="none",
        n_samples=n_samples, n_max=5,
    )


def ellipse_fbp(seed: int, n: int = 64, n_s: int = 16, n_alpha: int = 24,
                n_samples: int = 90) -> Inputs:
    """Elliptic mirror, full family, Gaussian phantom, FBP; predict draws
    the caustic of the phantom centre."""
    rng = np.random.default_rng([seed, 2])
    sx, sy = (1.0, -1.0)[int(rng.integers(2))], (1.0, -1.0)[int(rng.integers(2))]
    return Inputs(
        name="ellipse_fbp", seed=seed, n=n, n_s=n_s, n_alpha=n_alpha, s_max=1.0,
        mirror=("ellipse", 1.0, 0.75), offset=None, center=(0.4 * sx, 0.25 * sy),
        theta=0.0, sigma=0.09, wavenumber=0.0, amplitude=float(rng.uniform(0.5, 2.0)),
        method="fbp", iterations=0, support_mask="none",
        n_samples=n_samples, n_max=5,
    )


def parallel_landweber(seed: int, n: int = 40, n_alpha: int = 60,
                       iterations: int = 10) -> Inputs:
    """Two-offset parallel-ray transform (offset 0.6) in the AC-5 layout:
    s_max = 1.5, n_s = 1.5 n, support mask disk:0.95, Landweber with the
    auto step.  The coherent state's wavelength equals the offset, which
    centres its band between the rings where 2 cos(sigma d / 2) vanishes."""
    rng = np.random.default_rng([seed, 3])
    r, phi = 0.1 * math.sqrt(float(rng.uniform())), float(rng.uniform(0.0, 2.0 * math.pi))
    return Inputs(
        name="parallel_landweber", seed=seed, n=n, n_s=(3 * n) // 2, n_alpha=n_alpha,
        s_max=1.5, mirror=None, offset=PARALLEL_OFFSET,
        center=(r * math.cos(phi), r * math.sin(phi)),
        theta=float(rng.uniform(0.0, math.pi)), sigma=0.3,
        wavenumber=2.0 * math.pi / PARALLEL_OFFSET, amplitude=float(rng.uniform(0.5, 2.0)),
        method="landweber", iterations=iterations, support_mask="disk:0.95",
        n_samples=360, n_max=5, predict_repeats=25,
    )


WORKLOADS = {
    "disk_landweber": disk_landweber,
    "ellipse_fbp": ellipse_fbp,
    "parallel_landweber": parallel_landweber,
}
