"""Filtered backprojection and Landweber iteration with diagnostics.

The iteration solves the filtered normal equations of ``B f = g``: with
``L = Lambda^(1/2) B`` the update

    f <- P_mask [ f + gamma * B^* Lambda (g - B f) ]

applies the filter once per step (the split square root has the same fixed
points and costs an extra FFT).  The data residual ``|Lambda^(1/2)(g - B f)|``
is filtered from the same FFT of ``g - B f`` as the update, and is
nonincreasing for step sizes below 2/|L^* L|; the default step is
1/|L^* L| from a power iteration, half the stability bound.  A residual
that grows three iterations in a row stops the run with DivergenceDetected.

The power iteration always returns ``(gamma, history, last)``: the step,
the eigenvalue estimate of every step, and the image its last step was
applied to.  One step from ``last`` repeats that step's estimate bit for
bit on the same operator, code and arithmetic.  ``brokenray reconstruct``
stores ``last`` in the experiment directory and replays the one step
instead of the thirty; any other estimate sends it back to the full
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDetected, EmptyLocus, ZeroOperator, ZeroReference
from .transforms import (
    GridImage,
    Sinogram,
    image_norm,
    lambda_filter,
)


def fbp(g: Sinogram, op) -> GridImage:
    """Filtered backprojection: adjoint of the filtered data."""
    return op.adjoint(lambda_filter(g, power=1.0))


@dataclass
class LandweberConfig:
    step_size: float | None = None  # None: power-iteration estimate
    n_iters: int = 100
    support_mask: np.ndarray | None = None
    record_every: int = 0  # 0: keep no intermediate snapshots
    use_filter: bool = True  # False: plain least squares (harness oracle)


@dataclass
class LandweberResult:
    final: GridImage
    residuals: list
    gamma: float
    snapshots: list = field(default_factory=list)  # (iteration, GridImage)
    first: GridImage | None = None  # f^(1), the first backprojection step

    @property
    def n_iters(self) -> int:
        return len(self.residuals)


def step_size_estimate(op, n_steps: int = 30, start: GridImage | None = None):
    """``(gamma, history, last)``: gamma = 1 / |B* Lambda B| estimated by
    power iteration, the eigenvalue estimate of each step, and the image
    the last step was applied to.

    gamma is half the 2/|L* L| stability bound of the iteration.  The
    iteration starts from a random unit image (seed 0), or from ``start``
    as it is: ``start=last, n_steps=1`` repeats the last step, and so its
    gamma, bit for bit.
    """
    x = start
    if x is None:
        rng = np.random.default_rng(0)
        x = op.img_layout.copy_with(rng.standard_normal(op.img_layout.data.shape))
        x.data /= np.linalg.norm(x.data)
    history = []
    lam = 0.0
    for _ in range(n_steps):
        y = op.adjoint(lambda_filter(op.forward(x), power=1.0))
        lam = float(np.linalg.norm(y.data) / np.linalg.norm(x.data))
        if lam == 0.0:
            raise ZeroOperator("B* Lambda B maps the start vector to zero: no bin is admitted")
        history.append(lam)
        last, x = x, x.copy_with(y.data / np.linalg.norm(y.data))
    return 1.0 / lam, history, last


def landweber(g: Sinogram, op, cfg: LandweberConfig) -> LandweberResult:
    """Run the masked Landweber iteration from f = 0.

    Raises DivergenceDetected when the filtered residual grows for three
    consecutive iterations.
    """
    gamma = cfg.step_size if cfg.step_size is not None else step_size_estimate(op)[0]
    f = op.img_layout.layout_like()
    residuals = []
    snapshots = []
    first = None
    grow_streak = 0
    data = g.filled()
    lay = g.layout
    for k in range(cfg.n_iters):
        # B 0 = 0, so the first residual is the data itself
        r = g.copy_with(data - op.forward(f).filled() if k else data)
        # one FFT of r gives both the norm's and the update's filter
        half, full = lambda_filter(r, power=(0.5, 1.0)) if cfg.use_filter else (r, r)
        # sino_norm without its NaN fills: r and its filters hold no NaN
        resid = math.sqrt(max(float(np.sum(half.data * half.data)) * lay.ds * lay.dalpha, 0.0))
        if residuals and resid > residuals[-1] * (1.0 + 1e-12):
            grow_streak += 1
            if grow_streak >= 3:
                raise DivergenceDetected(
                    f"residual grew {grow_streak} times in a row at iteration {k}; "
                    f"step size {gamma:.3g} is too large"
                )
        else:
            grow_streak = 0
        residuals.append(resid)
        update = op.adjoint(full)
        new = f.data + gamma * update.data
        if cfg.support_mask is not None:
            new = new * cfg.support_mask
        f = f.copy_with(new)
        if first is None:
            first = f
        if cfg.record_every and (k + 1) % cfg.record_every == 0:
            snapshots.append((k + 1, f.copy_with(f.data.copy())))
    return LandweberResult(final=f, residuals=residuals, gamma=gamma, snapshots=snapshots,
                           first=first)


def relative_error(f_true: GridImage, f_rec: GridImage) -> float:
    """e = |f_rec - f_true|_2 / |f_true|_2."""
    denom = image_norm(f_true)
    if denom == 0.0:
        raise ZeroReference("relative error against a zero reference")
    return image_norm(f_rec.copy_with(f_rec.data - f_true.data)) / denom


def error_map(f_true: GridImage, f_rec: GridImage) -> GridImage:
    return f_true.copy_with(f_rec.data - f_true.data)


@dataclass
class LocalizationScore:
    mean_distance_px: float
    n_pixels: int
    vacuous: bool = False


def artifact_localization(
    err: GridImage,
    locus,
    threshold_quantile: float = 0.99,
    exclude_center=None,
    exclude_radius: float = 0.0,
) -> LocalizationScore:
    """Mean pixel distance from strong error pixels to a predicted locus.

    ``locus`` is an (m, 2) array of polyline vertices or a list of such
    polylines.  Pixels with |error| above the quantile and outside the
    exclusion disk around the true support qualify; if none do, the score
    is a vacuous pass.
    """
    if isinstance(locus, np.ndarray):
        segments = [locus]
    else:
        segments = [np.asarray(seg, dtype=float) for seg in locus]
    segments = [s for s in segments if len(s) > 0]
    if not segments:
        raise EmptyLocus("no predicted locus points")

    mag = np.abs(err.data)
    cut = np.quantile(mag, threshold_quantile)
    X, Y = err.meshgrid()
    # ties at a positive cut are kept; a zero cut only passes true nonzeros
    strong = (mag >= cut) if cut > 0.0 else (mag > 0.0)
    if exclude_center is not None and exclude_radius > 0.0:
        cx, cy = exclude_center
        strong &= (X - cx) ** 2 + (Y - cy) ** 2 > exclude_radius**2
    px = np.column_stack([X[strong], Y[strong]])
    if len(px) == 0:
        return LocalizationScore(mean_distance_px=float("nan"), n_pixels=0, vacuous=True)

    best = np.full(len(px), np.inf)
    for seg in segments:
        if len(seg) == 1:
            d = np.linalg.norm(px - seg[0], axis=1)
            best = np.minimum(best, d)
            continue
        a = seg[:-1]
        b = seg[1:]
        ab = b - a
        denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
        # project every pixel on every segment, clamp to the endpoints
        diff = px[:, None, :] - a[None, :, :]
        t = np.clip(np.sum(diff * ab[None, :, :], axis=2) / denom[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.linalg.norm(px[:, None, :] - proj, axis=2)
        best = np.minimum(best, d.min(axis=1))
    return LocalizationScore(
        mean_distance_px=float(np.mean(best)) / err.dx,
        n_pixels=int(len(px)),
        vacuous=False,
    )
