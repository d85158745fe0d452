"""Discrete line-integral transforms and their exact-transpose adjoints.

Image convention: square window, samples at pixel centers, ``data[iy, ix]``
with y increasing with the row index (files are written top row = largest
y).  Sinogram convention: rows are angles ``alpha_m = 2 pi m / n_alpha``
(periodic), columns are offsets ``s_k = -s_max + (k + 1/2) ds``; the sample
at (s, alpha) integrates the bilinear interpolant of the image along the
directed line {x . w(alpha) = s} with step ``h`` and trapezoid weights.

The stencils of every line form one sparse matrix, built once per
geometry and cached (``_plan``).  Adjoints scatter through the identical
stencils, scaled by ``ds * dalpha / dx^2``, so the weighted pairing
``<A f, g> ds dalpha = <f, A* g> dx^2`` holds to rounding error.

Every operator here has one shape, ``A f = R f + (R f) o chi`` for a map
chi of line space, with the second term interpolated bilinearly from the
dense Radon sinogram (periodically in alpha, zero beyond +-s_max).  The
broken-ray transform on a reflecting boundary takes chi = the reflection
and masks with NaN the rays outside the tomography family or too close to
grazing; masked bins are excluded from inner products.  The two-offset
parallel transform takes chi(s, a) = (s + d, a).  The plain Radon
transform has no chi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SupportViolation
from .geometry import (
    GRAZING_COS,
    TWO_PI,
    Boundary,
    Circle,
    LineCoords,
    direction,
    normal,
    reflect,  # not called here: benchmark/tracing.py counts calls through this name
    reflect_rays,
)

LAMBDA_SCALE = 1.0 / (4.0 * math.pi)


@dataclass
class GridImage:
    """Square pixel grid over a physical window, y increasing upward."""

    data: np.ndarray
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("image data must be square")
        if not math.isclose(self.x_max - self.x_min, self.y_max - self.y_min):
            raise ValueError("window must be square")

    @classmethod
    def zeros(cls, n: int, half_width: float = 1.0) -> "GridImage":
        return cls(np.zeros((n, n)), -half_width, half_width, -half_width, half_width)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    @property
    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n) + 0.5) * self.dx

    def meshgrid(self):
        return np.meshgrid(self.x_centers, self.y_centers)

    def copy_with(self, data: np.ndarray) -> "GridImage":
        return GridImage(data, self.x_min, self.x_max, self.y_min, self.y_max)

    def layout_like(self) -> "GridImage":
        return self.copy_with(np.zeros_like(self.data))


@dataclass(frozen=True)
class SinogramLayout:
    n_s: int
    n_alpha: int
    s_max: float

    @property
    def ds(self) -> float:
        return 2.0 * self.s_max / self.n_s

    @property
    def dalpha(self) -> float:
        return TWO_PI / self.n_alpha

    @property
    def s_centers(self) -> np.ndarray:
        return -self.s_max + (np.arange(self.n_s) + 0.5) * self.ds

    @property
    def alphas(self) -> np.ndarray:
        return np.arange(self.n_alpha) * self.dalpha


@dataclass
class Sinogram:
    """Samples over (s, alpha); rows are angles.  NaN marks masked bins."""

    data: np.ndarray
    s_max: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)

    @classmethod
    def zeros(cls, layout: SinogramLayout) -> "Sinogram":
        return cls(np.zeros((layout.n_alpha, layout.n_s)), layout.s_max)

    @property
    def n_alpha(self) -> int:
        return self.data.shape[0]

    @property
    def n_s(self) -> int:
        return self.data.shape[1]

    @property
    def layout(self) -> SinogramLayout:
        return SinogramLayout(self.n_s, self.n_alpha, self.s_max)

    @property
    def mask(self) -> np.ndarray:
        """True at valid (unmasked) bins."""
        return ~np.isnan(self.data)

    def filled(self, value: float = 0.0) -> np.ndarray:
        return np.where(self.mask, self.data, value)

    def copy_with(self, data: np.ndarray) -> "Sinogram":
        return Sinogram(data, self.s_max)


def image_inner(f: GridImage, g: GridImage) -> float:
    return float(np.sum(f.data * g.data)) * f.dx**2


def image_norm(f: GridImage) -> float:
    return math.sqrt(max(image_inner(f, f), 0.0))


def sino_inner(a: Sinogram, b: Sinogram) -> float:
    """Weighted pairing over bins that are valid in both sinograms."""
    prod = a.filled() * b.filled()
    lay = a.layout
    return float(np.sum(prod)) * lay.ds * lay.dalpha


def sino_norm(a: Sinogram) -> float:
    return math.sqrt(max(sino_inner(a, a), 0.0))


def _line_step(h: float | None, dx: float) -> float:
    """The sampling step along each line: half a pixel by default."""
    if h is None:
        return dx / 2.0
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"line step h must be finite and positive, got {h!r}")
    return h


def _grid_coords(n: int, x_min: float, y_min: float, dx: float, layout: SinogramLayout,
                 m: int, h: float):
    """Sample coordinates (pixel units, pixel centres at integers) and
    trapezoid weights for every offset of angle row m."""
    alpha = m * layout.dalpha
    v = direction(alpha)
    w = normal(alpha)
    half_diag = 0.5 * math.hypot(n * dx, n * dx)
    n_t = max(int(math.ceil(2.0 * half_diag / h)) + 1, 2)
    t = -half_diag + np.arange(n_t) * h
    wt = np.full(n_t, h)
    wt[0] = wt[-1] = h / 2.0
    s = layout.s_centers
    gx = (s[:, None] * w[0] + t[None, :] * v[0] - x_min) / dx - 0.5
    gy = (s[:, None] * w[1] + t[None, :] * v[1] - y_min) / dx - 0.5
    return gx, gy, wt


@functools.lru_cache(maxsize=2)
def _plan(n: int, x_min: float, y_min: float, dx: float, layout: SinogramLayout, h: float):
    """The Radon transform of an n x n image as one read-only CSR matrix
    ``A`` and a symmetry order ``q``.

    ``A`` has one row per (angle row m < n_alpha / q, offset k) and one
    column per pixel of ``data.ravel()``; its weights are the bilinear
    corner weights times the trapezoid weights along the line.  Corners
    outside the image are dropped: the interpolant is zero there.  On a
    window centred on the origin with ``n_alpha % 4 == 0`` a quarter turn
    maps the grid onto itself, so ``R f(s, a + k pi/2) = R(rot90(f, k))(s, a)``
    and the plan covers only the first quarter-turn of angles (q = 4);
    otherwise it covers every angle (q = 1).
    """
    centred = all(math.isclose(c, -n * dx / 2.0, rel_tol=1e-12) for c in (x_min, y_min))
    q = 4 if centred and layout.n_alpha % 4 == 0 else 1
    n_s = layout.n_s
    nnz, counts = 0, []
    data, indices = np.empty(1 << 16), np.empty(1 << 16, dtype=np.int32)
    for m in range(layout.n_alpha // q):
        gx, gy, wt = _grid_coords(n, x_min, y_min, dx, layout, m, h)
        near = (gx > -1.0) & (gx < n) & (gy > -1.0) & (gy < n)  # some corner inside
        k = np.broadcast_to(np.arange(n_s)[:, None], near.shape)[near]
        wt = np.broadcast_to(wt, near.shape)[near]
        gx, gy = gx[near], gy[near]
        ix0, iy0 = np.floor(gx), np.floor(gy)
        fx, fy = gx - ix0, gy - iy0
        ix0, iy0 = ix0.astype(np.int64), iy0.astype(np.int64)
        rows, cols, vals = [], [], []
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dxi, wx in ((0, 1.0 - fx), (1, fx)):
                ix, iy = ix0 + dxi, iy0 + dy
                ok = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
                r, c, w = k[ok], (iy * n + ix)[ok], (wy * wx * wt)[ok]
                # both pixel indices are monotone along a line, so one corner
                # meets each pixel in a single run of samples: merge the runs
                # here and leave the sort only the duplicates across corners
                start = np.flatnonzero(np.r_[True, (c[1:] != c[:-1]) | (r[1:] != r[:-1])])
                rows.append(r[start])
                cols.append(c[start])
                vals.append(np.add.reduceat(w, start))
        # the conversion sums duplicate entries
        block = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_s, n * n),
        )
        end = nnz + block.nnz
        if end > data.size:
            # in-place resize reallocates, and a large buffer grows by
            # remapping its pages rather than copying: the resident peak
            # stays near one plan, where stacking the blocks needs two
            size = max(end, data.size * 5 // 4)
            data.resize(size, refcheck=False)
            indices.resize(size, refcheck=False)
        data[nnz:end], indices[nnz:end] = block.data, block.indices
        counts.append(np.diff(block.indptr))
        nnz = end
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    counts = np.concatenate(counts)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    A = sp.csr_matrix((data, indices, indptr), shape=(counts.size, n * n))
    A.has_canonical_format = True
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A, q


def _image_plan(img: GridImage, layout: SinogramLayout, h: float | None):
    return _plan(img.n, img.x_min, img.y_min, img.dx, layout, _line_step(h, img.dx))


def radon(f: GridImage, layout: SinogramLayout, h: float | None = None) -> Sinogram:
    """Weightless Radon transform of the bilinear interpolant of f.

    ``h`` is the sampling step along each line (default half a pixel).
    """
    if not np.all(np.isfinite(f.data)):
        raise ValueError("image contains non-finite samples")
    A, q = _image_plan(f, layout, h)
    turns = np.stack([np.rot90(f.data, k).ravel() for k in range(q)], axis=1)
    # column k of the product holds the angle rows from k n_alpha / q on
    out = (A @ turns).T.reshape(layout.n_alpha, layout.n_s)
    return Sinogram(out, layout.s_max)


def radon_adjoint(g: Sinogram, img_layout: GridImage, h: float | None = None) -> GridImage:
    """Exact transpose of :func:`radon` onto the given image layout.

    Masked bins contribute nothing.  The result carries the quadrature
    factor ds*dalpha/dx^2, making this the adjoint for the weighted inner
    products ``image_inner``/``sino_inner``.
    """
    layout = g.layout
    A, q = _image_plan(img_layout, layout, h)
    n = img_layout.n
    back = A.T @ np.ascontiguousarray(g.filled().reshape(q, -1).T)
    acc = sum(np.rot90(back[:, k].reshape(n, n), -k) for k in range(q))
    scale = layout.ds * layout.dalpha / img_layout.dx**2
    return img_layout.copy_with(acc * scale)


def lambda_filter(g: Sinogram, power: float = 1.0) -> Sinogram:
    """Apply (|sigma| / 4 pi)^power as a Fourier multiplier along each
    angle row, with zero padding to twice the row length.

    power=1 is the full derivative-type filter used for filtered
    backprojection; power=1/2 is its self-adjoint square root.  Masked
    input bins are treated as zero; the output is fully finite.
    """
    lay = g.layout
    n_pad = 2 * lay.n_s
    rows = g.filled()
    buf = np.zeros((lay.n_alpha, n_pad))
    buf[:, : lay.n_s] = rows
    freqs = np.fft.rfftfreq(n_pad, d=lay.ds)
    sigma = TWO_PI * freqs
    mult = (LAMBDA_SCALE * sigma) ** power
    spec = np.fft.rfft(buf, axis=1) * mult[None, :]
    filtered = np.fft.irfft(spec, n=n_pad, axis=1)[:, : lay.n_s]
    return g.copy_with(filtered)


@dataclass(frozen=True)
class Family:
    """Tomography family: which reflected rays enter the data.

    The full family admits the whole (s, alpha) grid: the physical rays are
    those whose incoming part has positive projection onto the boundary
    tangent (sin beta > 0), and every grid bin parametrizes one of them --
    bins with sin beta < 0 carry the same broken ray traversed backwards,
    so the grid is a seamless double cover and the filtered backprojection
    sees no artificial data edge.  Restricted families model genuinely
    one-sided data: they keep ``forward_tangent`` so each ray appears once,
    and mask everything else.
    """

    forward_tangent: bool = True
    half_plane: float | None = None  # keep rays with <v(alpha), v(angle)> > 0
    arc: tuple | None = None  # (tau_min, tau_max) admissible vertex range
    s_window: tuple | None = None  # (s_lo, s_hi)
    alpha_window: tuple | None = None  # (center, half_width), periodic

    @classmethod
    def full(cls) -> "Family":
        return cls(forward_tangent=False)

    @classmethod
    def half_plane_incoming(cls, angle: float) -> "Family":
        return cls(half_plane=angle)

    @classmethod
    def boundary_arc(cls, tau_min: float, tau_max: float) -> "Family":
        return cls(arc=(tau_min, tau_max))

    @classmethod
    def local(cls, line: LineCoords, ds: float, dalpha: float) -> "Family":
        return cls(
            s_window=(line.s - ds, line.s + ds),
            alpha_window=(line.alpha, dalpha),
        )

    def admits(self, s, alpha, sin_beta, tau0, length: float) -> np.ndarray:
        """Which rays the family keeps; the arrays broadcast elementwise."""
        keep = np.ones(np.broadcast(s, alpha, sin_beta, tau0).shape, dtype=bool)
        if self.forward_tangent:
            keep &= sin_beta > 0.0
        if self.half_plane is not None:
            keep &= np.cos(alpha - self.half_plane) > 0.0
        if self.arc is not None:
            lo, hi = self.arc[0] % length, self.arc[1] % length
            t = tau0 % length
            keep &= ((lo <= t) & (t <= hi)) if lo <= hi else ((t >= lo) | (t <= hi))
        if self.s_window is not None:
            keep &= (self.s_window[0] <= s) & (s <= self.s_window[1])
        if self.alpha_window is not None:
            c, hw = self.alpha_window
            keep &= np.abs((alpha - c + math.pi) % TWO_PI - math.pi) <= hw
        return keep


def _reflection_table(boundary: Boundary, family: Family, layout: SinogramLayout):
    """Per-bin reflection data: admissible mask and chi(s, alpha) = (s2, a2).

    The circle gets the closed form (s is conserved, sin beta = s/R);
    other boundaries reflect every bin in one batch, each from a source
    4 s_max back along its line.  Bins that do not reflect hold zeros.
    """
    s = layout.s_centers
    alphas = layout.alphas
    shape = (layout.n_alpha, layout.n_s)
    if isinstance(boundary, Circle):
        R = boundary.radius
        length = TWO_PI * R
        sin_b = np.clip(s / R, -1.0, 1.0)
        cos_b = np.sqrt(np.maximum(1.0 - sin_b**2, 0.0))
        ok = (np.abs(s) < R) & (cos_b >= GRAZING_COS)
        s2 = np.broadcast_to(s, shape)
        a2 = alphas[:, None] + 2.0 * np.arcsin(sin_b) + math.pi
        # vertex = exit point of the chord, at t = R cos beta
        cos_a, sin_a = np.cos(alphas)[:, None], np.sin(alphas)[:, None]
        t_exit = R * cos_b
        vx = s * -sin_a + t_exit * cos_a
        vy = s * cos_a + t_exit * sin_a
        tau0 = (R * np.arctan2(-vy, vx)) % length
    else:
        length = boundary.length
        rays = reflect_rays(boundary, s, alphas[:, None], -4.0 * layout.s_max)
        ok = rays.ok
        sin_b, tau0, s2, a2 = (np.where(ok, x, 0.0) for x in (
            np.sin(rays.beta), rays.tau0, rays.line_out.s, rays.line_out.alpha))
    mask = ok & family.admits(s, alphas[:, None], sin_b, tau0, length)
    return mask, s2, a2


def _lerp(x: np.ndarray, n: int, periodic: bool = False):
    """Linear interpolation on a grid of n samples at fractional sample
    positions x: two (index, weight) pairs.  A periodic grid wraps the
    index; otherwise positions beyond the grid read zero."""
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    parts = []
    for i, w in ((i0, 1.0 - frac), (i0 + 1, frac)):
        if periodic:
            parts.append((i % n, w))
        else:
            parts.append((np.clip(i, 0, n - 1), w * ((i >= 0) & (i < n))))
    return parts


class RadonOperator:
    """The transform f -> R f + (R f) o chi on the admitted bins.

    ``corners`` is the bilinear stencil of the line map chi: (row index,
    column index, weight) triples into the sinogram, whose arrays broadcast
    to its shape.  ``mask`` marks the admitted bins (None: all of them);
    the rest read NaN.  With no corners and no mask this is the plain Radon
    transform.  The adjoint scatters through the same corners, so the pair
    passes dot-product tests to rounding.
    """

    def __init__(self, img_layout: GridImage, sino_layout: SinogramLayout, h: float | None = None):
        self.img_layout = img_layout.layout_like()
        self.sino_layout = sino_layout
        self.h = _line_step(h, img_layout.dx)
        self.mask = None
        self.corners = []
        self._support_ok = None  # pixels clear of the mirror; None: no mirror

    def check_support_of(self, f: GridImage) -> None:
        """Raise SupportViolation unless f vanishes near the mirror.

        The full-line Radon values only equal the physical V-line chord
        integrals under this condition, so data generation must pass it;
        iteration internals apply the plain discrete operator and may skip
        it (iterates legitimately leak into the margin).  Without a mirror
        every image passes.
        """
        if self._support_ok is None:
            return
        peak = float(np.max(np.abs(f.data)))
        if peak == 0.0:
            return
        outside = float(np.max(np.abs(f.data[~self._support_ok]), initial=0.0))
        if outside > 1e-9 * peak:
            raise SupportViolation(
                "image does not vanish within the margin of the reflecting boundary"
            )

    def forward(self, f: GridImage) -> Sinogram:
        g = radon(f, self.sino_layout, self.h)
        data = g.data
        for rows, cols, w in self.corners:
            data = data + g.data[rows, cols] * w
        if self.mask is not None:
            data = np.where(self.mask, data, np.nan)
        return g.copy_with(data)

    def adjoint(self, g: Sinogram) -> GridImage:
        lay = self.sino_layout
        vals = g.filled() if self.mask is None else np.where(self.mask, g.filled(), 0.0)
        acc = vals.ravel()
        for rows, cols, w in self.corners:
            idx = (rows * lay.n_s + cols).ravel()
            acc = acc + np.bincount(idx, weights=(vals * w).ravel(), minlength=acc.size)
        back = Sinogram(acc.reshape(vals.shape), lay.s_max)
        return radon_adjoint(back, self.img_layout, self.h)


class BrokenRayOperator(RadonOperator):
    """V-line transform off a reflecting boundary, restricted to a family:
    chi is the reflection, resampled bilinearly (periodically in alpha)."""

    def __init__(
        self,
        boundary: Boundary,
        family: Family,
        img_layout: GridImage,
        sino_layout: SinogramLayout,
        h: float | None = None,
        support_margin_px: float = 2.0,
    ):
        super().__init__(img_layout, sino_layout, h)
        self.boundary = boundary
        self.family = family
        lay = sino_layout
        self.mask, s2, a2 = _reflection_table(boundary, family, lay)
        rows = _lerp((a2 % TWO_PI) / lay.dalpha, lay.n_alpha, periodic=True)
        cols = _lerp((s2 + lay.s_max) / lay.ds - 0.5, lay.n_s)
        self.corners = [(ra, ks, wa * ws) for ra, wa in rows for ks, ws in cols]
        self._support_ok = _interior_support_mask(boundary, self.img_layout, support_margin_px)


class ParallelRayOperator(RadonOperator):
    """Two-offset parallel-ray transform P f = R f(s, a) + R f(s + d, a):
    chi shifts s, so every angle row shares one pair of s-corners."""

    def __init__(
        self,
        offset: float,
        img_layout: GridImage,
        sino_layout: SinogramLayout,
        h: float | None = None,
    ):
        super().__init__(img_layout, sino_layout, h)
        self.offset = offset
        lay = sino_layout
        rows = np.arange(lay.n_alpha)[:, None]
        cols = _lerp((lay.s_centers + offset + lay.s_max) / lay.ds - 0.5, lay.n_s)
        self.corners = [(rows, ks, w) for ks, w in cols]


def _interior_support_mask(boundary: Boundary, img: GridImage, margin_px: float) -> np.ndarray:
    """Pixels safely inside the reflecting boundary (margin in pixels)."""
    X, Y = img.meshgrid()
    return boundary.inside(X, Y, margin_px * img.dx)
