"""Reflecting boundaries and the line-coordinate reflection map.

A directed line is stored in offset/angle coordinates ``(s, alpha)``: the
line is ``{x : <x, w(alpha)> = s}``, traversed in the direction
``v(alpha) = (cos a, sin a)``; ``w(alpha) = (-sin a, cos a)`` is its unit
normal.  Boundaries are unit-speed curves, negatively oriented (clockwise),
with outward normal ``n = (-y', x')`` and signed curvature ``kappa`` defined
by ``gamma'' = kappa * n``; for the unit circle ``kappa = -1``.

A ray that leaves the enclosed region through the boundary at ``gamma(tau0)``
reflects according to

    sin(beta) = <v(alpha1), gamma'(tau0)>,
    alpha2 = alpha1 + 2*beta + pi  (mod 2*pi),
    s2     = <gamma(tau0), w(alpha2)>,

with incidence angle ``beta`` in (-pi/2, pi/2).  The map
``chi : (s1, alpha1) -> (s2, alpha2)`` is area preserving: det(d chi) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GrazingIncidence, NoIntersection

TWO_PI = 2.0 * math.pi

# Reflections with |cos beta| below this are rejected: the Jacobian entries
# carry 1/<w, gamma'> = -1/cos(beta) factors and blow up at tangency.
GRAZING_COS = 0.05

# A hit must lie strictly ahead of the source point by at least this length.
AHEAD_EPS = 1e-9

# 8-point Gauss-Legendre rule for the arc-length table and its partial cells
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def direction(alpha: float) -> np.ndarray:
    """Unit direction v(alpha) = (cos a, sin a)."""
    return np.array([math.cos(alpha), math.sin(alpha)])


def normal(alpha: float) -> np.ndarray:
    """Unit normal w(alpha) = (-sin a, cos a), v rotated by +90 degrees."""
    return np.array([-math.sin(alpha), math.cos(alpha)])


def normalize_angle(alpha: float) -> float:
    """Reduce an angle to [0, 2*pi).  Idempotent."""
    a = alpha % TWO_PI
    # a % TWO_PI can round up to TWO_PI itself for tiny negative inputs
    return 0.0 if a >= TWO_PI else a


def rot90(u: np.ndarray) -> np.ndarray:
    """Rotate a 2-vector by +90 degrees."""
    return np.array([-u[1], u[0]])


def cross2(u, v):
    """Scalar cross product u x v of 2-vectors (stacked on the last axis)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def dot2(u, v):
    """Inner product of 2-vectors (stacked on the last axis)."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def unit_vectors(alpha):
    """v(alpha) and w(alpha) of an array of angles, stacked on a new last
    axis."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)


@dataclass(frozen=True)
class LineCoords:
    """Directed line {x : <x, w(alpha)> = s} with direction v(alpha)."""

    s: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", normalize_angle(self.alpha))

    @property
    def v(self) -> np.ndarray:
        return direction(self.alpha)

    @property
    def w(self) -> np.ndarray:
        return normal(self.alpha)

    def point_at(self, t: float) -> np.ndarray:
        """Point s*w + t*v; t is signed arc length along the line."""
        return self.s * self.w + t * self.v

    def coord_of(self, point) -> float:
        """Signed position of (the projection of) a point along the line."""
        return float(np.dot(point, self.v))

    def contains(self, point, tol: float = 1e-9) -> bool:
        return abs(float(np.dot(point, self.w)) - self.s) <= tol

    def reversed(self) -> "LineCoords":
        """Same geometric line traversed backwards."""
        return LineCoords(-self.s, self.alpha + math.pi)

    @staticmethod
    def through(point, alpha: float) -> "LineCoords":
        """The directed line through a point with the given angle."""
        return LineCoords(float(np.dot(point, normal(alpha))), alpha)


class Lines(NamedTuple):
    """Directed lines {x : <x, w(alpha)> = s} as arrays of (s, alpha)."""

    s: np.ndarray
    alpha: np.ndarray

    @property
    def v(self) -> np.ndarray:
        return unit_vectors(self.alpha)[0]

    def coord_of(self, points) -> np.ndarray:
        return dot2(points, self.v)


class Frame(NamedTuple):
    """Boundary data at one curve parameter, or arrays of it: point, unit
    tangent, unit outward normal, signed curvature."""

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    kappa: float


@dataclass(eq=False)
class ReflectionEvent:
    """One reflection of a directed line off a boundary.

    ``jacobian`` is d(chi) = d(s2, alpha2)/d(s1, alpha1) evaluated at the
    event; its determinant is 1 up to rounding.
    """

    tau0: float
    beta: float
    line_in: LineCoords
    line_out: LineCoords
    hit_point: np.ndarray
    tangent: np.ndarray
    kappa: float
    jacobian: np.ndarray = field(default=None)

    @property
    def alpha2_raw(self) -> float:
        """Outgoing angle without 2*pi reduction (smooth in the data)."""
        return self.line_in.alpha + 2.0 * self.beta + math.pi

    @property
    def t_hit(self) -> float:
        """Line coordinate of the hit point on the incoming line."""
        return self.line_in.coord_of(self.hit_point)


@dataclass(eq=False)
class Reflections:
    """The reflections of arrays of rays, with the fields of
    ReflectionEvent as arrays over the rays: points and tangents stack on a
    last axis of 2, ``jacobian`` on two last axes.  Angles are not reduced
    mod 2 pi.  Rays that are not ``ok`` (no exit ahead of the source, or
    grazing) hold NaN.
    """

    boundary: "Boundary"
    ok: np.ndarray
    u: np.ndarray  # curve parameter of the hit
    beta: np.ndarray
    line_in: Lines
    line_out: Lines
    hit_point: np.ndarray
    tangent: np.ndarray
    kappa: np.ndarray
    jacobian: np.ndarray = field(default=None)

    @property
    def tau0(self) -> np.ndarray:
        return self.boundary.tau_of_u(self.u)

    @property
    def alpha2_raw(self) -> np.ndarray:
        return self.line_out.alpha

    @property
    def t_hit(self) -> np.ndarray:
        return self.line_in.coord_of(self.hit_point)


class Boundary:
    """Common interface of unit-speed, negatively oriented boundaries.

    Each boundary has its own curve parameter u (an angle, an abscissa or a
    spline parameter).  ``line_intersections``, ``frame_u``, ``tau_of_u``
    and ``inside`` work on arrays; ``frame(tau)`` is the scalar lookup by
    arc length.
    """

    closed: bool = True

    @property
    def length(self) -> float:
        raise NotImplementedError

    def tau_of_u(self, u):
        """Arc length at curve parameter(s) u."""
        raise NotImplementedError

    def u_of_tau(self, tau: float) -> float:
        raise NotImplementedError

    def frame_u(self, u) -> Frame:
        """Frame at curve parameter(s) u; NaN in u gives NaN."""
        raise NotImplementedError

    def frame(self, tau: float) -> Frame:
        """Frame at arc length tau; closed boundaries reduce tau periodically."""
        return self.frame_u(self.u_of_tau(tau))

    def line_intersections(self, s, alpha) -> np.ndarray:
        """Curve parameters of every crossing of the full lines (s, alpha).

        ``s`` and ``alpha`` broadcast; the crossings of each line lie on a
        new last axis, padded with NaN where a line has fewer.
        """
        raise NotImplementedError

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        """Which points (x, y) lie inside the mirror, at least ``margin``
        away from it; x and y are arrays of one shape."""
        raise NotImplementedError


class _ClosedCurve(Boundary):
    """Closed mirror given by a smooth periodic parametrization gamma0(u).

    Subclasses set the parameter period ``_period`` and the number of table
    cells ``_cells`` and provide ``_speed(u)`` = |gamma0'(u)| and
    ``_derivatives(u)`` = (gamma0, gamma0', gamma0''), both on arrays.  The
    base reparametrizes to arc length through a cumulative Gauss-Legendre
    table.
    """

    _period: float
    _cells: int

    @cached_property
    def _arclength_table(self):
        # Cumulative arc length on a uniform u grid, accurate to rounding
        # for smooth integrands.
        n, h = self._cells, self._period / self._cells
        grid = np.linspace(0.0, self._period, n + 1)
        pts = grid[:-1, None] + (GAUSS_NODES + 1.0) * (h / 2.0)
        seg = (self._speed(pts.ravel()).reshape(n, -1) @ GAUSS_WEIGHTS) * (h / 2.0)
        return grid, np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def length(self) -> float:
        return float(self._arclength_table[1][-1])

    def tau_of_u(self, u):
        """Arc length from u=0, smooth and monotone over all of R: the
        table up to u's cell plus the Gauss rule over the rest of it."""
        grid, cum = self._arclength_table
        u = np.asarray(u, dtype=float)
        turns = np.floor(u / self._period)
        u = u - turns * self._period
        cell = np.nan_to_num(u / self._period * self._cells)
        i = np.minimum(cell.astype(np.int64), self._cells - 1)
        h = np.maximum(u - grid[i], 0.0)
        pts = grid[i][..., None] + (GAUSS_NODES + 1.0) * (h / 2.0)[..., None]
        tau = cum[i] + (self._speed(pts) @ GAUSS_WEIGHTS) * (h / 2.0)
        return tau + turns * cum[-1]

    def u_of_tau(self, tau: float) -> float:
        grid, cum = self._arclength_table
        tau = tau % float(cum[-1])
        u = float(np.interp(tau, cum, grid))
        for _ in range(4):
            du = (self.tau_of_u(u) - tau) / float(self._speed(u))
            u -= du
            if abs(du) < 1e-15:
                break
        return u % self._period

    def frame_u(self, u) -> Frame:
        point, d1, d2 = self._derivatives(u)
        speed = np.hypot(d1[..., 0], d1[..., 1])
        tangent = d1 / speed[..., None]
        # n = (-ty, tx) is outward for the clockwise traversal
        outward = np.stack([-tangent[..., 1], tangent[..., 0]], axis=-1)
        return Frame(point, tangent, outward, cross2(d1, d2) / speed**3)


def _chord_points(s, alpha, t):
    """Points s w + t v of the lines (s, alpha) at line coordinates t, which
    carry one more (last) axis than s and alpha."""
    v, w = unit_vectors(alpha)
    return (s[..., None] * w)[..., None, :] + t[..., None] * v[..., None, :]


@dataclass(frozen=True)
class Circle(Boundary):
    """Circle of given radius about the origin, traversed clockwise; u is
    the clockwise angle tau / radius."""

    radius: float = 1.0

    @property
    def length(self) -> float:
        return TWO_PI * self.radius

    def tau_of_u(self, u):
        return self.radius * np.asarray(u, dtype=float)

    def u_of_tau(self, tau: float) -> float:
        return tau / self.radius

    def frame_u(self, u) -> Frame:
        r = self.radius
        c, s = np.cos(u), np.sin(u)
        point = np.stack([r * c, -r * s], axis=-1)
        tangent = np.stack([-s, -c], axis=-1)
        outward = np.stack([c, -s], axis=-1)
        return Frame(point, tangent, outward, 0.0 * u - 1.0 / r)

    def line_intersections(self, s, alpha) -> np.ndarray:
        s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
        disc = self.radius**2 - s**2
        half = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        pts = _chord_points(s, alpha, np.stack([-half, half], axis=-1))
        return np.arctan2(-pts[..., 1], pts[..., 0]) % TWO_PI

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        return np.hypot(x, y) <= self.radius - margin


@dataclass(frozen=True)
class Ellipse(_ClosedCurve):
    """Axis-aligned ellipse x^2/a^2 + y^2/b^2 = 1, traversed clockwise,
    gamma0(theta) = (a cos th, -b sin th)."""

    a: float
    b: float

    _period = TWO_PI
    _cells = 2048

    def _speed(self, theta):
        return np.sqrt((self.a * np.sin(theta)) ** 2 + (self.b * np.cos(theta)) ** 2)

    def _derivatives(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        a, b = self.a, self.b
        return (
            np.stack([a * c, -b * s], axis=-1),
            np.stack([-a * s, -b * c], axis=-1),
            np.stack([-a * c, b * s], axis=-1),
        )

    def line_intersections(self, s, alpha) -> np.ndarray:
        # roots t of |(p0 + t v) / (a, b)|^2 = 1 with p0 = s w
        s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
        v, w = unit_vectors(alpha)
        p0 = s[..., None] * w
        a, b = self.a, self.b
        A = (v[..., 0] / a) ** 2 + (v[..., 1] / b) ** 2
        B = 2.0 * (p0[..., 0] * v[..., 0] / a**2 + p0[..., 1] * v[..., 1] / b**2)
        C = (p0[..., 0] / a) ** 2 + (p0[..., 1] / b) ** 2 - 1.0
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        t = np.stack([(-B - sq) / (2 * A), (-B + sq) / (2 * A)], axis=-1)
        pts = _chord_points(s, alpha, t)
        return np.arctan2(-pts[..., 1] / b, pts[..., 0] / a) % TWO_PI

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        shrink = 1.0 - margin / min(self.a, self.b)
        return (x / self.a) ** 2 + (y / self.b) ** 2 <= shrink**2


@dataclass(frozen=True)
class Parabola(Boundary):
    """Open parabolic mirror y = -x^2/(4 a), |x| <= x_max, left to right.

    The mirror bounds the region below it; the focus is at (0, -a).  Arc
    length is measured from the vertex, increasing with x; u is x.
    """

    focal: float
    x_max: float = 4.0

    closed = False

    def tau_of_u(self, x):
        c = 2.0 * self.focal
        m = np.sqrt(1.0 + (x / c) ** 2)
        return 0.5 * x * m + 0.5 * c * np.arcsinh(x / c)

    @property
    def length(self) -> float:
        return 2.0 * float(self.tau_of_u(self.x_max))

    def u_of_tau(self, tau: float) -> float:
        half = float(self.tau_of_u(self.x_max))
        if abs(tau) > half + 1e-9:
            raise ValueError(
                f"arc parameter {tau:.6g} outside the mirror extent +-{half:.6g}"
            )
        tau = max(-half, min(half, tau))
        x = tau
        c = 2.0 * self.focal
        for _ in range(30):
            m = math.sqrt(1.0 + (x / c) ** 2)
            dx = (float(self.tau_of_u(x)) - tau) / m
            x -= dx
            if abs(dx) < 1e-14:
                break
        return x

    def frame_u(self, x) -> Frame:
        c = 2.0 * self.focal
        m = np.sqrt(1.0 + (x / c) ** 2)
        point = np.stack([x, -x * x / (4.0 * self.focal)], axis=-1)
        tangent = np.stack([np.ones_like(x), -x / c], axis=-1) / m[..., None]
        outward = np.stack([x / c, np.ones_like(x)], axis=-1) / m[..., None]
        return Frame(point, tangent, outward, -1.0 / (c * m**3))

    def line_intersections(self, s, alpha) -> np.ndarray:
        # roots t of (p0x + t vx)^2 + 4 a (p0y + t vy) = 0 with p0 = s w
        s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
        v, w = unit_vectors(alpha)
        p0 = s[..., None] * w
        a = self.focal
        A = v[..., 0] * v[..., 0]
        B = 2.0 * p0[..., 0] * v[..., 0] + 4.0 * a * v[..., 1]
        C = p0[..., 0] * p0[..., 0] + 4.0 * a * p0[..., 1]
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        with np.errstate(divide="ignore", invalid="ignore"):
            quadratic = np.stack([(-B - sq) / (2 * A), (-B + sq) / (2 * A)], axis=-1)
            linear = np.where(np.abs(B) < 1e-14, np.nan, -C / B)
        t = np.where((np.abs(A) < 1e-14)[..., None],
                     np.stack([linear, np.full_like(linear, np.nan)], axis=-1), quadratic)
        x = p0[..., 0, None] + t * v[..., 0, None]
        return np.where(np.abs(x) <= self.x_max, x, np.nan)

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        curve = -(x**2) / (4.0 * self.focal)
        return (y <= curve - margin) & (np.abs(x) <= self.x_max - margin)


class SampledCurve(_ClosedCurve):
    """Closed boundary from vertex samples, periodic cubic spline.

    The input polygon is reoriented to clockwise if needed; the spline
    parameter u in [0, 1) is normalized chord length.
    """

    _period = 1.0

    def __init__(self, points):
        from scipy.interpolate import CubicSpline

        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
            raise ValueError("need an (n, 2) array with n >= 4 vertex samples")
        if np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        if area2 > 0.0:  # counterclockwise input: flip to the clockwise convention
            pts = pts[::-1]
        closed_pts = np.vstack([pts, pts[:1]])
        chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(closed_pts, axis=0).T))])
        # periodic spline, so evaluation outside [0, 1] wraps
        self._spline = CubicSpline(chord / chord[-1], closed_pts, bc_type="periodic")
        self._cells = max(16 * len(pts), 1024)
        self._scan_u = np.linspace(0.0, 1.0, 257)  # 256 sign-scan intervals
        self._scan_pts = self._spline(self._scan_u)

    @classmethod
    def from_csv(cls, path) -> "SampledCurve":
        pts = np.loadtxt(path, delimiter=",")
        return cls(pts)

    def _speed(self, u):
        d1 = self._spline(u, 1)
        return np.hypot(d1[..., 0], d1[..., 1])

    def _derivatives(self, u):
        return self._spline(u), self._spline(u, 1), self._spline(u, 2)

    def line_intersections(self, s, alpha) -> np.ndarray:
        # One sign scan of the scan points against every line, then a
        # bracketed Newton iteration on all sign changes at once.
        s, alpha = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
        w = unit_vectors(alpha.ravel())[1]
        f = w @ self._scan_pts.T - s.ravel()[:, None]
        f_lo, f_hi = f[:, :-1], f[:, 1:]
        line, cell = np.nonzero((f_lo == 0.0) | (f_lo * f_hi < 0.0))
        w, c = w[line], s.ravel()[line]
        lo, hi = self._scan_u[cell], self._scan_u[cell + 1]
        g_lo, g_hi = f_lo[line, cell], f_hi[line, cell]
        exact = g_lo == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(exact, lo, lo - g_lo * (hi - lo) / (g_hi - g_lo))
            for _ in range(60):
                g = dot2(self._spline(u), w) - c
                below = np.sign(g) == np.sign(g_lo)
                lo, g_lo = np.where(below, u, lo), np.where(below, g, g_lo)
                hi = np.where(below, hi, u)
                step = u - g / dot2(self._spline(u, 1), w)
                step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
                step = np.where((g == 0.0) | exact, u, step)
                converged = np.abs(step - u) < 1e-13  # brentq's xtol
                u = step
                if converged.all():
                    break
            # Newton polish against the analytic derivative
            d = dot2(self._spline(u, 1), w)
            polish = u - (dot2(self._spline(u), w) - c) / d
            u = np.where(exact | (d == 0.0), u, polish)
        rank = np.arange(line.size) - np.searchsorted(line, line)
        out = np.full((s.size, max(1, rank.max(initial=0) + 1)), np.nan)
        out[line, rank] = u
        return out.reshape(s.shape + out.shape[-1:])

    @cached_property
    def _polygon(self) -> np.ndarray:
        taus = np.linspace(0.0, self.length, 1024, endpoint=False)
        return np.array([self.frame(t).point for t in taus])

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        # crossing-number test against a dense polygonal sampling, and the
        # distance to its vertices for the margin
        queries = np.column_stack([np.ravel(x), np.ravel(y)])
        keep = _points_in_polygon(self._polygon, queries)
        if margin > 0.0:
            from scipy.spatial import cKDTree

            d, _ = cKDTree(self._polygon).query(queries)
            keep &= d >= margin
        return keep.reshape(np.shape(x))


def _points_in_polygon(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd rule crossing test, vectorized over edge chunks."""
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(len(pts), dtype=bool)
    chunk = 64
    for i in range(0, len(poly), chunk):
        a0x, a0y = x0[i : i + chunk, None], y0[i : i + chunk, None]
        a1x, a1y = x1[i : i + chunk, None], y1[i : i + chunk, None]
        straddles = (a0y > y[None, :]) != (a1y > y[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = a0x + (y[None, :] - a0y) * (a1x - a0x) / (a1y - a0y)
        hits = straddles & (x_cross > x[None, :])
        inside ^= (np.sum(hits, axis=0) % 2).astype(bool)
    return inside


def _exit_parameter(boundary: Boundary, line: LineCoords, from_point) -> float:
    """Curve parameter of the exit hit of one ray (see ``intersect_ray``)."""
    t0 = line.coord_of(from_point)
    hits = []
    for u in boundary.line_intersections(line.s, line.alpha):
        if math.isnan(u):
            continue
        fr = boundary.frame_u(u)
        t = line.coord_of(fr.point)
        if t <= t0 + AHEAD_EPS:
            continue
        cos_b = float(np.dot(line.v, fr.normal))
        if cos_b <= 0.0:
            continue  # inward crossing, the ray enters here
        hits.append((t, float(u), cos_b))
    if not hits:
        raise NoIntersection(
            f"ray (s={line.s:.6g}, alpha={line.alpha:.6g}) from "
            f"{np.asarray(from_point)} does not exit the boundary"
        )
    _, u, cos_b = min(hits)
    if cos_b < GRAZING_COS:
        raise GrazingIncidence(
            f"|cos beta| = {cos_b:.4g} below threshold {GRAZING_COS}"
        )
    return u


def intersect_ray(boundary: Boundary, line: LineCoords, from_point) -> float:
    """Arc parameter of the reflection point for a ray on the given line.

    The reflection point is the first crossing strictly ahead of
    ``from_point`` at which the ray leaves the region bounded by the curve
    (<v, n> > 0).  For a source inside a convex boundary this is the exit
    point of the chord.  Raises NoIntersection if the ray never leaves
    through the boundary and GrazingIncidence if the first outward crossing
    is closer than GRAZING_COS to tangential.
    """
    return float(boundary.tau_of_u(_exit_parameter(boundary, line, from_point)))


def reflect(boundary: Boundary, line_in: LineCoords, from_point) -> ReflectionEvent:
    """Reflect a directed line off the boundary.

    Returns the full event: hit point, incidence angle, outgoing line and
    the Jacobian d(chi) of the line-coordinate reflection map.  This is the
    single-ray reference for ``reflect_rays``.
    """
    u0 = _exit_parameter(boundary, line_in, from_point)
    fr = boundary.frame_u(u0)
    sin_b = float(np.dot(line_in.v, fr.tangent))
    sin_b = max(-1.0, min(1.0, sin_b))
    beta = math.asin(sin_b)
    alpha2 = line_in.alpha + 2.0 * beta + math.pi
    s2 = float(np.dot(fr.point, normal(alpha2)))
    event = ReflectionEvent(
        tau0=float(boundary.tau_of_u(u0)),
        beta=beta,
        line_in=line_in,
        line_out=LineCoords(s2, alpha2),
        hit_point=fr.point,
        tangent=fr.tangent,
        kappa=float(fr.kappa),
    )
    event.jacobian = reflection_jacobian(event)
    return event


def reflect_rays(boundary: Boundary, s, alpha, t_from, jacobian: bool = False) -> Reflections:
    """The reflection law on arrays of rays.

    Ray i runs along the directed line (s[i], alpha[i]) from line
    coordinate t_from[i]; the three arrays broadcast.  Each ray reflects
    where ``reflect`` reflects it, at its first outward crossing ahead of
    the source.  Rays that never leave, or leave closer than GRAZING_COS to
    tangential, are not ``ok``.  ``jacobian=True`` adds d(chi).
    """
    s, alpha, t_from = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (s, alpha, t_from)))
    v = unit_vectors(alpha)[0]
    u = boundary.line_intersections(s, alpha)
    fr = boundary.frame_u(u)
    t = dot2(fr.point, v[..., None, :])
    cos_b = dot2(fr.normal, v[..., None, :])
    exits = (t > t_from[..., None] + AHEAD_EPS) & (cos_b > 0.0)
    first = np.argmin(np.where(exits, t, np.inf), axis=-1)[..., None]
    ok = (np.take_along_axis(exits, first, axis=-1)[..., 0]
          & (np.take_along_axis(cos_b, first, axis=-1)[..., 0] >= GRAZING_COS))
    u0 = np.where(ok, np.take_along_axis(u, first, axis=-1)[..., 0], np.nan)
    fr = boundary.frame_u(u0)
    beta = np.arcsin(np.clip(dot2(v, fr.tangent), -1.0, 1.0))
    alpha2 = alpha + 2.0 * beta + math.pi
    s2 = dot2(fr.point, unit_vectors(alpha2)[1])
    rays = Reflections(
        boundary=boundary,
        ok=ok,
        u=u0,
        beta=beta,
        line_in=Lines(s, alpha),
        line_out=Lines(s2, alpha2),
        hit_point=fr.point,
        tangent=fr.tangent,
        kappa=fr.kappa,
    )
    if jacobian:
        rays.jacobian = reflection_jacobian(rays)
    return rays


def reflection_jacobian(event) -> np.ndarray:
    """d(chi) = [[ds2/ds1, ds2/da1], [da2/ds1, da2/da1]] at the event.

    Built from the implicit-function derivatives of the hit parameter,
    k_s = 1/<w(a1), gamma'> and k_a = <v(a1), gamma(tau0)>/<w(a1), gamma'>.
    The determinant is 1 up to rounding.  For Reflections the entries of
    each ray stack on two last axes.
    """
    v1, w1 = unit_vectors(event.line_in.alpha)
    v2, w2 = unit_vectors(event.alpha2_raw)
    gdot = event.tangent
    hit = event.hit_point
    wg1 = dot2(w1, gdot)
    if np.ndim(wg1) == 0 and abs(wg1) < GRAZING_COS:
        raise GrazingIncidence(f"|<w, gamma'>| = {abs(wg1):.4g} too small")
    k_s = 1.0 / wg1
    k_a = dot2(v1, hit) / wg1
    kap = event.kappa
    da2_ds1 = 2.0 * kap * k_s
    da2_da1 = 2.0 * kap * k_a - 1.0
    wg2 = dot2(w2, gdot)
    vg2 = dot2(v2, hit)
    ds2_ds1 = -vg2 * da2_ds1 + k_s * wg2
    ds2_da1 = -vg2 * da2_da1 + k_a * wg2
    return np.stack([np.stack([ds2_ds1, ds2_da1], axis=-1),
                     np.stack([da2_ds1, da2_da1], axis=-1)], axis=-2)


def reflect_line_map(boundary: Boundary, s: float, alpha: float, t_anchor: float):
    """chi as a plain map (s, alpha) -> (s2, alpha2_raw).

    The source point is placed at line coordinate ``t_anchor`` so the map is
    smooth under perturbations of (s, alpha); used for finite differencing.
    """
    line = LineCoords(s, alpha)
    event = reflect(boundary, line, line.point_at(t_anchor))
    return event.line_out.s, event.alpha2_raw

