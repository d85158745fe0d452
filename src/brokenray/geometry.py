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
Lines are ``Lines`` batches, one line being a 0-d batch.  ``reflect``
applies this law to arrays of rays; scalar inputs give a 0-d batch, one
ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Reflections with |cos beta| below this are rejected: the Jacobian entries
# carry 1/<w, gamma'> = -1/cos(beta) factors and blow up at tangency.
GRAZING_COS = 0.05

# A hit must lie strictly ahead of the source point by at least this length.
AHEAD_EPS = 1e-9

# 8-point Gauss-Legendre rule for the arc-length table and its partial cells
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def normalize_angle(alpha: float) -> float:
    """Reduce an angle to [0, 2*pi).  Idempotent."""
    a = alpha % TWO_PI
    # a % TWO_PI can round up to TWO_PI itself for tiny negative inputs
    return 0.0 if a >= TWO_PI else a


def cross2(u, v):
    """Scalar cross product u x v of 2-vectors (stacked on the last axis)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def dot2(u, v):
    """Inner product of 2-vectors (stacked on the last axis)."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def _stack2(x, y):
    """Arrays x and y of one shape stacked on a new last axis: np.stack
    without its overhead, which dominates on small batches."""
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def unit_vectors(alpha):
    """v(alpha) and w(alpha) of an array of angles, stacked on a new last
    axis."""
    c, s = np.cos(alpha), np.sin(alpha)
    return _stack2(c, s), _stack2(-s, c)


class Lines(NamedTuple):
    """Directed lines {x : <x, w(alpha)> = s} as arrays of (s, alpha), with
    their unit vectors v(alpha) and w(alpha) stacked on a last axis."""

    s: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @classmethod
    def through(cls, points, alpha) -> "Lines":
        """The lines through points (stacked on a last axis of 2) at angles
        alpha; the two broadcast, and one point and one angle give a 0-d
        batch, one line."""
        alpha = np.asarray(alpha, dtype=float)
        v, w = unit_vectors(alpha)
        return cls(dot2(points, w), alpha, v, w)

    def coord_of(self, points) -> np.ndarray:
        """Signed position of (the projection of) points along the lines."""
        return dot2(points, self.v)


class Frame(NamedTuple):
    """Boundary data at one curve parameter, or arrays of it: point, unit
    tangent, unit outward normal, signed curvature."""

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    kappa: float


@dataclass(eq=False)
class Reflections:
    """The reflections of arrays of rays: per ray, the hit (curve
    parameter, point, unit tangent, curvature), the incidence angle, the
    incoming and outgoing lines (with their unit vectors, which the
    Jacobian, the conjugate points and ``t_hit`` read) and, if asked for,
    ``jacobian`` = d(chi), whose determinant is 1 up to rounding.  Points
    and tangents stack on a
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
    def t_hit(self) -> np.ndarray:
        return self.line_in.coord_of(self.hit_point)


class Boundary:
    """Common interface of unit-speed, negatively oriented boundaries.

    Each boundary has its own curve parameter u (an angle, an abscissa or a
    spline parameter).  ``line_intersections``, ``exit_crossings``,
    ``frame_u``, ``tau_of_u`` and ``inside`` work on arrays; ``frame(tau)``
    is the lookup by arc length, on arrays for a closed mirror.
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

    def exit_crossings(self, s, alpha) -> np.ndarray:
        """Curve parameters of the crossings at which a ray along (s, alpha)
        may leave the mirror, laid out as ``line_intersections``; every
        crossing unless the mirror knows better."""
        return self.line_intersections(s, alpha)

    def inside(self, x, y, margin: float = 0.0) -> np.ndarray:
        """Which points (x, y) lie inside the mirror, at least ``margin``
        away from it; x and y are arrays of one shape."""
        raise NotImplementedError


class _ClosedCurve(Boundary):
    """Closed mirror given by a smooth periodic parametrization gamma0(u).

    Subclasses set the parameter period ``_period`` and the number of table
    cells ``_cells`` and provide ``_speed(u)`` = |gamma0'(u)| and
    ``_derivatives(u)``, the components ((x, y), (x', y'), (x'', y'')) of
    gamma0, gamma0' and gamma0'', both on arrays.  The base reparametrizes
    to arc length through a cumulative Gauss-Legendre table.
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

    def u_of_tau(self, tau):
        """Curve parameter(s) at arc length(s) tau: Newton on tau_of_u from
        the table's linear interpolation, at most 4 steps, each value
        stopping once its step falls below 1e-15."""
        grid, cum = self._arclength_table
        tau = np.asarray(tau, dtype=float) % float(cum[-1])
        u = np.interp(tau, cum, grid)
        moving = np.ones(u.shape, dtype=bool)
        for _ in range(4):
            du = (self.tau_of_u(u) - tau) / self._speed(u)
            u = np.where(moving, u - du, u)
            moving &= np.abs(du) >= 1e-15
            if not moving.any():
                break
        return u % self._period

    def frame_u(self, u) -> Frame:
        (x, y), (dx, dy), (ddx, ddy) = self._derivatives(u)
        speed = np.hypot(dx, dy)
        tx, ty = dx / speed, dy / speed
        # n = (-ty, tx) is outward for the clockwise traversal
        return Frame(_stack2(x, y), _stack2(tx, ty), _stack2(-ty, tx),
                     (dx * ddy - dy * ddx) / speed**3)


def _turn(angle):
    """``angle % TWO_PI`` for the angles in [-pi, pi] that arctan2 returns,
    bit for bit (-0 becomes +0), without np.remainder's cost."""
    return np.where(angle < 0.0, angle + TWO_PI, angle + 0.0)


def _chord_points(s, c, sn, t):
    """Coordinates x, y of the points s w + t v of the lines (s, alpha) at
    line coordinates t, which carry one more (last) axis than s, c =
    cos(alpha) and sn = sin(alpha)."""
    c, sn, s = c[..., None], sn[..., None], s[..., None]
    return s * -sn + t * c, s * c + t * sn


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
        return Frame(_stack2(r * c, -r * s), _stack2(-s, -c), _stack2(c, -s), 0.0 * u - 1.0 / r)

    def line_intersections(self, s, alpha) -> np.ndarray:
        return self._crossings(s, alpha, far_only=False)

    def exit_crossings(self, s, alpha) -> np.ndarray:
        # a convex mirror is left only at the far end of a chord
        return self._crossings(s, alpha, far_only=True)

    def _crossings(self, s, alpha, far_only):
        """Both ends of each chord, at line coordinates -+ half its length,
        or only the far one."""
        s, alpha = np.asarray(s, dtype=float), np.asarray(alpha, dtype=float)
        disc = self.radius**2 - s**2
        half = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        t = half[..., None] if far_only else _stack2(-half, half)
        x, y = _chord_points(s, np.cos(alpha), np.sin(alpha), t)
        return _turn(np.arctan2(-y, x))

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
        return (a * c, -b * s), (-a * s, -b * c), (-a * c, b * s)

    def line_intersections(self, s, alpha) -> np.ndarray:
        return self._crossings(s, alpha, far_only=False)

    def exit_crossings(self, s, alpha) -> np.ndarray:
        # a convex mirror is left only at the far root of a chord
        return self._crossings(s, alpha, far_only=True)

    def _crossings(self, s, alpha, far_only):
        """Both roots t of |(p0 + t v) / (a, b)|^2 = 1 with p0 = s w, or
        only the far one."""
        s, alpha = np.asarray(s, dtype=float), np.asarray(alpha, dtype=float)
        c, sn = np.cos(alpha), np.sin(alpha)
        px, py = s * -sn, s * c
        a, b = self.a, self.b
        A = (c / a) ** 2 + (sn / b) ** 2
        B = 2.0 * (px * c / a**2 + py * sn / b**2)
        C = (px / a) ** 2 + (py / b) ** 2 - 1.0
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        far = (-B + sq) / (2 * A)
        t = far[..., None] if far_only else _stack2((-B - sq) / (2 * A), far)
        x, y = _chord_points(s, c, sn, t)
        return _turn(np.arctan2(-y / b, x / a))

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
        return tuple((d[..., 0], d[..., 1]) for d in (self._spline(u, k) for k in range(3)))

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
        return self.frame(np.linspace(0.0, self.length, 1024, endpoint=False)).point

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
    """Even-odd rule crossing test.  An edge crosses the rightward ray of a
    point only when the point lies in the edge's half-open y-band
    min(y0, y1) <= y < max(y0, y1), so each edge is tested against just
    those points, found by bisection in the points sorted by y."""
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(y, kind="stable")
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    ys = y[order]
    lo = np.searchsorted(ys, np.minimum(y0, y1))
    count = np.searchsorted(ys, np.maximum(y0, y1)) - lo
    # one (edge, point) pair per point in an edge's band, edge by edge
    edge = np.repeat(np.arange(len(poly)), count)
    q = order[lo[edge] + np.arange(edge.size) - (np.cumsum(count) - count)[edge]]
    x_cross = x0[edge] + (y[q] - y0[edge]) * (x1[edge] - x0[edge]) / (y1[edge] - y0[edge])
    return np.bincount(q[x_cross > x[q]], minlength=len(pts)) % 2 == 1


def _pick(x, first, vector=False):
    """Per ray, the entry of x at crossing ``first`` (an index array, or
    None for the only crossing); the crossing axis is x's last, or its
    last but one for a ``vector`` of 2 components."""
    if first is None:
        return x[..., 0, :] if vector else x[..., 0]
    if vector:
        return np.take_along_axis(x, first[..., None, None], axis=-2)[..., 0, :]
    return np.take_along_axis(x, first[..., None], axis=-1)[..., 0]


def reflect(boundary: Boundary, s, alpha, t_from, jacobian: bool = False) -> Reflections:
    """The reflection law on arrays of rays.

    Ray i runs along the directed line (s[i], alpha[i]) from line
    coordinate t_from[i]; the three arrays broadcast, and scalars give a
    0-d batch.  Each ray reflects at its first outward crossing (<v, n> > 0)
    strictly ahead of the source among the mirror's ``exit_crossings``; a
    convex mirror offers one, the far end of the chord, so the frame is
    evaluated once per ray.  Rays that never leave, or leave closer than
    GRAZING_COS to tangential, are not ``ok``.  ``jacobian=True`` adds
    d(chi).
    """
    s, alpha, t_from = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (s, alpha, t_from)))
    line_in = Lines(s, alpha, *unit_vectors(alpha))
    c, sn = line_in.v[..., 0], line_in.v[..., 1]
    u = boundary.exit_crossings(s, alpha)
    fr = boundary.frame_u(u)
    t = fr.point[..., 0] * c[..., None] + fr.point[..., 1] * sn[..., None]
    cos_b = fr.normal[..., 0] * c[..., None] + fr.normal[..., 1] * sn[..., None]
    exits = (t > t_from[..., None] + AHEAD_EPS) & (cos_b > 0.0)
    # the first exit ahead of the source; a convex mirror offers just one
    first = None if u.shape[-1] == 1 else np.argmin(np.where(exits, t, np.inf), axis=-1)
    ok = _pick(exits, first) & (_pick(cos_b, first) >= GRAZING_COS)
    hit_point = np.where(ok[..., None], _pick(fr.point, first, vector=True), np.nan)
    tangent = np.where(ok[..., None], _pick(fr.tangent, first, vector=True), np.nan)
    beta = np.arcsin(np.clip(c * tangent[..., 0] + sn * tangent[..., 1], -1.0, 1.0))
    alpha2 = alpha + 2.0 * beta + math.pi
    v2, w2 = unit_vectors(alpha2)
    rays = Reflections(
        boundary=boundary,
        ok=ok,
        u=np.where(ok, _pick(u, first), np.nan),
        beta=beta,
        line_in=line_in,
        line_out=Lines(dot2(hit_point, w2), alpha2, v2, w2),
        hit_point=hit_point,
        tangent=tangent,
        kappa=np.where(ok, _pick(fr.kappa, first), np.nan),
    )
    if jacobian:
        rays.jacobian = reflection_jacobian(rays)
    return rays


def reflection_jacobian(event) -> np.ndarray:
    """d(chi) = [[ds2/ds1, ds2/da1], [da2/ds1, da2/da1]] at the event.

    Built from the implicit-function derivatives of the hit parameter,
    k_s = 1/<w(a1), gamma'> and k_a = <v(a1), gamma(tau0)>/<w(a1), gamma'>.
    The determinant is 1 up to rounding.  The entries of each ray stack on
    two last axes.  The unit vectors come from the event's two lines.
    """
    v1, w1 = event.line_in.v, event.line_in.w
    v2, w2 = event.line_out.v, event.line_out.w
    gdot = event.tangent
    hit = event.hit_point
    wg1 = dot2(w1, gdot)
    k_s = 1.0 / wg1
    k_a = dot2(v1, hit) / wg1
    kap = event.kappa
    da2_ds1 = 2.0 * kap * k_s
    da2_da1 = 2.0 * kap * k_a - 1.0
    wg2 = dot2(w2, gdot)
    vg2 = dot2(v2, hit)
    ds2_ds1 = -vg2 * da2_ds1 + k_s * wg2
    ds2_da1 = -vg2 * da2_da1 + k_a * wg2
    jac = np.empty(np.shape(ds2_ds1) + (2, 2))
    jac[..., 0, 0], jac[..., 0, 1] = ds2_ds1, ds2_da1
    jac[..., 1, 0], jac[..., 1, 1] = da2_ds1, da2_da1
    return jac
