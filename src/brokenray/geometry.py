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


def cross2(u, v) -> float:
    """Scalar cross product u x v of 2-vectors."""
    return u[0] * v[1] - u[1] * v[0]


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


class Frame(NamedTuple):
    """Boundary data at arc length tau: point, unit tangent, unit outward
    normal, signed curvature."""

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


class Boundary:
    """Common interface of unit-speed, negatively oriented boundaries."""

    closed: bool = True

    @property
    def length(self) -> float:
        raise NotImplementedError

    def frame(self, tau: float) -> Frame:
        """Frame at arc length tau; closed boundaries reduce tau periodically."""
        raise NotImplementedError

    def line_intersections(self, line: LineCoords) -> list[float]:
        """Arc parameters of all intersections of the full line."""
        raise NotImplementedError


class _ClosedCurve(Boundary):
    """Closed mirror given by a smooth periodic parametrization gamma0(u).

    Subclasses set the parameter period ``_period`` and the number of table
    cells ``_cells`` and provide ``_speed(u)`` = |gamma0'(u)| (vectorized)
    and ``_derivatives(u)`` = (gamma0, gamma0', gamma0'').  The base
    reparametrizes to arc length through a cumulative Gauss-Legendre table.
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

    def tau_of_u(self, u: float) -> float:
        """Arc length from u=0, smooth and monotone over all of R."""
        grid, cum = self._arclength_table
        turns = math.floor(u / self._period)
        u = u - turns * self._period
        i = min(int(u / self._period * self._cells), self._cells - 1)
        h = u - grid[i]
        tau = float(cum[i])
        if h > 0:
            pts = grid[i] + (GAUSS_NODES + 1.0) * (h / 2.0)
            tau += float(self._speed(pts) @ GAUSS_WEIGHTS) * (h / 2.0)
        return tau + turns * float(cum[-1])

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

    def frame(self, tau: float) -> Frame:
        point, d1, d2 = self._derivatives(self.u_of_tau(tau))
        speed = math.hypot(d1[0], d1[1])
        tangent = d1 / speed
        # n = (-ty, tx) is outward for the clockwise traversal
        outward = np.array([-tangent[1], tangent[0]])
        return Frame(point, tangent, outward, cross2(d1, d2) / speed**3)


@dataclass(frozen=True)
class Circle(Boundary):
    """Circle of given radius about the origin, traversed clockwise."""

    radius: float = 1.0

    @property
    def length(self) -> float:
        return TWO_PI * self.radius

    def frame(self, tau: float) -> Frame:
        r = self.radius
        th = tau / r
        c, s = math.cos(th), math.sin(th)
        point = np.array([r * c, -r * s])
        tangent = np.array([-s, -c])
        outward = np.array([c, -s])
        return Frame(point, tangent, outward, -1.0 / r)

    def tau_of_point(self, point) -> float:
        return (self.radius * math.atan2(-point[1], point[0])) % self.length

    def line_intersections(self, line: LineCoords) -> list[float]:
        disc = self.radius**2 - line.s**2
        if disc < 0.0:
            return []
        half = math.sqrt(disc)
        foot = line.s * line.w
        taus = []
        for t in (-half, half):
            taus.append(self.tau_of_point(foot + t * line.v))
        return taus


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

    def _derivatives(self, theta: float):
        c, s = math.cos(theta), math.sin(theta)
        a, b = self.a, self.b
        return (
            np.array([a * c, -b * s]),
            np.array([-a * s, -b * c]),
            np.array([-a * c, b * s]),
        )

    def line_intersections(self, line: LineCoords) -> list[float]:
        p0 = line.s * line.w
        v = line.v
        A = (v[0] / self.a) ** 2 + (v[1] / self.b) ** 2
        B = 2.0 * (p0[0] * v[0] / self.a**2 + p0[1] * v[1] / self.b**2)
        C = (p0[0] / self.a) ** 2 + (p0[1] / self.b) ** 2 - 1.0
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        taus = []
        for t in ((-B - sq) / (2 * A), (-B + sq) / (2 * A)):
            pt = p0 + t * v
            th = math.atan2(-pt[1] / self.b, pt[0] / self.a) % TWO_PI
            taus.append(self.tau_of_u(th))
        return taus


@dataclass(frozen=True)
class Parabola(Boundary):
    """Open parabolic mirror y = -x^2/(4 a), |x| <= x_max, left to right.

    The mirror bounds the region below it; the focus is at (0, -a).  Arc
    length is measured from the vertex, increasing with x.
    """

    focal: float
    x_max: float = 4.0

    closed = False

    def _arclen(self, x: float) -> float:
        c = 2.0 * self.focal
        m = math.sqrt(1.0 + (x / c) ** 2)
        return 0.5 * x * m + 0.5 * c * math.asinh(x / c)

    @property
    def length(self) -> float:
        return 2.0 * self._arclen(self.x_max)

    def x_of_tau(self, tau: float) -> float:
        half = self._arclen(self.x_max)
        if abs(tau) > half + 1e-9:
            raise ValueError(
                f"arc parameter {tau:.6g} outside the mirror extent +-{half:.6g}"
            )
        tau = max(-half, min(half, tau))
        x = tau
        c = 2.0 * self.focal
        for _ in range(30):
            m = math.sqrt(1.0 + (x / c) ** 2)
            dx = (self._arclen(x) - tau) / m
            x -= dx
            if abs(dx) < 1e-14:
                break
        return x

    def frame(self, tau: float) -> Frame:
        x = self.x_of_tau(tau)
        c = 2.0 * self.focal
        m = math.sqrt(1.0 + (x / c) ** 2)
        point = np.array([x, -x * x / (4.0 * self.focal)])
        tangent = np.array([1.0, -x / c]) / m
        outward = np.array([x / c, 1.0]) / m
        kappa = -1.0 / (c * m**3)
        return Frame(point, tangent, outward, kappa)

    def line_intersections(self, line: LineCoords) -> list[float]:
        p0 = line.s * line.w
        v = line.v
        a = self.focal
        A = v[0] * v[0]
        B = 2.0 * p0[0] * v[0] + 4.0 * a * v[1]
        C = p0[0] * p0[0] + 4.0 * a * p0[1]
        if abs(A) < 1e-14:
            if abs(B) < 1e-14:
                return []
            roots = [-C / B]
        else:
            disc = B * B - 4.0 * A * C
            if disc < 0.0:
                return []
            sq = math.sqrt(disc)
            roots = [(-B - sq) / (2 * A), (-B + sq) / (2 * A)]
        taus = []
        for t in roots:
            x = p0[0] + t * v[0]
            if abs(x) <= self.x_max:
                taus.append(self._arclen(x))
        return taus


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
        return np.hypot(*self._spline(u, 1).T)

    def _derivatives(self, u: float):
        return self._spline(u), self._spline(u, 1), self._spline(u, 2)

    def line_intersections(self, line: LineCoords) -> list[float]:
        # Coarse sign scan in u, then bracketed root refinement.
        from scipy.optimize import brentq

        us = self._scan_u
        f = self._scan_pts @ line.w - line.s

        def fu(u):
            return float(self._spline(u) @ line.w - line.s)

        taus = []
        for i in range(len(us) - 1):
            a, b = f[i], f[i + 1]
            if a == 0.0:
                taus.append(self.tau_of_u(us[i]))
            elif a * b < 0.0:
                root = brentq(fu, us[i], us[i + 1], xtol=1e-13)
                # Newton polish against the analytic derivative
                d = float(self._spline(root, 1) @ line.w)
                if d != 0.0:
                    root -= fu(root) / d
                taus.append(self.tau_of_u(root))
        return taus


def intersect_ray(boundary: Boundary, line: LineCoords, from_point) -> float:
    """Arc parameter of the reflection point for a ray on the given line.

    The reflection point is the first crossing strictly ahead of
    ``from_point`` at which the ray leaves the region bounded by the curve
    (<v, n> > 0).  For a source inside a convex boundary this is the exit
    point of the chord.  Raises NoIntersection if the ray never leaves
    through the boundary and GrazingIncidence if the first outward crossing
    is closer than GRAZING_COS to tangential.
    """
    t0 = line.coord_of(from_point)
    hits = []
    for tau in boundary.line_intersections(line):
        fr = boundary.frame(tau)
        t = line.coord_of(fr.point)
        if t <= t0 + AHEAD_EPS:
            continue
        cos_b = float(np.dot(line.v, fr.normal))
        if cos_b <= 0.0:
            continue  # inward crossing, the ray enters here
        hits.append((t, tau, cos_b))
    if not hits:
        raise NoIntersection(
            f"ray (s={line.s:.6g}, alpha={line.alpha:.6g}) from "
            f"{np.asarray(from_point)} does not exit the boundary"
        )
    _, tau, cos_b = min(hits)
    if cos_b < GRAZING_COS:
        raise GrazingIncidence(
            f"|cos beta| = {cos_b:.4g} below threshold {GRAZING_COS}"
        )
    return tau


def reflect(boundary: Boundary, line_in: LineCoords, from_point) -> ReflectionEvent:
    """Reflect a directed line off the boundary.

    Returns the full event: hit point, incidence angle, outgoing line and
    the Jacobian d(chi) of the line-coordinate reflection map.
    """
    tau0 = intersect_ray(boundary, line_in, from_point)
    fr = boundary.frame(tau0)
    sin_b = float(np.dot(line_in.v, fr.tangent))
    sin_b = max(-1.0, min(1.0, sin_b))
    beta = math.asin(sin_b)
    alpha2 = line_in.alpha + 2.0 * beta + math.pi
    s2 = float(np.dot(fr.point, normal(alpha2)))
    event = ReflectionEvent(
        tau0=tau0,
        beta=beta,
        line_in=line_in,
        line_out=LineCoords(s2, alpha2),
        hit_point=fr.point,
        tangent=fr.tangent,
        kappa=fr.kappa,
    )
    event.jacobian = reflection_jacobian(event)
    return event


def reflection_jacobian(event: ReflectionEvent) -> np.ndarray:
    """d(chi) = [[ds2/ds1, ds2/da1], [da2/ds1, da2/da1]] at the event.

    Built from the implicit-function derivatives of the hit parameter,
    k_s = 1/<w(a1), gamma'> and k_a = <v(a1), gamma(tau0)>/<w(a1), gamma'>.
    The determinant is 1 up to rounding.
    """
    a1 = event.line_in.alpha
    v1, w1 = direction(a1), normal(a1)
    a2 = event.alpha2_raw
    v2, w2 = direction(a2), normal(a2)
    gdot = event.tangent
    hit = event.hit_point
    wg1 = float(np.dot(w1, gdot))
    if abs(wg1) < GRAZING_COS:
        raise GrazingIncidence(f"|<w, gamma'>| = {abs(wg1):.4g} too small")
    k_s = 1.0 / wg1
    k_a = float(np.dot(v1, hit)) / wg1
    kap = event.kappa
    da2_ds1 = 2.0 * kap * k_s
    da2_da1 = 2.0 * kap * k_a - 1.0
    wg2 = float(np.dot(w2, gdot))
    vg2 = float(np.dot(v2, hit))
    ds2_ds1 = -vg2 * da2_ds1 + k_s * wg2
    ds2_da1 = -vg2 * da2_da1 + k_a * wg2
    return np.array([[ds2_ds1, ds2_da1], [da2_ds1, da2_da1]])


def reflect_line_map(boundary: Boundary, s: float, alpha: float, t_anchor: float):
    """chi as a plain map (s, alpha) -> (s2, alpha2_raw).

    The source point is placed at line coordinate ``t_anchor`` so the map is
    smooth under perturbations of (s, alpha); used for finite differencing.
    """
    line = LineCoords(s, alpha)
    event = reflect(boundary, line, line.point_at(t_anchor))
    return event.line_out.s, event.alpha2_raw


def make_boundary(kind: str, **params) -> Boundary:
    """Boundary factory used by the experiment configuration."""
    kind = kind.lower()
    if kind == "circle":
        return Circle(radius=float(params.get("radius", 1.0)))
    if kind == "ellipse":
        return Ellipse(a=float(params["a"]), b=float(params["b"]))
    if kind == "parabola":
        return Parabola(
            focal=float(params["focal"]), x_max=float(params.get("x_max", 4.0))
        )
    if kind == "generic":
        if "points" in params:
            return SampledCurve(params["points"])
        return SampledCurve.from_csv(params["csv"])
    raise ValueError(f"unknown boundary kind {kind!r}")
