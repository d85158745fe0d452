"""Shared fixtures and independent oracles used across the test suite."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from brokenray import transforms
from brokenray.conjugate import (
    DEGENERATE_TOL,
    ChainStatus,
    Covector,
    Translation,
    conjugate_chain,
    conjugate_point,
    is_radial,
    source_derivatives,
)
from brokenray.geometry import (
    AHEAD_EPS,
    GRAZING_COS,
    TWO_PI,
    Boundary,
    Circle,
    Ellipse,
    Lines,
    Parabola,
    Reflections,
    SampledCurve,
    dot2,
    reflect,
    reflection_jacobian,
    unit_vectors,
)


def star_curve_points(n=512, base=1.0, amp=0.12, lobes=3):
    """Smooth wavy closed test curve r(phi) = base + amp*cos(lobes*phi)."""
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = base + amp * np.cos(lobes * phi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


# Line and chain helpers that only the tests need.


def _dot(u, v):
    """<u, v> of two 2-vectors, on floats."""
    return float(u[0]) * float(v[0]) + float(u[1]) * float(v[1])


def _rot90(u):
    """A 2-vector rotated by +90 degrees."""
    return np.array([-u[1], u[0]])


class Line:
    """One directed line {x : <x, w(alpha)> = s} on plain floats, its angle
    reduced to [0, 2 pi): the reference line of the tests' oracles, written
    without geometry.Lines.  ``v`` and ``w`` are numpy 2-vectors, so the
    package's Jacobian and conjugate point read a reference event as they
    read a batch."""

    def __init__(self, s, alpha):
        a = float(alpha) % TWO_PI
        self.s, self.alpha = float(s), 0.0 if a >= TWO_PI else a
        self._c, self._sn = math.cos(self.alpha), math.sin(self.alpha)
        self.v = np.array([self._c, self._sn])
        self.w = np.array([-self._sn, self._c])

    @classmethod
    def through(cls, point, alpha):
        """The line through a point with the given angle."""
        return cls(float(point[1]) * math.cos(alpha) - float(point[0]) * math.sin(alpha), alpha)

    def coord_of(self, point):
        """Signed position of (the projection of) a point along the line."""
        return float(point[0]) * self._c + float(point[1]) * self._sn


def point_at(line, t):
    """The point s w + t v of a line; t is signed arc length along it."""
    return line.s * line.w + t * line.v


def contains(line, point, tol=1e-9):
    """Whether a point lies on a line, up to tol."""
    return abs(_dot(point, line.w) - float(line.s)) <= tol


def reversed_line(line):
    """The same geometric line traversed backwards."""
    return Line(-float(line.s), float(line.alpha) + math.pi)


@dataclass(eq=False)
class ChainEntry:
    """One covector of a conjugate chain with the chords it is reached
    along and sits on; ``line_out`` is None where index 0's chord grazes."""

    index: int
    covector: Covector
    line_in: Line
    line_out: Line | None
    a: float
    outside_domain: bool = False


def chain_entries(cv, radius, max_index):
    """``conjugate.conjugate_chain(cv, radius, max_index)`` and its
    ChainEntry rows from the per-entry walk, sorted by index, after checking
    that the chain's statuses, grazing flag, indices, covectors and
    outside flags are the walk's bit for bit."""
    chain = conjugate_chain(cv, radius, max_index)
    entries, pos, neg, grazing = per_entry_chain(cv, radius, max_index)
    assert (chain.status_positive, chain.status_negative, chain.grazing) == (pos, neg, grazing)
    np.testing.assert_array_equal(chain.index, [e.index for e in entries])
    np.testing.assert_array_equal(chain.x, [e.covector.x for e in entries])
    np.testing.assert_array_equal(chain.xi, [e.covector.xi for e in entries])
    np.testing.assert_array_equal(chain.outside_domain, [e.outside_domain for e in entries])
    return chain, entries


def chain_entry(entries, index):
    """The ChainEntry with the given index, or None."""
    return next((e for e in entries if e.index == index), None)


def conjugate_covector(cv: Covector, event, conormal_tol: float = 1e-6):
    """Transport a conormal covector through one event, or None.

    ``event`` is a Translation or a 0-d Reflections, one ray.  With
    xi = lambda * w(alpha1) the partner is
    eta = lambda / det(d chi) * (d alpha2/d alpha1) * w(alpha2) sitting at
    the conjugate point of cv.x.
    """
    line_in = event.line_in
    lam = float(np.dot(cv.xi, line_in.w))
    if np.linalg.norm(cv.xi - lam * line_in.w) > conormal_tol * cv.magnitude:
        raise ValueError("covector is not conormal to the incoming line")
    q = conjugate_point(cv.x, event)
    if np.isnan(q).any():
        return None
    if isinstance(event, Translation):
        return Covector(q, cv.xi.copy())
    da2, _ = source_derivatives(cv.x, event)
    det = float(np.linalg.det(event.jacobian))
    eta = (lam / det) * da2 * event.line_out.w
    return Covector(q, eta)


def parabola_criterion(a: float, d: float, x0: float) -> bool:
    """Whether the ray from (0, -d) hitting the mirror -4ay = x^2 at
    abscissa x0 produces conjugate points: (a - d)(3/4 x0^2 - a d) > 0."""
    if a <= 0.0 or d <= 0.0:
        raise ValueError("focal parameter and source height must be positive")
    return (a - d) * (0.75 * x0 * x0 - a * d) > 0.0


# Reference conjugate chain for conjugate.conjugate_chain: one ChainEntry
# per bounce on numpy 2-vectors, as the chain was built before it became
# arrays, with the a value and the chords of each entry.  Its covectors are
# the chain's bit for bit.


def _disk_exit(x, u, radius):
    b = x[0] * u[0] + x[1] * u[1]
    disc = radius * radius - (x[0] * x[0] + x[1] * x[1]) + b * b
    return -b + math.sqrt(max(disc, 0.0))


def _per_entry_walk(x0, xi0, u0, radius, max_index, sign, entries):
    x = np.array(x0, dtype=float)
    u = np.array(u0, dtype=float)
    lam = float(np.dot(xi0, _rot90(u)))
    s_chord = u[0] * x[1] - u[1] * x[0]
    cos_b = math.sqrt(max(1.0 - (s_chord / radius) ** 2, 0.0))
    if cos_b < GRAZING_COS:
        return ChainStatus("truncated", 0), True
    half_chord = radius * cos_b
    t1 = _disk_exit(x, u, radius)
    v1 = x + t1 * u
    n = v1 / radius
    u2_first = u - 2.0 * float(np.dot(u, n)) * n
    v2 = v1 + 2.0 * half_chord * u2_first
    phi = math.atan2(v1[1], v1[0])
    delta = math.remainder(math.atan2(v2[1], v2[0]) - phi, TWO_PI)
    a = t1 / half_chord - 1.0
    b = math.inf if a == 0.0 else 1.0 / a
    u_prev = u
    for k in range(1, max_index + 1):
        idx = sign * k
        D = 2.0 * a + 1.0
        if D <= DEGENERATE_TOL:
            return ChainStatus("incomplete", idx), False
        b += 2.0
        if abs(b) < DEGENERATE_TOL:
            return ChainStatus("incomplete", idx), False
        a = 0.0 if math.isinf(b) else 1.0 / b
        outside = abs(a) >= 1.0 - 1e-12
        ang = phi + (k - 1) * delta
        vk = radius * np.array([math.cos(ang), math.sin(ang)])
        vk1 = radius * np.array([math.cos(ang + delta), math.sin(ang + delta)])
        u2 = vk1 - vk
        u2 = u2 / math.hypot(u2[0], u2[1])
        q = vk + half_chord * (1.0 - a) * u2
        lam *= D
        entries.append(ChainEntry(
            index=idx, covector=Covector(q, lam * _rot90(u2)),
            line_in=Line.through(x, math.atan2(u_prev[1], u_prev[0])),
            line_out=Line.through(vk, math.atan2(u2[1], u2[0])),
            a=a, outside_domain=outside))
        x, u_prev = q, u2
        if outside:
            return ChainStatus("incomplete", idx), False
    return ChainStatus("truncated", sign * max_index), False


def per_entry_chain(cv: Covector, radius: float, max_index: int):
    """(entries, status_positive, status_negative, grazing) of
    ``conjugate.conjugate_chain(cv, radius, max_index)``, entries sorted by
    index."""
    xin = cv.unit()
    u0 = np.array([xin[1], -xin[0]])
    t1 = _disk_exit(cv.x, u0, radius)
    s_chord = u0[0] * cv.x[1] - u0[1] * cv.x[0]
    cos_b = math.sqrt(max(1.0 - (s_chord / radius) ** 2, 0.0))
    first_out = None
    if cos_b >= GRAZING_COS:
        vertex = cv.x + t1 * u0
        n = vertex / radius
        u2 = u0 - 2.0 * float(np.dot(u0, n)) * n
        first_out = Line.through(vertex, math.atan2(u2[1], u2[0]))
    entries = [ChainEntry(0, cv, Line.through(cv.x, math.atan2(u0[1], u0[0])), first_out,
                          t1 / (radius * cos_b) - 1.0 if cos_b > 0 else math.inf)]
    pos, graze_p = _per_entry_walk(cv.x, cv.xi, u0, radius, max_index, +1, entries)
    neg, graze_n = _per_entry_walk(cv.x, cv.xi, -u0, radius, max_index, -1, entries)
    grazing = graze_p or graze_n
    if is_radial(cv, radius) and not grazing:
        pos = neg = ChainStatus("complete")
    entries.sort(key=lambda e: e.index)
    return entries, pos, neg, grazing


def chunked_points_in_polygon(poly, pts):
    """Even-odd rule crossing test of every point against every edge, in
    chunks of 64 edges: the reference for ``geometry._points_in_polygon``."""
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


# Reference reflection for the batched brokenray.geometry.reflect: one ray
# at a time, with its own exit search and event type.  The Jacobian and the
# conjugate point come from the package; they read only fields the event
# shares with geometry.Reflections.


class NoReflection(Exception):
    """The reference ray never leaves the mirror, or leaves it grazing."""


@dataclass(eq=False)
class ReflectionEvent:
    """One reflection of a directed line off a boundary.

    ``jacobian`` is d(chi) = d(s2, alpha2)/d(s1, alpha1) evaluated at the
    event; its determinant is 1 up to rounding.
    """

    tau0: float
    beta: float
    line_in: Line
    line_out: Line
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


def _exit_parameter(boundary: Boundary, line: Line, from_point):
    """Curve parameter and frame of the reflection point of one ray: the
    first crossing strictly ahead of ``from_point`` at which the ray leaves
    the region bounded by the curve (<v, n> > 0)."""
    t0 = line.coord_of(from_point)
    hits = []
    for u in boundary.line_intersections(line.s, line.alpha).tolist():
        if math.isnan(u):
            continue
        fr = boundary.frame_u(u)
        t = line.coord_of(fr.point)
        if t <= t0 + AHEAD_EPS:
            continue
        cos_b = line.coord_of(fr.normal)  # <v, n>
        if cos_b <= 0.0:
            continue  # inward crossing, the ray enters here
        hits.append((t, u, cos_b, fr))
    if not hits:
        raise NoReflection(
            f"ray (s={line.s:.6g}, alpha={line.alpha:.6g}) from "
            f"{np.asarray(from_point)} does not exit the boundary"
        )
    _, u, cos_b, fr = min(hits, key=lambda hit: hit[:3])
    if cos_b < GRAZING_COS:
        raise NoReflection(
            f"|cos beta| = {cos_b:.4g} below threshold {GRAZING_COS}"
        )
    return u, fr


def reflect_one(boundary: Boundary, line_in: Line, from_point) -> ReflectionEvent:
    """Reflect one directed line off the boundary: hit point, incidence
    angle, outgoing line and the Jacobian d(chi).  Raises NoReflection
    where ``geometry.reflect`` leaves a ray not ``ok``."""
    u0, fr = _exit_parameter(boundary, line_in, from_point)
    beta = math.asin(max(-1.0, min(1.0, line_in.coord_of(fr.tangent))))
    event = ReflectionEvent(
        tau0=float(boundary.tau_of_u(u0)),
        beta=beta,
        line_in=line_in,
        line_out=Line.through(fr.point, line_in.alpha + 2.0 * beta + math.pi),
        hit_point=fr.point,
        tangent=fr.tangent,
        kappa=float(fr.kappa),
    )
    event.jacobian = reflection_jacobian(event)
    return event


def reflect_every_crossing(boundary, s, alpha, t_from):
    """``geometry.reflect(boundary, s, alpha, t_from, jacobian=True)`` by the
    generic selection: every crossing from ``line_intersections`` is a
    candidate, the first outward one ahead of the source is kept, and the
    frame is evaluated again there.  Arrays only."""
    s, alpha, t_from = np.broadcast_arrays(s, alpha, t_from)
    line_in = Lines(s, alpha, *unit_vectors(alpha))
    u = boundary.line_intersections(s, alpha)
    fr = boundary.frame_u(u)
    t = dot2(fr.point, line_in.v[..., None, :])
    cos_b = dot2(fr.normal, line_in.v[..., None, :])
    exits = (t > t_from[..., None] + AHEAD_EPS) & (cos_b > 0.0)
    first = np.argmin(np.where(exits, t, np.inf), axis=-1)[..., None]
    ok = (np.take_along_axis(exits, first, axis=-1)[..., 0]
          & (np.take_along_axis(cos_b, first, axis=-1)[..., 0] >= GRAZING_COS))
    u0 = np.where(ok, np.take_along_axis(u, first, axis=-1)[..., 0], np.nan)
    fr = boundary.frame_u(u0)
    beta = np.arcsin(np.clip(dot2(line_in.v, fr.tangent), -1.0, 1.0))
    alpha2 = alpha + 2.0 * beta + math.pi
    v2, w2 = unit_vectors(alpha2)
    rays = Reflections(boundary, ok, u0, beta, line_in, Lines(dot2(fr.point, w2), alpha2, v2, w2),
                       fr.point, fr.tangent, fr.kappa)
    rays.jacobian = reflection_jacobian(rays)
    return rays


def reflect_from(boundary, p, alpha):
    """``geometry.reflect`` of the one ray from p at angle alpha: a 0-d
    batch with its Jacobian."""
    line = Line.through(p, alpha)
    return reflect(boundary, line.s, alpha, line.coord_of(p), jacobian=True)


def fd_jacobian(boundary, line, from_point, h=1e-5):
    """Central finite differences of chi: (s, alpha) -> (s2, alpha2).

    Independent oracle for the analytic reflection Jacobian; the source
    anchor rides along the perturbed line at a fixed line coordinate.
    """
    t0 = line.coord_of(from_point)
    s, a = line.s, line.alpha

    def chi(ss, aa):
        moved = Line(ss, aa)
        event = reflect_one(boundary, moved, point_at(moved, t0))
        return np.array([event.line_out.s, event.alpha2_raw])

    ds = (chi(s + h, a) - chi(s - h, a)) / (2.0 * h)
    da = (chi(s, a + h) - chi(s, a - h)) / (2.0 * h)
    return np.column_stack([ds, da])


def random_admissible_events(boundary, rng, n, interior_radius=None):
    """n random admissible rays on the boundary as (line, source, event),
    with ``event`` the 0-d batch of ``geometry.reflect``.

    Sources are drawn inside the domain, directions uniformly; rays that the
    reference reflection finds to miss or graze are re-drawn.
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
        line = Line.through(p, alpha)
        try:
            reflect_one(boundary, line, p)
        except NoReflection:
            continue
        event = reflect(boundary, line.s, line.alpha, line.coord_of(p), jacobian=True)
        assert event.ok, "the reference reflects a ray that geometry.reflect does not"
        events.append((line, p, event))
    return events


# Reference Radon pair for the sparse plan of brokenray.transforms: one
# angle row at a time, each with its own bilinear stencil on the image
# padded by a zero ring; clamping pushes every out-of-image corner into
# that ring, so it reads zero.
_PAD = 2


def _loop_grid_coords(layout, img, m, h):
    c, sn = math.cos(m * layout.dalpha), math.sin(m * layout.dalpha)
    v, w = (c, sn), (-sn, c)
    half_diag = 0.5 * math.hypot(img.x_max - img.x_min, img.y_max - img.y_min)
    n_t = max(int(math.ceil(2.0 * half_diag / h)) + 1, 2)
    t = -half_diag + np.arange(n_t) * h
    wt = np.full(n_t, h)
    wt[0] = wt[-1] = h / 2.0
    s = layout.s_centers
    off = _PAD - 0.5
    gx = (s[:, None] * w[0] + t[None, :] * v[0] - img.x_min) / img.dx + off
    gy = (s[:, None] * w[1] + t[None, :] * v[1] - img.y_min) / img.dx + off
    return gx, gy, wt


def _loop_stencil(gx, gy, width):
    np.clip(gx, 0.0, width - 2.0, out=gx)
    np.clip(gy, 0.0, width - 2.0, out=gy)
    ix0 = gx.astype(np.int64)
    iy0 = gy.astype(np.int64)
    return iy0 * width + ix0, gx - ix0, gy - iy0


def loop_radon(f, layout, h):
    """Sinogram data of ``transforms.radon(f, layout, h)``, one angle at a time."""
    width = f.n + 2 * _PAD
    flat = np.pad(f.data, _PAD).ravel()
    out = np.empty((layout.n_alpha, layout.n_s))
    for m in range(layout.n_alpha):
        gx, gy, wt = _loop_grid_coords(layout, f, m, h)
        base, fx, fy = _loop_stencil(gx, gy, width)
        top = flat.take(base)
        top += (flat.take(base + 1) - top) * fx
        bot = flat.take(base + width)
        bot += (flat.take(base + width + 1) - bot) * fx
        top += (bot - top) * fy
        out[m] = top @ wt
    return out


def loop_radon_adjoint(g, img, h):
    """Image data of ``transforms.radon_adjoint(g, img, h)``, one angle at a time."""
    layout = g.layout
    vals = g.filled()
    width = img.n + 2 * _PAD
    acc = np.zeros(width * width)
    for m in range(layout.n_alpha):
        gx, gy, wt = _loop_grid_coords(layout, img, m, h)
        base, fx, fy = _loop_stencil(gx, gy, width)
        row = (vals[m][:, None] * wt[None, :]).ravel()
        base, fx, fy = base.ravel(), fx.ravel(), fy.ravel()
        for shift, w in ((0, (1.0 - fx) * (1.0 - fy)), (1, fx * (1.0 - fy)),
                         (width, (1.0 - fx) * fy), (width + 1, fx * fy)):
            acc += np.bincount(base + shift, weights=row * w, minlength=acc.size)
    scale = layout.ds * layout.dalpha / img.dx**2
    return acc.reshape(width, width)[_PAD:-_PAD, _PAD:-_PAD] * scale


# Reference arithmetic of the fast Radon pair and line map: the quarter
# turns through np.rot90, and each corner of the line map as a 2-d gather
# and a bincount of its own.  The fast paths must give these bits.


def rot90_radon(f, layout, h):
    """Sinogram data of ``transforms.radon(f, layout, h)`` from a stack of
    np.rot90 turns."""
    plan = transforms._plan(*transforms._plan_key(f, layout, h))
    A, q = plan.matrix, plan.q
    turns = np.stack([np.rot90(f.data, k).ravel() for k in range(q)], axis=1)
    return (A @ turns).T.reshape(layout.n_alpha, layout.n_s)


def rot90_radon_adjoint(g, img, h):
    """Image data of ``transforms.radon_adjoint(g, img, h)``, each turn
    rotated back by np.rot90 and the turns summed in order."""
    layout = g.layout
    plan = transforms._plan(*transforms._plan_key(img, layout, h))
    A, q = plan.matrix, plan.q
    n = img.n
    back = A.T @ np.ascontiguousarray(g.filled().reshape(q, -1).T)
    acc = sum(np.rot90(back[:, k].reshape(n, n), -k) for k in range(q))
    return acc * (layout.ds * layout.dalpha / img.dx**2)


def corner_forward(op, f):
    """Sinogram data of ``op.forward(f)``, one 2-d gather per corner."""
    rf = rot90_radon(f, op.sino_layout, op.h)
    data = rf
    for rows, cols, w in op.corners:
        data = data + rf[rows, cols] * w
    return data if op.mask is None else np.where(op.mask, data, np.nan)


def corner_adjoint(op, g):
    """Image data of ``op.adjoint(g)``, one bincount per corner."""
    lay = op.sino_layout
    vals = g.filled() if op.mask is None else np.where(op.mask, g.filled(), 0.0)
    acc = vals.ravel()
    for rows, cols, w in op.corners:
        idx = (rows * lay.n_s + cols).ravel()
        acc = acc + np.bincount(idx, weights=(vals * w).ravel(), minlength=acc.size)
    back = transforms.Sinogram(acc.reshape(vals.shape), lay.s_max)
    return rot90_radon_adjoint(back, op.img_layout, op.h)


# Reference geometry for the batched computations that reflect rays: the
# same computations one ray at a time through reflect_one.


def loop_reflection_table(boundary, family, layout):
    """(mask, s2, a2) of ``transforms._reflection_table``, one bin at a time."""
    s, alphas = layout.s_centers, layout.alphas
    shape = (layout.n_alpha, layout.n_s)
    ok = np.zeros(shape, dtype=bool)
    s2, a2, sin_b, tau0 = (np.zeros(shape) for _ in range(4))
    for m, alpha in enumerate(alphas):
        for k in range(layout.n_s):
            line = Line(s[k], alpha)
            try:
                event = reflect_one(boundary, line, point_at(line, -4.0 * layout.s_max))
            except NoReflection:
                continue
            ok[m, k] = True
            sin_b[m, k] = math.sin(event.beta)
            tau0[m, k] = event.tau0
            s2[m, k] = event.line_out.s
            a2[m, k] = event.line_out.alpha
    mask = ok & family.admits(s, alphas[:, None], sin_b, tau0, boundary.length)
    return mask, s2, a2


def _caustic_sample(p, boundary, alpha):
    line = Line.through(p, alpha)
    try:
        event = reflect_one(boundary, line, p)
    except NoReflection:
        return None
    q = conjugate_point(p, event)
    if np.isnan(q).any():
        return None
    t1 = event.t_hit - line.coord_of(p)
    return q, t1 + event.line_out.coord_of(q - event.hit_point)


def depth_first_caustic(p, boundary, n_samples, refine_dist, max_depth=10,
                        refine_outside=False):
    """(alphas, points, t, breaks, unrefined_outside) of
    ``conjugate.caustic_curve`` over the full turn, one ray at a time,
    bisecting each interval depth-first.  An interval whose ends both lie
    outside the mirror is left whole, and counted, unless ``refine_outside``
    is set, which refines wherever the ends are far apart."""
    alphas = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    samples = [(a, _caustic_sample(p, boundary, a)) for a in alphas]
    refined = []
    unrefined_outside = 0
    for i in range(len(samples)):
        refined.append(samples[i])
        if i + 1 == len(samples):
            break
        stack = [(samples[i], samples[i + 1], 0)]
        inserts = []
        while stack:
            (aa, ca), (ab, cb), depth = stack.pop()
            if depth >= max_depth or ca is None or cb is None:
                continue
            if np.linalg.norm(ca[0] - cb[0]) <= refine_dist:
                continue
            if not (refine_outside or boundary.inside(*ca[0]) or boundary.inside(*cb[0])):
                unrefined_outside += 1
                continue
            am = 0.5 * (aa + ab)
            cm = _caustic_sample(p, boundary, am)
            inserts.append((am, cm))
            stack.append(((aa, ca), (am, cm), depth + 1))
            stack.append(((am, cm), (ab, cb), depth + 1))
        refined.extend(sorted(inserts, key=lambda t: t[0]))
    kept, breaks = [], []
    previous_missing = False
    for a, sample in refined:
        if sample is None:
            previous_missing = True
            continue
        if previous_missing and kept:
            breaks.append(len(kept))
        kept.append((a, sample[0], sample[1]))
        previous_missing = False
    return (np.array([k[0] for k in kept]), np.array([k[1] for k in kept]),
            np.array([k[2] for k in kept]), breaks, unrefined_outside)


def _disk_chord(p, radius, a):
    """(t1, cos beta) of the ray from p at angle a in the disk: the distance
    to the mirror and the incidence angle there."""
    line = Line.through(p, a)
    s = line.s
    t1 = -line.coord_of(p) + math.sqrt(max(radius * radius - s * s, 0.0))
    return t1, math.sqrt(max(1.0 - (s / radius) ** 2, 0.0))


def locus_residual(p, radius, alpha, t):
    """F(alpha, t) = (2 t1/(R cos b) - 1)(t - t1) - t1 of the ray from p at
    angle alpha in the disk; zero on the tangent conjugate locus."""
    t1, cb = _disk_chord(p, radius, alpha)
    return (2.0 * t1 / (radius * cb) - 1.0) * (t - t1) - t1


def per_sample_tangent_locus(p, radius, n_samples):
    """(alpha, t, points) of ``conjugate.tangent_conjugate_locus``, one
    direction at a time."""
    rows = []
    for a in np.linspace(0.0, TWO_PI, n_samples, endpoint=False):
        t1, cb = _disk_chord(p, radius, a)
        D = 2.0 * t1 / (radius * cb) - 1.0
        if D <= 0.0:
            continue
        t = t1 + t1 / D
        line = Line.through(p, a)
        event = reflect_one(Circle(radius), line, p)
        t_hit = event.t_hit - line.coord_of(p)
        rows.append((a, t, event.hit_point + (t - t_hit) * event.line_out.v))
    return (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]))
