"""Conjugate points, caustics, conjugate chains and artifact predictors.

For a source ``p`` on the incoming line of a reflection, the total
derivatives along the pencil of rays through ``p`` are obtained from the
reflection Jacobian by the chain rule with ``d s1/d alpha1 = -<p, v(a1)>``.
A conjugate point exists on the outgoing ray iff

    (d a2/d a1) * <d q0/d a1, w(a2)> < 0,

and is then the unique point with ``<q, v(a2)> = -(d a2/d a1)^-1 d s2/d a1``.
In the reflection case the factor ``<d q0/d a1, w(a2)> = -t1`` is always
negative, so existence reduces to ``d a2/d a1 > 0`` and the conjugate point
satisfies the mirror relation ``dt2 = (d a2/d a1)^-1 t1``.

Conjugate covectors follow the transport rule
``eta = lambda / det(d chi) * (d a2/d a1) * w(a2)`` for ``xi = lambda w(a1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CenterSource, EmptyCaustic, GrazingIncidence
from .geometry import (
    GRAZING_COS,
    TWO_PI,
    Boundary,
    Circle,
    Lines,
    Reflections,
    cross2,
    dot2,
    reflect,
)

# d(alpha2)/d(alpha1) magnitudes below this put the conjugate point at
# infinity and are treated as degenerate.
DEGENERATE_TOL = 1e-12

RADIAL_TOL = 1e-9


@dataclass(eq=False)
class Covector:
    """A position/direction pair (x, xi) marking a potential singularity."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if not np.linalg.norm(self.xi) > 0.0:
            raise ValueError("covector direction must be nonzero")

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.xi))

    def unit(self) -> np.ndarray:
        return self.xi / self.magnitude


@dataclass(frozen=True)
class Translation:
    """The line-coordinate map (s, alpha) -> (s + offset, alpha) on a
    batch of lines.

    This is the diffeomorphism of the two-parallel-ray transform; its
    Jacobian is the identity.
    """

    offset: float
    line_in: Lines

    @property
    def line_out(self) -> Lines:
        s, alpha, v, w = self.line_in
        return Lines(s + self.offset, alpha, v, w)

    @property
    def jacobian(self) -> np.ndarray:
        return np.eye(2)


def source_derivatives(p, event: Reflections):
    """Total (d a2/d a1, d s2/d a1) along the ray pencil through p, as
    arrays over the rays.

    Chain rule through the reflection Jacobian with s1 = <p, w(a1)>, so
    d s1/d a1 = -<p, v(a1)>.
    """
    J = event.jacobian
    ds1 = -dot2(np.asarray(p, dtype=float), event.line_in.v)
    da2 = J[..., 1, 1] + J[..., 1, 0] * ds1
    ds2 = J[..., 0, 1] + J[..., 0, 0] * ds1
    return da2, ds2


def conjugate_point(p, event, q0_offset: float = 0.0):
    """Conjugate points of p along the outgoing rays.

    ``event`` is a Translation or Reflections, whose points stack on a last
    axis of 2.  A point is NaN where its ray has no conjugate point or it
    lies at infinity (d(alpha2)/d(alpha1) = 0).  ``q0_offset`` slides the
    reference point q0 along the outgoing direction; small offsets do not
    change the existence answer.
    """
    p = np.asarray(p, dtype=float)
    if isinstance(event, Translation):
        # conjugate pair of the translation: q = p + w * offset
        return p + event.offset * event.line_in.w
    da2, ds2 = source_derivatives(p, event)
    v2, w2 = event.line_out.v, event.line_out.w
    q0 = event.hit_point + q0_offset * v2
    # <d q0/d a1, w2> recovered from differentiating <q0, w2> = s2
    dq0_w2 = ds2 + dot2(q0, v2) * da2
    exists = (np.abs(da2) >= DEGENERATE_TOL) & (da2 * dq0_w2 < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -ds2 / da2
    q = np.asarray(event.line_out.s)[..., None] * w2 + np.asarray(c)[..., None] * v2
    return np.where(exists[..., None], q, np.nan)


# one record per caustic point; ``t`` is the total path length from the
# source through the vertex, ``point`` the conjugate point (x, y)
CAUSTIC_FIELDS = np.dtype([("alpha", float), ("t", float), ("point", float, 2),
                           ("outside_domain", bool)])


@dataclass
class CausticCurve:
    """Conjugate points of a fixed source, ordered by ray angle."""

    source: np.ndarray
    points: np.recarray  # CAUSTIC_FIELDS, sorted by alpha
    breaks: list  # indices into points where the polyline is interrupted
    refine_dist: float | None = None
    # intervals longer than refine_dist left unbisected, both ends outside
    unrefined_outside: int = 0

    def segments(self) -> list[np.ndarray]:
        """Polyline pieces as (m, 2) arrays, split at gaps."""
        return np.split(self.points.point, self.breaks)


def _caustic_samples(p, boundary, alphas):
    """Conjugate points q, path lengths t and inside-the-mirror flags of the
    rays from p at the given angles; q and t are NaN, and the flag False,
    where a direction has no admissible reflection or no conjugate point."""
    pencil = Lines.through(p, alphas)
    pv = pencil.coord_of(p)
    rays = reflect(boundary, pencil.s, alphas, pv, jacobian=True)
    q = conjugate_point(p, rays)
    t = rays.t_hit - pv + dot2(q - rays.hit_point, rays.line_out.v)
    present = ~np.isnan(q[:, 0])
    inside = np.zeros(len(q), dtype=bool)
    inside[present] = boundary.inside(q[present, 0], q[present, 1])
    return q, t, inside


def caustic_curve(
    p,
    boundary: Boundary,
    alpha_range=(0.0, TWO_PI),
    n_samples: int = 720,
    refine_dist: float | None = None,
    max_depth: int = 10,
) -> CausticCurve:
    """Sample the caustic (conjugate-point locus) of a point source.

    Directions without an admissible reflection or without a conjugate
    point leave gaps.  When ``refine_dist`` is set, intervals whose
    endpoints are farther apart than that, and at least one of whose
    endpoints lies inside the mirror, are bisected up to ``max_depth``
    times, which resolves cusps.  Points outside the mirror are flagged
    ``outside_domain``; the curve counts in ``unrefined_outside`` the long
    intervals it left whole because both ends lie outside.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    p = np.asarray(p, dtype=float)
    a0, a1 = alpha_range
    full_turn = abs((a1 - a0) - TWO_PI) < 1e-12
    alphas = np.linspace(a0, a1, n_samples, endpoint=not full_turn)
    q, t, inside = _caustic_samples(p, boundary, alphas)
    found = [(alphas, q, t, inside)]
    unrefined_outside = 0

    if refine_dist is not None:
        # Breadth-first: each level bisects, in one batch, every interval
        # whose ends both exist, lie farther apart than refine_dist and are
        # not both outside the mirror.  An interval's fate depends only on
        # its own ends, so this samples the same angles as bisecting each
        # interval depth-first.
        lo_a, lo_q, lo_in = alphas[:-1], q[:-1], inside[:-1]
        hi_a, hi_q, hi_in = alphas[1:], q[1:], inside[1:]
        for _ in range(max_depth):
            far = np.linalg.norm(hi_q - lo_q, axis=1) > refine_dist
            split = far & (lo_in | hi_in)
            unrefined_outside += int(np.count_nonzero(far & ~split))
            if not split.any():
                break
            mid_a = 0.5 * (lo_a[split] + hi_a[split])
            mid_q, mid_t, mid_in = _caustic_samples(p, boundary, mid_a)
            found.append((mid_a, mid_q, mid_t, mid_in))
            lo_a, hi_a = np.concatenate([lo_a[split], mid_a]), np.concatenate([mid_a, hi_a[split]])
            lo_q, hi_q = np.concatenate([lo_q[split], mid_q]), np.concatenate([mid_q, hi_q[split]])
            lo_in = np.concatenate([lo_in[split], mid_in])
            hi_in = np.concatenate([mid_in, hi_in[split]])

    alphas, q, t, inside = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(alphas, kind="stable")
    alphas, q, t, inside = alphas[order], q[order], t[order], inside[order]
    present = ~np.isnan(q[:, 0])
    if not present.any():
        raise EmptyCaustic("no admissible direction produced a conjugate point")
    # a point right after a missing direction starts a new piece
    after_gap = np.concatenate([[False], ~present[:-1]])[present]
    breaks = [int(i) for i in np.flatnonzero(after_gap) if i > 0]
    points = np.rec.fromarrays([alphas[present], t[present], q[present], ~inside[present]],
                               dtype=CAUSTIC_FIELDS)
    return CausticCurve(source=p, points=points, breaks=breaks, refine_dist=refine_dist,
                        unrefined_outside=unrefined_outside)


@dataclass
class LocusZero:
    alpha: float
    kind: str  # "through_center" (beta = 0) or "source_perpendicular" (t1 = R cos b)
    simple: bool
    t: float


@dataclass
class TangentLocus:
    """Zero set of F(alpha, t) for a circular mirror, with dF/d alpha zeros."""

    alpha: np.ndarray
    t: np.ndarray
    points: np.ndarray  # (m, 2) conjugate points in the plane
    zeros: list  # LocusZero


def _disk_pencil(p, radius, alpha):
    """(t1, sin b, cos b) for the rays from p with angles alpha in the disk."""
    pencil = Lines.through(p, alpha)
    s = pencil.s
    t1 = -pencil.coord_of(p) + np.sqrt(np.maximum(radius * radius - s * s, 0.0))
    return t1, s / radius, np.sqrt(np.maximum(1.0 - (s / radius) ** 2, 0.0))


def tangent_conjugate_locus(p, radius: float = 1.0, n_samples: int = 2048) -> TangentLocus:
    """Tangent conjugate locus of a source inside a circular mirror.

    Solves F(alpha, t) = (2 t1/(R cos b) - 1)(t - t1) - t1 = 0 for each
    admissible direction and classifies the zeros of dF/d alpha on the
    locus.  Both kinds of zeros are simple: d(sin b)/d alpha = (t1 - R cos b)/R
    does not vanish at beta = 0, and d(cos b - t1/R)/d alpha = sin b does not
    vanish at the perpendicular direction.
    """
    p = np.asarray(p, dtype=float)
    r = float(np.linalg.norm(p))
    if r < 1e-12:
        raise CenterSource("locus degenerates for a source at the center")
    if r >= radius:
        raise ValueError("source must lie strictly inside the circle")

    alphas = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    t1, _, cb = _disk_pencil(p, radius, alphas)
    with np.errstate(divide="ignore"):
        D = 2.0 * t1 / (radius * cb) - 1.0
    on_locus = D > 0.0
    if not on_locus.any():
        raise EmptyCaustic("locus is empty")
    alpha_arr = alphas[on_locus]
    t_arr = t1[on_locus] + t1[on_locus] / D[on_locus]

    # exp_p(t v(alpha)) travels t1 along v then t - t1 along the reflection
    pencil = Lines.through(p, alpha_arr)
    pv = pencil.coord_of(p)
    rays = reflect(Circle(radius), pencil.s, alpha_arr, pv)
    if not rays.ok.all():
        raise GrazingIncidence("a direction on the locus meets the mirror at grazing incidence")
    pts = rays.hit_point + (t_arr - (rays.t_hit - pv))[:, None] * rays.line_out.v

    # the two directions through the centre (beta = 0) and the two
    # perpendicular to the source, in one batch
    phi = math.atan2(p[1], p[0])
    kinds = ("through_center",) * 2 + ("source_perpendicular",) * 2
    zero_alpha = [a % TWO_PI for a in (phi, phi + math.pi, phi + math.pi / 2.0,
                                       phi - math.pi / 2.0)]
    t1, sb, cb = _disk_pencil(p, radius, zero_alpha)
    D = 2.0 * t1 / (radius * cb) - 1.0
    # dF/d alpha: d(sin b)/d alpha = (t1 - R cos b)/R through the centre,
    # nonzero unless t1 = R, and sin b perpendicular to the source
    deriv = np.concatenate([(t1[:2] - radius * cb[:2]) / radius, sb[2:]])
    zeros = [LocusZero(alpha=a, kind=kind, simple=bool(abs(d) > 1e-9), t=float(t + t / dd))
             for a, kind, t, dd, d in zip(zero_alpha, kinds, t1.tolist(), D.tolist(),
                                          deriv.tolist())
             if dd > DEGENERATE_TOL]  # the others are not on the locus
    return TangentLocus(alpha=alpha_arr, t=t_arr, points=pts, zeros=zeros)


def is_radial(cv: Covector, radius: float = 1.0) -> bool:
    """Whether x is the midpoint of the chord conormal to xi.

    For a disk about the origin the chord through x perpendicular to xi has
    midpoint at the foot of the center's projection, so the midpoint is x
    itself iff x is parallel to xi (or x = 0).
    """
    r = float(np.linalg.norm(cv.x))
    if r >= radius:
        raise ValueError("covector must lie inside the disk")
    return bool(abs(cross2(cv.x, cv.unit())) <= RADIAL_TOL * r)


@dataclass(frozen=True)
class ChainStatus:
    kind: str  # "complete" | "incomplete" | "truncated"
    index: int | None = None

    @property
    def is_complete(self) -> bool:
        return self.kind == "complete"


@dataclass
class ConjugateChain:
    """The conjugate covectors (x, xi) of a chain as arrays sorted by
    ``index``, with whether each lies outside the disk.  Index 0 is the
    covector itself.  Points and covectors stack on a last axis of 2."""

    index: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    outside_domain: np.ndarray
    status_positive: ChainStatus
    status_negative: ChainStatus
    grazing: bool = False

    @property
    def is_complete(self) -> bool:
        return self.status_positive.is_complete and self.status_negative.is_complete


def _walk_disk_chain(x, y, ux, uy, xi, radius, max_index, sign, rows):
    """March conjugate covectors around the disk billiard in one direction,
    from the covector (x, y; xi) on the chord along the unit (ux, uy).

    Returns the ChainStatus for this direction, whose index carries the
    walk's sign, and whether the chord grazes; unless ``rows`` is None,
    appends one row per bounce, with indices sign*1, sign*2, ...: index,
    x, xi, outside_domain.  All bounces share the incidence angle, so
    grazing is decided once from the first chord.

    Positions are reconstructed from the vertex sequence (a stable
    rotation) and the reciprocal recurrence 1/a_{i+1} = 1/a_i + 2; the raw
    point-to-point march amplifies rounding exponentially and cannot follow
    long chains.
    """
    s_chord = ux * y - uy * x  # conserved offset; sin(beta) = s/R
    cos_b = math.sqrt(max(1.0 - (s_chord / radius) ** 2, 0.0))
    if cos_b < GRAZING_COS:
        return ChainStatus("truncated", 0), True
    half_chord = radius * cos_b
    xu = x * ux + y * uy
    t1 = -xu + math.sqrt(max(radius * radius - (x * x + y * y) + xu * xu, 0.0))

    if rows is not None:
        # np.dot for lam and for the reflection at the first vertex, not
        # the sum of products: its rounding sets the last digits that
        # chain.csv writes
        lam = float(np.dot(xi, np.array([-uy, ux])))
        v1x, v1y = x + t1 * ux, y + t1 * uy
        n = np.array([v1x / radius, v1y / radius])
        d = float(np.dot(np.array([ux, uy]), n))
        u2x, u2y = ux - 2.0 * d * n[0], uy - 2.0 * d * n[1]
        # The vertex sequence is a rigid rotation by a fixed central angle;
        # generate it in closed form so the march stays exact.
        phi = math.atan2(v1y, v1x)
        delta = math.remainder(math.atan2(v1y + 2.0 * half_chord * u2y,
                                          v1x + 2.0 * half_chord * u2x) - phi, TWO_PI)

    a = t1 / half_chord - 1.0
    b = math.inf if a == 0.0 else 1.0 / a
    for k in range(1, max_index + 1):
        idx = sign * k
        D = 2.0 * a + 1.0
        if D <= DEGENERATE_TOL:
            return ChainStatus("incomplete", idx), False
        b += 2.0
        if abs(b) < DEGENERATE_TOL:
            # conjugate point at infinity: the chain leaves the disk here
            return ChainStatus("incomplete", idx), False
        a = 0.0 if math.isinf(b) else 1.0 / b
        outside = abs(a) >= 1.0 - 1e-12
        if rows is not None:
            ang = phi + (k - 1) * delta
            vx, vy = radius * math.cos(ang), radius * math.sin(ang)
            u2x = radius * math.cos(ang + delta) - vx
            u2y = radius * math.sin(ang + delta) - vy
            norm = math.hypot(u2x, u2y)
            u2x, u2y = u2x / norm, u2y / norm
            m = half_chord * (1.0 - a)
            qx, qy = vx + m * u2x, vy + m * u2y
            lam *= D
            rows.append((idx, qx, qy, -lam * u2y, lam * u2x, outside))
        if outside:
            return ChainStatus("incomplete", idx), False
    return ChainStatus("truncated", sign * max_index), False


def conjugate_chain(
    cv: Covector,
    radius: float = 1.0,
    max_index: int = 64,
    with_entries: bool = True,
) -> ConjugateChain:
    """All conjugate covectors reachable from cv inside a disk mirror.

    Walks the billiard forward and backward, transporting the covector via
    the mirror relation; equivalently, with t1 = R cos(b) (a_i + 1), the
    recurrence 1/a_{i+1} = 1/a_i + 2 governs escape.  The chain is complete
    exactly for radial covectors (a = 0); otherwise at least one direction
    escapes the disk and the chain is incomplete there.

    ``with_entries=False`` skips the per-bounce covector construction and
    returns statuses only, with empty arrays, which is much faster on large
    covector grids.
    """
    if float(np.linalg.norm(cv.x)) >= radius:
        raise ValueError("covector must lie strictly inside the disk")
    xin = cv.unit()
    x, y = cv.x.tolist()
    ux, uy = float(xin[1]), -float(xin[0])  # chord direction, xi conormal to it
    radial = is_radial(cv, radius)

    pos, neg = ([], []) if with_entries else (None, None)
    status_pos, graze_p = _walk_disk_chain(x, y, ux, uy, cv.xi, radius, max_index, +1, pos)
    status_neg, graze_n = _walk_disk_chain(x, y, -ux, -uy, cv.xi, radius, max_index, -1, neg)
    grazing = graze_p or graze_n
    if radial and not grazing:
        status_pos = ChainStatus("complete")
        status_neg = ChainStatus("complete")
    rows = neg[::-1] + [(0, x, y, *cv.xi.tolist(), False)] + pos if with_entries else []
    table = np.array(rows, dtype=float).reshape(-1, 6)
    return ConjugateChain(
        index=table[:, 0].astype(int),
        x=table[:, 1:3],
        xi=table[:, 3:5],
        outside_domain=table[:, 5].astype(bool),
        status_positive=status_pos,
        status_negative=status_neg,
        grazing=grazing,
    )


def polygon_artifact_radii(n_max: int) -> np.recarray:
    """Radii cos(q pi / p) of persistent radial artifacts in the disk, as
    records (radius, p, q) sorted by decreasing radius.

    Periodic billiard orbits are the regular (possibly star) polygons p/q
    with 2 <= 2q < p and gcd(p, q) = 1; only even p = 2n leaves a
    non-smooth residue, with odd winding q = 2k + 1.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    radii = sorted(((math.cos(q * math.pi / p), p, q) for p in range(4, 2 * n_max + 1, 2)
                    for q in range(1, p // 2, 2) if gcd(p, q) == 1), key=lambda r: -r[0])
    # drop a radius that agrees to rounding with the one before it
    kept = radii[:1] + [r for prev, r in zip(radii, radii[1:]) if prev[0] - r[0] > 1e-12]
    return np.rec.array(kept, dtype=[("radius", float), ("p", int), ("q", int)])
