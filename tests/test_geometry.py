import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brokenray.conjugate import conjugate_point
from brokenray.geometry import (
    GRAZING_COS,
    Circle,
    Ellipse,
    Lines,
    Parabola,
    SampledCurve,
    _points_in_polygon,
    dot2,
    normalize_angle,
    reflect,
    reflection_jacobian,
    unit_vectors,
)
from brokenray.transforms import GridImage

from conftest import (
    Line,
    NoReflection,
    chunked_points_in_polygon,
    contains,
    fd_jacobian,
    point_at,
    random_admissible_events,
    reflect_every_crossing,
    reflect_from,
    reflect_one,
    reversed_line,
    star_curve_points,
)


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_angle_normalization_idempotent(a):
    once = normalize_angle(a)
    assert 0.0 <= once < 2.0 * math.pi
    assert normalize_angle(once) == once


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_line_through_point_contains_it(x, y, alpha):
    p = np.array([x, y])
    line = Lines.through(p, alpha)
    assert line.s.shape == ()
    assert contains(line, p, tol=1e-8)
    assert contains(reversed_line(line), p, tol=1e-8)


class TestFrames:
    def test_circle_frame_at_zero(self, circle):
        fr = circle.frame(0.0)
        np.testing.assert_allclose(fr.point, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(fr.tangent, [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(fr.normal, [1.0, 0.0], atol=1e-12)
        assert fr.kappa == pytest.approx(-1.0)

    def test_parabola_vertex_frame(self, parabola):
        fr = parabola.frame(0.0)
        np.testing.assert_allclose(fr.point, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(fr.tangent, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(fr.normal, [0.0, 1.0], atol=1e-12)
        # |y''|/(1+y'^2)^(3/2) = 1/(2a), oriented negative here
        assert fr.kappa == pytest.approx(-0.5)

    def test_degenerate_ellipse_matches_circle(self, circle):
        ell = Ellipse(1.0, 1.0)
        for tau in np.linspace(0.0, 2.0 * math.pi, 17):
            fc = circle.frame(tau)
            fe = ell.frame(tau)
            np.testing.assert_allclose(fe.point, fc.point, atol=1e-9)
            np.testing.assert_allclose(fe.tangent, fc.tangent, atol=1e-9)
            np.testing.assert_allclose(fe.normal, fc.normal, atol=1e-9)
            assert fe.kappa == pytest.approx(fc.kappa, abs=1e-9)

    @pytest.mark.parametrize("name", ["circle", "ellipse", "parabola", "generic_curve"])
    def test_unit_speed_and_frenet(self, name, request):
        boundary = request.getfixturevalue(name)
        span = boundary.length
        if boundary.closed:
            taus = np.linspace(0.05, span - 0.05, 23)
        else:
            taus = np.linspace(-span / 2.0 + 0.05, span / 2.0 - 0.05, 23)
        delta = 1e-5
        for tau in taus:
            fr = boundary.frame(tau)
            assert math.hypot(*fr.tangent) == pytest.approx(1.0, abs=1e-12)
            assert math.hypot(*fr.normal) == pytest.approx(1.0, abs=1e-12)
            # unit speed: the finite-difference velocity has unit length
            gp = boundary.frame(tau + delta).point
            gm = boundary.frame(tau - delta).point
            vel = (gp - gm) / (2.0 * delta)
            assert math.hypot(*vel) == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(vel, fr.tangent, atol=1e-8)
            # gamma'' = kappa * n
            acc = (gp - 2.0 * fr.point + gm) / delta**2
            np.testing.assert_allclose(acc, fr.kappa * fr.normal, atol=1e-4)

    def test_sampled_ellipse_matches_analytic(self):
        # one curve through both parametrizations of the closed-curve base:
        # the spline through clockwise samples (a cos th, -b sin th) starts
        # at the same point, so the two arc-length parameters coincide
        ell = Ellipse(1.4, 0.9)
        th = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        curve = SampledCurve(np.column_stack([1.4 * np.cos(th), -0.9 * np.sin(th)]))
        assert curve.length == pytest.approx(ell.length, rel=1e-8)
        for tau in np.linspace(-0.3, ell.length + 0.3, 37):
            fs, fe = curve.frame(tau), ell.frame(tau)
            np.testing.assert_allclose(fs.point, fe.point, atol=1e-8)
            np.testing.assert_allclose(fs.tangent, fe.tangent, atol=1e-6)
        rng = np.random.default_rng(61)
        for line, p, event in random_admissible_events(ell, rng, 100):
            other = reflect(curve, line.s, line.alpha, line.coord_of(p))
            assert other.tau0 == pytest.approx(event.tau0, abs=1e-8)
            assert other.line_out.s == pytest.approx(event.line_out.s, abs=1e-5)
            assert other.beta == pytest.approx(event.beta, abs=1e-5)

    def test_tau_of_u_matches_quadrature(self):
        from scipy.integrate import quad

        ell = Ellipse(1.4, 0.9)
        u = np.random.default_rng(67).uniform(-0.5, 1.5, 25) * 2.0 * math.pi
        expected = [quad(ell._speed, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                    for x in u]
        np.testing.assert_allclose(ell.tau_of_u(u), expected, rtol=0, atol=1e-10)

    def test_parabola_extent_error(self, parabola):
        with pytest.raises(ValueError):
            parabola.frame(parabola.length)


def assert_no_reflection(rays):
    assert not rays.ok
    assert np.isnan(rays.tau0) and np.isnan(rays.line_out.s)
    assert np.isnan(rays.hit_point).all()


class TestIntersect:
    def test_circle_exit_point(self, circle):
        rays = reflect(circle, 0.0, 0.0, -2.0)
        assert rays.ok
        np.testing.assert_allclose(circle.frame(rays.tau0).point, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(rays.hit_point, [1.0, 0.0], atol=1e-9)

    def test_circle_tangent_line_grazes(self, circle):
        assert_no_reflection(reflect(circle, 1.0, 0.0, -2.0))

    def test_circle_near_tangent_grazes(self, circle):
        # the line crosses the circle, but too close to tangentially
        assert not np.isnan(circle.line_intersections(0.9999, 0.0)).any()
        assert_no_reflection(reflect(circle, 0.9999, 0.0, -2.0))

    def test_circle_miss(self, circle):
        assert np.isnan(circle.line_intersections(1.5, 0.0)).all()
        assert_no_reflection(reflect(circle, 1.5, 0.0, -2.0))

    def test_parabola_vertical_ray_hits_vertex(self, parabola):
        # closed form: the line x=0 meets -4y = x^2 only at the origin
        rays = reflect_from(parabola, np.array([0.0, -3.0]), math.pi / 2.0)
        assert rays.ok
        assert rays.tau0 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(parabola.frame(rays.tau0).point, [0.0, 0.0], atol=1e-12)

    def test_parabola_escape_is_no_intersection(self):
        bnd = Parabola(focal=1.0, x_max=1.0)
        # steep ray that would only meet the ideal parabola beyond the extent
        p = np.array([0.0, -0.5])
        assert np.isnan(bnd.line_intersections(Lines.through(p, 0.1).s, 0.1)).all()
        assert_no_reflection(reflect_from(bnd, p, 0.1))

    def test_line_point_consistency(self, circle, ellipse, generic_curve):
        rng = np.random.default_rng(11)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 20):
                hit = event.hit_point
                assert abs(float(np.dot(hit, line.w)) - line.s) < 1e-9


class TestReflect:
    def test_normal_incidence_bounces_back(self, circle):
        event = reflect(circle, 0.0, 0.0, -0.5)
        assert event.beta == pytest.approx(0.0, abs=1e-12)
        assert event.line_out.alpha == pytest.approx(math.pi)
        assert event.line_out.s == pytest.approx(0.0, abs=1e-12)

    def test_angle_rule_matches_vector_reflection(self, circle, ellipse, generic_curve):
        # oracle: specular reflection of v about the hit normal
        rng = np.random.default_rng(5)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 40):
                fr = boundary.frame(event.tau0)
                v_in = line.v
                v_spec = v_in - 2.0 * float(np.dot(v_in, fr.normal)) * fr.normal
                np.testing.assert_allclose(event.line_out.v, v_spec, atol=1e-9)
                # alpha2 - alpha1 - pi = 2 beta (mod 2 pi)
                lhs = (event.line_out.alpha - line.alpha - math.pi) % (2 * math.pi)
                rhs = (2.0 * event.beta) % (2 * math.pi)
                assert min(abs(lhs - rhs), 2 * math.pi - abs(lhs - rhs)) < 1e-9

    def test_sin_beta_identity(self, circle, generic_curve):
        rng = np.random.default_rng(17)
        for boundary in (circle, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 25):
                assert math.sin(event.beta) == pytest.approx(
                    float(np.dot(line.v, event.tangent)), abs=1e-12
                )

    def test_outgoing_offset_consistent(self, circle, ellipse, parabola, generic_curve):
        rng = np.random.default_rng(3)
        for boundary in (circle, ellipse, parabola, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 25):
                s2 = float(np.dot(event.hit_point, event.line_out.w))
                assert s2 == pytest.approx(event.line_out.s, abs=1e-9)

    def test_ellipse_focus_to_focus(self):
        ell = Ellipse(2.0, 1.0)
        c = math.sqrt(ell.a**2 - ell.b**2)
        f1 = np.array([-c, 0.0])
        f2 = np.array([c, 0.0])
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(40):
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            event = reflect_from(ell, f1, alpha)
            # a ray from an interior focus always leaves the mirror steeply
            assert event.ok
            # the reflected line passes through the other focus
            d = abs(float(np.dot(f2, event.line_out.w)) - event.line_out.s)
            assert d < 1e-6
            found += 1
        assert found == 40

    def test_reflection_reciprocity(self, circle, ellipse, parabola, generic_curve):
        # reflecting the reversed outgoing ray reproduces the reversed incoming
        rng = np.random.default_rng(29)
        for boundary in (circle, ellipse, parabola, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 25):
                back_start = event.hit_point + 0.3 * event.line_out.v
                back = reflect_from(boundary, back_start, event.line_out.alpha + math.pi)
                expect = reversed_line(line)
                assert back.line_out.s == pytest.approx(expect.s, abs=1e-8)
                diff = (back.line_out.alpha - expect.alpha) % (2 * math.pi)
                assert min(diff, 2 * math.pi - diff) < 1e-8

    @pytest.mark.parametrize("name", ["circle", "ellipse", "parabola", "generic_curve"])
    def test_one_ray_matches_reference(self, name, request):
        # scalar inputs give a 0-d batch that reflects as the per-ray
        # reference does: an admitted ray, a miss and a graze.  Equal up to
        # rounding: the reference takes its dot products on floats and its
        # unit vectors from math.sin and math.cos.
        boundary = request.getfixturevalue(name)
        (line, p, _), = random_admissible_events(boundary, np.random.default_rng(71), 1)
        rays = reflect(boundary, line.s, line.alpha, line.coord_of(p), jacobian=True)
        event = reflect_one(boundary, line, p)
        assert rays.ok.shape == ()
        for got, want in ((rays.tau0, event.tau0), (rays.beta, event.beta),
                          (rays.line_out.s, event.line_out.s),
                          (rays.alpha2_raw, event.alpha2_raw),
                          (rays.hit_point, event.hit_point), (rays.jacobian, event.jacobian),
                          (conjugate_point(p, rays), conjugate_point(p, event))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # a line far outside the mirror, and one that crosses it at the
        # reference hit 0.01 rad off the tangent
        tangent_alpha = math.atan2(event.tangent[1], event.tangent[0])
        miss = Line(10.0, line.alpha)
        graze = Line.through(event.hit_point, tangent_alpha + 0.01)
        assert np.isnan(boundary.line_intersections(miss.s, miss.alpha)).all()
        assert not np.isnan(boundary.line_intersections(graze.s, graze.alpha)).all()
        for other in (miss, graze):
            start = point_at(other, -20.0)
            with pytest.raises(NoReflection):
                reflect_one(boundary, other, start)
            assert_no_reflection(reflect(boundary, other.s, other.alpha, other.coord_of(start),
                                         jacobian=True))


CONVEX_MIRRORS = {
    "circle_r0.7": Circle(0.7),
    "circle_r1": Circle(1.0),
    "circle_r2.5": Circle(2.5),
    "ellipse_a>b": Ellipse(1.0, 0.75),
    "ellipse_a<b": Ellipse(0.6, 1.3),
}


def convex_mirror_rays(boundary, rng, n):
    """(s, alpha, t_from) of 3 n seeded rays off a mirror star-shaped about
    the origin: n from sources inside it, n from sources outside it and n
    along nearly grazing chords, from sources before, on and past them."""
    def curve_points(scale):
        return boundary.frame_u(rng.uniform(0.0, 2.0 * math.pi, n)).point * scale[:, None]

    inside = curve_points(0.999 * np.sqrt(rng.uniform(0.0, 1.0, n)))
    outside = curve_points(rng.uniform(1.001, 3.0, n))
    alpha = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
    v, w = unit_vectors(alpha)
    sources = np.concatenate([inside, outside])
    s, t_from = dot2(sources, w), dot2(sources, v)
    # chords a little inside a tangent line, crossing it at up to 0.1 rad,
    # so that some leave the mirror on either side of GRAZING_COS
    fr = boundary.frame_u(rng.uniform(0.0, 2.0 * math.pi, n))
    size = float(np.max(np.abs(fr.point)))
    on_chord = fr.point - (size * rng.uniform(0.0, 1e-3, n))[:, None] * fr.normal
    graze = (np.arctan2(fr.tangent[:, 1], fr.tangent[:, 0]) + rng.uniform(-0.1, 0.1, n)
             + math.pi * rng.integers(0, 2, n))
    gv, gw = unit_vectors(graze)
    return (np.concatenate([s, dot2(on_chord, gw)]), np.concatenate([alpha, graze]),
            np.concatenate([t_from, dot2(on_chord, gv) + size * rng.uniform(-2.0, 0.5, n)]))


class TestExitCrossings:
    @pytest.mark.parametrize("name", sorted(CONVEX_MIRRORS))
    def test_reflect_matches_every_crossing_selection(self, name):
        # a convex mirror offers only the far crossing of each chord, and
        # reflect gives bit for bit what the generic selection over both
        # crossings gives
        boundary = CONVEX_MIRRORS[name]
        rng = np.random.default_rng(sorted(CONVEX_MIRRORS).index(name) + 700)
        s, alpha, t_from = convex_mirror_rays(boundary, rng, 4000)
        crossings = boundary.line_intersections(s, alpha)
        exits = boundary.exit_crossings(s, alpha)
        assert exits.shape == s.shape + (1,)
        assert np.array_equal(exits, crossings[:, 1:], equal_nan=True)
        # the near crossing can never be an admitted exit
        near = boundary.frame_u(crossings[:, 0])
        assert not np.any(dot2(near.normal, unit_vectors(alpha)[0]) >= GRAZING_COS)

        got = reflect(boundary, s, alpha, t_from, jacobian=True)
        want = reflect_every_crossing(boundary, s, alpha, t_from)
        assert 0.2 < np.mean(got.ok) < 0.8
        cos_b = np.cos(got.beta[got.ok])
        assert np.sum(cos_b < 2.0 * GRAZING_COS) > 100
        for field in ("ok", "u", "tau0", "beta", "hit_point", "tangent", "kappa",
                      "jacobian", "t_hit"):
            assert np.array_equal(getattr(got, field), getattr(want, field),
                                  equal_nan=True), field
        for line in ("line_in", "line_out"):
            for field in ("s", "alpha", "v", "w"):
                assert np.array_equal(getattr(getattr(got, line), field),
                                      getattr(getattr(want, line), field),
                                      equal_nan=True), (line, field)


def scalar_u_of_tau(curve, tau):
    """The arc-length inversion of a closed curve one value at a time:
    Newton on tau_of_u from the table's linear interpolation, at most 4
    steps, stopping once a step falls below 1e-15."""
    grid, cum = curve._arclength_table
    tau = tau % float(cum[-1])
    u = float(np.interp(tau, cum, grid))
    for _ in range(4):
        du = (float(curve.tau_of_u(u)) - tau) / float(curve._speed(u))
        u -= du
        if abs(du) < 1e-15:
            break
    return u % curve._period


class TestSampledPolygon:
    def test_matches_scalar_inversion(self):
        # the batched polygon against one arc-length inversion per vertex;
        # the crossing test and the margin's vertex distances then agree
        from scipy.spatial import cKDTree

        curve = SampledCurve(star_curve_points())
        taus = np.linspace(0.0, curve.length, 1024, endpoint=False)
        reference = np.array([curve.frame_u(scalar_u_of_tau(curve, t)).point for t in taus])
        np.testing.assert_allclose(curve._polygon, reference, rtol=0.0, atol=1e-12)
        for n in (32, 64, 128):
            X, Y = GridImage.zeros(n, 1.2).meshgrid()
            queries = np.column_stack([X.ravel(), Y.ravel()])
            inside = chunked_points_in_polygon(reference, queries).reshape(X.shape)
            assert 0 < inside.sum() < inside.size
            np.testing.assert_array_equal(curve.inside(X, Y), inside)
            margin = 2.0 * 2.4 / n
            near = (cKDTree(reference).query(queries)[0] < margin).reshape(X.shape)
            np.testing.assert_array_equal(curve.inside(X, Y, margin), inside & ~near)


    def test_band_rule_matches_chunked_rule(self):
        # each edge meets only the points of its own y-band; the booleans
        # are those of testing every point against every edge
        poly = SampledCurve(star_curve_points())._polygon
        X, Y = GridImage.zeros(64, 1.2).meshgrid()
        grid = np.column_stack([X.ravel(), Y.ravel()])
        rng = np.random.default_rng(71)
        scattered = rng.uniform(-1.3, 1.3, size=(5000, 2))
        # points level with a vertex sit on the closed end of one band and
        # the open end of the next; every third one is the vertex itself
        heights = np.repeat(poly[:, 1], 3)
        level = np.column_stack([rng.uniform(-1.3, 1.3, heights.size), heights])
        level[::3, 0] = poly[:, 0]
        for pts in (grid, scattered, level):
            inside = _points_in_polygon(poly, pts)
            assert 0 < inside.sum() < len(pts)
            np.testing.assert_array_equal(inside, chunked_points_in_polygon(poly, pts))


class TestJacobian:
    def test_normal_incidence_entries(self, circle):
        # (s, a) = (0, 0) hitting (1, 0): k_s = -1, k_a = -1, kappa = -1
        event = reflect(circle, 0.0, 0.0, -0.5, jacobian=True)
        J = event.jacobian
        assert J[1, 0] == pytest.approx(2.0)  # da2/ds1 = 2 kappa k_s
        assert J[1, 1] == pytest.approx(1.0)  # da2/da1 = 2 kappa k_a - 1
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["circle", "ellipse", "parabola", "generic_curve"])
    def test_determinant_is_one(self, name, request):
        boundary = request.getfixturevalue(name)
        rng = np.random.default_rng(41)
        for line, p, event in random_admissible_events(boundary, rng, 200):
            assert abs(np.linalg.det(event.jacobian) - 1.0) < 1e-6

    @pytest.mark.parametrize("name", ["circle", "ellipse", "parabola", "generic_curve"])
    def test_matches_finite_differences(self, name, request):
        boundary = request.getfixturevalue(name)
        rng = np.random.default_rng(43)
        for line, p, event in random_admissible_events(boundary, rng, 30):
            J = reflection_jacobian(event)
            J_fd = fd_jacobian(boundary, line, p)
            rel = np.linalg.norm(J - J_fd) / np.linalg.norm(J)
            assert rel < 1e-4

    def test_disk_closed_form(self, circle):
        # on the unit disk chi has the triangular form
        # [[1, 0], [2/cos(beta), 1]] since the offset s is conserved
        rng = np.random.default_rng(47)
        for line, p, event in random_admissible_events(circle, rng, 50):
            assert event.line_out.s == pytest.approx(line.s, abs=1e-9)
            cb = math.cos(event.beta)
            np.testing.assert_allclose(
                event.jacobian, [[1.0, 0.0], [2.0 / cb, 1.0]], atol=1e-9
            )
