import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brokenray.conjugate import (
    ChainStatus,
    Covector,
    Translation,
    caustic_curve,
    conjugate_chain,
    conjugate_point,
    is_radial,
    polygon_artifact_radii,
    source_derivatives,
    tangent_conjugate_locus,
)
from brokenray.errors import CenterSource, EmptyCaustic
from brokenray.io import save_chain_csv
from brokenray.geometry import (
    Circle,
    Ellipse,
    Lines,
    Parabola,
    reflect,
    unit_vectors,
)

from conftest import (
    chain_entries,
    chain_entry,
    conjugate_covector,
    contains,
    depth_first_caustic,
    locus_residual,
    parabola_criterion,
    per_sample_tangent_locus,
    random_admissible_events,
    reflect_from,
    reversed_line,
)


def no_point(q):
    """Whether conjugate_point found no conjugate point (a NaN pair)."""
    assert q.shape == (2,)
    return bool(np.isnan(q).all())


def envelope_intersection(boundary, p, alpha, dalpha=1e-4):
    """Independent caustic oracle: intersection of two infinitesimally
    separated reflected rays from the same source, centered on alpha."""
    e1 = reflect_from(boundary, p, alpha - dalpha / 2.0)
    e2 = reflect_from(boundary, p, alpha + dalpha / 2.0)
    A = np.column_stack([e1.line_out.v, -e2.line_out.v])
    t, _ = np.linalg.solve(A, e2.hit_point - e1.hit_point)
    return e1.hit_point + t * e1.line_out.v


class TestConjugatePoint:
    def test_center_source_is_self_conjugate(self, circle):
        p = np.array([0.0, 0.0])
        for alpha in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            event = reflect_from(circle, p, alpha)
            q = conjugate_point(p, event)
            np.testing.assert_allclose(q, [0.0, 0.0], atol=1e-12)

    def test_axis_example(self, circle):
        # p = (-0.5, 0), ray along +x: t1 = 1.5, d a2/d a1 = 2, dt2 = 0.75
        p = np.array([-0.5, 0.0])
        event = reflect_from(circle, p, 0.0)
        da2, _ = source_derivatives(p, event)
        assert da2 == pytest.approx(2.0)
        q = conjugate_point(p, event)
        np.testing.assert_allclose(q, [0.25, 0.0], atol=1e-12)
        # envelope oracle
        q_env = envelope_intersection(circle, p, 0.0)
        assert np.linalg.norm(q - q_env) < 1e-3

    def test_mirror_relation(self, circle, ellipse, generic_curve):
        # dt2 = (d a2/d a1)^-1 * t1 whenever the conjugate point exists
        rng = np.random.default_rng(7)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 30):
                da2, _ = source_derivatives(p, event)
                if abs(da2) < 1e-6:
                    continue
                q = conjugate_point(p, event)
                t1 = event.t_hit - line.coord_of(p)
                if da2 > 0:
                    assert not no_point(q)
                    dt2 = float(np.dot(q - event.hit_point, event.line_out.v))
                    assert dt2 == pytest.approx(t1 / da2, rel=1e-9)
                else:
                    assert no_point(q)

    def test_total_derivative_closed_form(self, circle, ellipse, generic_curve):
        # d a2/d a1 = 2 kappa t1 / <w(a1), gamma'> - 1 along a fixed source
        rng = np.random.default_rng(19)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 20):
                da2, _ = source_derivatives(p, event)
                t1 = event.t_hit - line.coord_of(p)
                wg = float(np.dot(line.w, event.tangent))
                assert da2 == pytest.approx(2.0 * event.kappa * t1 / wg - 1.0, rel=1e-9)

    def test_base_point_derivative_is_minus_t1(self, circle, generic_curve):
        # <d q0/d a1, w(a2)> = -t1 in the reflection case
        rng = np.random.default_rng(20)
        for boundary in (circle, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 20):
                da2, ds2 = source_derivatives(p, event)
                v2 = unit_vectors(event.alpha2_raw)[0]
                dq0_w2 = ds2 + float(np.dot(event.hit_point, v2)) * da2
                t1 = event.t_hit - line.coord_of(p)
                assert dq0_w2 == pytest.approx(-t1, rel=1e-9)

    def test_envelope_oracle_random(self, circle, ellipse, generic_curve):
        rng = np.random.default_rng(31)
        checked = 0
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 25):
                da2, _ = source_derivatives(p, event)
                if da2 < 0.1:
                    continue
                q = conjugate_point(p, event)
                dt2 = float(np.dot(q - event.hit_point, event.line_out.v))
                if dt2 > 3.0:
                    continue  # far-field points degrade the two-ray oracle
                q_env = envelope_intersection(boundary, p, line.alpha)
                assert np.linalg.norm(q - q_env) < 1e-3
                checked += 1
        assert checked >= 30

    def test_perturbation_stability(self, circle, ellipse, generic_curve):
        # sliding q0 along v(a2) by |eps| < 0.01 keeps the existence answer
        rng = np.random.default_rng(37)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 15):
                base = no_point(conjugate_point(p, event))
                for eps in (-0.01, -0.003, 0.003, 0.01):
                    assert no_point(conjugate_point(p, event, q0_offset=eps)) == base

    def test_conjugacy_reciprocity(self, circle, ellipse, generic_curve):
        # if q is conjugate to p along nu, p is conjugate to q along
        # the reversed broken ray
        rng = np.random.default_rng(41)
        for boundary in (circle, ellipse, generic_curve):
            count = 0
            for line, p, event in random_admissible_events(boundary, rng, 25):
                q = conjugate_point(p, event)
                if no_point(q):
                    continue
                dt2 = float(np.dot(q - event.hit_point, event.line_out.v))
                if dt2 < 0.05:
                    continue
                back = reflect_from(boundary, q, event.line_out.alpha + math.pi)
                if np.linalg.norm(back.hit_point - event.hit_point) > 1e-6:
                    continue  # reversed ray reflects off a different arc first
                p_back = conjugate_point(q, back)
                assert not no_point(p_back)
                assert np.linalg.norm(p_back - p) < 1e-6
                count += 1
            assert count >= 5

    def test_parabola_focus_has_no_conjugates(self, parabola):
        # source at the focus: reflected rays are parallel, never focus
        p = np.array([0.0, -1.0])
        rng = np.random.default_rng(43)
        tried = 0
        for _ in range(60):
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            event = reflect_from(parabola, p, alpha)
            if not event.ok:
                continue
            tried += 1
            da2, _ = source_derivatives(p, event)
            if abs(da2) < 1e-9:
                continue
            assert no_point(conjugate_point(p, event))
        assert tried > 20

    @pytest.mark.parametrize("x0, da2", [(0.7, -0.4), (0.5, 0.0)])
    def test_no_point_behind_or_at_infinity(self, circle, x0, da2):
        # from (x0, 0) along +x: d a2/d a1 = 1 - 2 x0
        p = np.array([x0, 0.0])
        event = reflect_from(circle, p, 0.0)
        assert source_derivatives(p, event)[0] == pytest.approx(da2, abs=1e-15)
        assert no_point(conjugate_point(p, event))

    def test_translation_conjugate(self):
        p = np.array([0.3, -0.2])
        line = Lines.through(p, 1.1)
        tr = Translation(offset=0.6, line_in=line)
        q = conjugate_point(p, tr)
        np.testing.assert_allclose(q, p + 0.6 * unit_vectors(1.1)[1], atol=1e-12)
        assert contains(tr.line_out, q, tol=1e-9)


class TestConjugateCovector:
    def test_circle_example(self, circle):
        # ((-0.5, 0), lam*(0, 1)) on the line (s=0, alpha=0):
        # eta = 2*lam*w(pi) = -2*lam*(0, 1) at (0.25, 0)
        lam = 0.7
        cv = Covector(np.array([-0.5, 0.0]), lam * np.array([0.0, 1.0]))
        event = reflect(circle, 0.0, 0.0, -0.5, jacobian=True)
        out = conjugate_covector(cv, event)
        np.testing.assert_allclose(out.x, [0.25, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.xi, [0.0, -2.0 * lam], atol=1e-12)

    def test_magnitude_ratio_is_da2(self, circle, ellipse, generic_curve):
        # det(d chi) = 1, so |eta| / |xi| = |d a2/d a1|
        rng = np.random.default_rng(47)
        for boundary in (circle, ellipse, generic_curve):
            for line, p, event in random_admissible_events(boundary, rng, 20):
                cv = Covector(p, 1.3 * line.w)
                out = conjugate_covector(cv, event)
                da2, _ = source_derivatives(p, event)
                if out is None:
                    assert da2 <= 0
                    continue
                assert out.magnitude / cv.magnitude == pytest.approx(abs(da2), rel=1e-9)

    def test_non_conormal_rejected(self, circle):
        cv = Covector(np.array([-0.5, 0.0]), np.array([1.0, 1.0]))
        event = reflect(circle, 0.0, 0.0, -0.5, jacobian=True)
        with pytest.raises(ValueError):
            conjugate_covector(cv, event)

    def test_translation_preserves_covector(self):
        p = np.array([0.1, 0.4])
        line = Lines.through(p, 0.3)
        cv = Covector(p, -2.0 * line.w)
        out = conjugate_covector(cv, Translation(offset=0.6, line_in=line))
        np.testing.assert_allclose(out.x, p + 0.6 * line.w, atol=1e-12)
        np.testing.assert_allclose(out.xi, cv.xi, atol=1e-15)


class TestCaustic:
    def test_center_caustic_degenerates(self, circle):
        cc = caustic_curve(np.array([0.0, 0.0]), circle, n_samples=64)
        pts = np.array([cp.point for cp in cc.points])
        assert np.max(np.linalg.norm(pts, axis=1)) < 1e-9

    def test_matches_envelope_oracle(self, circle):
        p = np.array([0.5, 0.0])
        cc = caustic_curve(p, circle, n_samples=128)
        for cp in cc.points[::5]:
            q_env = envelope_intersection(circle, p, cp.alpha)
            assert np.linalg.norm(cp.point - q_env) < 1e-3

    def test_parabola_conjugate_region(self, parabola):
        # source at (0, -3): conjugate points exactly for hits |x| < 2
        p = np.array([0.0, -3.0])
        rng = np.random.default_rng(53)
        for _ in range(200):
            x_hit = rng.uniform(-3.4, 3.4)
            target = np.array([x_hit, -(x_hit**2) / 4.0])
            d = target - p
            alpha = math.atan2(d[1], d[0])
            event = reflect_from(parabola, p, alpha)
            if not event.ok:
                continue
            if abs(event.hit_point[0] - x_hit) > 1e-9:
                continue
            da2, _ = source_derivatives(p, event)
            if abs(da2) < 1e-9:
                continue
            exists = not no_point(conjugate_point(p, event))
            assert exists == (x_hit**2 < 4.0)
            assert exists == parabola_criterion(1.0, 3.0, x_hit)

    def test_refinement_tightens_gaps(self, circle):
        p = np.array([0.5, 0.0])
        coarse = caustic_curve(p, circle, n_samples=60)
        fine = caustic_curve(p, circle, n_samples=60, refine_dist=0.02)
        assert len(fine.points) > len(coarse.points)
        gaps = [
            np.linalg.norm(seg[i + 1] - seg[i])
            for seg in fine.segments()
            for i in range(len(seg) - 1)
        ]
        assert np.median(gaps) < 0.02

    def test_empty_caustic(self, parabola):
        # ray family pointed away from the mirror: nothing reflects
        with pytest.raises(EmptyCaustic):
            caustic_curve(
                np.array([0.0, -1.0]), parabola, alpha_range=(0.2, 0.8), n_samples=8
            )


SQUARE_ORBIT = math.cos(math.pi / 4.0)
CAUSTIC_CASES = {
    # the AC-3 source, and a source on the square-orbit radius
    "circle-ac3": (Circle(1.0), (0.5, 0.0), 60, 2.0 / 32),
    "circle-square-orbit": (Circle(1.0), (SQUARE_ORBIT * math.cos(0.7),
                                         SQUARE_ORBIT * math.sin(0.7)), 90, 2.0 / 32),
    "ellipse": (Ellipse(1.4, 0.9), (0.3, 0.2), 60, 2.0 / 32),
    "parabola": (Parabola(focal=1.0, x_max=4.0), (0.0, -3.0), 60, 0.05),
}

INSIDE_CASES = {
    **CAUSTIC_CASES,
    # the AC-3 experiment's caustic at n = 256 (refine_dist two pixels)
    "circle-ac3-n256": (Circle(1.0), (0.5, 0.0), 720, 2.0 * (2.0 / 256)),
    # the disk_landweber benchmark source at one of its seeds' positions
    "circle-disk-landweber": (Circle(1.0), (SQUARE_ORBIT * math.cos(7 * math.pi / 30),
                                            SQUARE_ORBIT * math.sin(7 * math.pi / 30)),
                              360, 2.0 / 32),
}


class TestBatchedCaustic:
    @pytest.mark.parametrize("case", sorted(CAUSTIC_CASES))
    def test_matches_depth_first_oracle(self, case):
        boundary, p, n, refine = CAUSTIC_CASES[case]
        p = np.array(p)
        alphas, q, t, breaks, unrefined = depth_first_caustic(p, boundary, n, refine)
        cc = caustic_curve(p, boundary, n_samples=n, refine_dist=refine)
        np.testing.assert_array_equal([cp.alpha for cp in cc.points], alphas)
        assert cc.breaks == breaks
        assert (cc.unrefined_outside, cc.refine_dist) == (unrefined, refine)
        got_q = np.array([cp.point for cp in cc.points])
        got_t = np.array([cp.t for cp in cc.points])
        # q moves as 1/(d a2/d a1), so its rounding grows as |q|^2
        reach = np.linalg.norm(q, axis=1)
        assert np.all(np.linalg.norm(got_q - q, axis=1) <= 1e-12 * (1.0 + reach**2))
        assert np.all(np.abs(got_t - t) <= 1e-12 * (1.0 + t**2))

    @pytest.mark.parametrize("case", [
        *sorted(CAUSTIC_CASES),
        pytest.param("circle-ac3-n256", marks=pytest.mark.slow),
        "circle-disk-landweber",
    ])
    def test_keeps_every_inside_point_of_refining_everywhere(self, case):
        # refining only intervals with an end inside the mirror must find
        # every inside point that refining every long interval finds
        boundary, p, n, refine = INSIDE_CASES[case]
        p = np.array(p)
        alphas, q, t, _, _ = depth_first_caustic(p, boundary, n, refine, refine_outside=True)
        inside = boundary.inside(q[:, 0], q[:, 1])
        assert inside.any()
        cc = caustic_curve(p, boundary, n_samples=n, refine_dist=refine)
        kept = [cp for cp in cc.points if not cp.outside_domain]
        np.testing.assert_array_equal([cp.alpha for cp in kept], alphas[inside])
        got_q = np.array([cp.point for cp in kept])
        got_t = np.array([cp.t for cp in kept])
        q, t = q[inside], t[inside]
        reach = np.linalg.norm(q, axis=1)
        assert np.all(np.linalg.norm(got_q - q, axis=1) <= 1e-12 * (1.0 + reach**2))
        assert np.all(np.abs(got_t - t) <= 1e-12 * (1.0 + t**2))
        assert len(cc.points) <= len(alphas)

    def test_flags_points_outside_every_mirror(self):
        ell = Ellipse(1.4, 0.9)
        cc = caustic_curve(np.array([0.3, 0.2]), ell, n_samples=60, refine_dist=2.0 / 32)
        q = np.array([cp.point for cp in cc.points])
        outside = (q[:, 0] / 1.4) ** 2 + (q[:, 1] / 0.9) ** 2 > 1.0
        assert 0 < outside.sum() < len(q)
        np.testing.assert_array_equal([cp.outside_domain for cp in cc.points], outside)
        par = Parabola(focal=1.0, x_max=4.0)
        cc = caustic_curve(np.array([0.0, -3.0]), par, n_samples=60, refine_dist=0.05)
        q = np.array([cp.point for cp in cc.points])
        outside = (q[:, 1] > -q[:, 0] ** 2 / 4.0) | (np.abs(q[:, 0]) > 4.0)
        assert 0 < outside.sum() < len(q)
        np.testing.assert_array_equal([cp.outside_domain for cp in cc.points], outside)


class TestTangentLocus:
    @pytest.mark.parametrize("p", [(0.5, 0.0), (0.3, -0.55)])
    def test_matches_per_sample_oracle(self, p):
        p = np.array(p)
        alpha, t, pts = per_sample_tangent_locus(p, 1.0, 2048)
        locus = tangent_conjugate_locus(p, 1.0)
        np.testing.assert_array_equal(locus.alpha, alpha)
        assert np.all(np.abs(locus.t - t) <= 1e-12 * (1.0 + np.abs(t)))
        reach = np.linalg.norm(pts, axis=1)
        assert np.all(np.linalg.norm(locus.points - pts, axis=1) <= 1e-12 * (1.0 + reach))

    def test_zero_kinds_for_offset_source(self):
        locus = tangent_conjugate_locus(np.array([0.5, 0.0]), radius=1.0)
        kinds = sorted(z.kind for z in locus.zeros)
        assert kinds == [
            "source_perpendicular",
            "source_perpendicular",
            "through_center",
        ]
        assert all(z.simple for z in locus.zeros)
        # the through-center zero sits at alpha = pi (alpha = 0 is off the locus)
        tc = [z for z in locus.zeros if z.kind == "through_center"]
        assert tc[0].alpha == pytest.approx(math.pi)

    def test_locus_residual_vanishes(self):
        p = np.array([0.5, 0.0])
        locus = tangent_conjugate_locus(p, radius=1.0, n_samples=256)
        for a, t in zip(locus.alpha, locus.t):
            assert abs(locus_residual(p, 1.0, a, t)) < 1e-9

    def test_sin_beta_derivative_identity(self):
        # d(sin beta)/d alpha = t1 - cos beta on the unit circle
        p = np.array([0.5, 0.0])
        from brokenray.conjugate import _disk_pencil

        for a in np.linspace(0.1, 6.0, 25):
            h = 1e-6
            _, sb_p, _ = _disk_pencil(p, 1.0, a + h)
            _, sb_m, _ = _disk_pencil(p, 1.0, a - h)
            t1, _, cb = _disk_pencil(p, 1.0, a)
            assert (sb_p - sb_m) / (2 * h) == pytest.approx(t1 - cb, abs=1e-6)

    def test_center_source_raises(self):
        with pytest.raises(CenterSource):
            tangent_conjugate_locus(np.array([0.0, 0.0]))


class TestParabolaCriterion:
    def test_three_cases(self):
        # d > a: conjugates iff x0^2 < 4/3 a d
        assert parabola_criterion(1.0, 3.0, 0.0) is True
        assert parabola_criterion(1.0, 3.0, 1.9) is True
        assert parabola_criterion(1.0, 3.0, 2.1) is False
        # d < a: conjugates iff x0^2 > 4/3 a d
        assert parabola_criterion(3.0, 1.0, 0.0) is False
        assert parabola_criterion(3.0, 1.0, 3.0) is True
        # d = a (source at focus): never
        for x0 in (0.0, 0.5, 1.7, 4.0):
            assert parabola_criterion(1.0, 1.0, x0) is False


class TestRadial:
    def test_examples(self):
        assert is_radial(Covector([0.3, 0.0], [1.0, 0.0])) is True
        assert is_radial(Covector([0.3, 0.0], [-2.0, 0.0])) is True
        assert is_radial(Covector([0.3, 0.1], [1.0, 0.0])) is False
        assert is_radial(Covector([0.3, 0.0], [0.0, 1.0])) is False
        assert is_radial(Covector([0.0, 0.0], [0.3, 0.9])) is True

    def test_midpoint_construction(self):
        # oracle: x radial iff x is the midpoint of the chord through x
        # perpendicular to xi (= foot of the center's projection)
        rng = np.random.default_rng(59)
        for _ in range(100):
            x = rng.uniform(-0.6, 0.6, size=2)
            ang = rng.uniform(0.0, 2 * math.pi)
            xi = np.array([math.cos(ang), math.sin(ang)])
            v = np.array([xi[1], -xi[0]])  # chord direction
            midpoint = x - float(np.dot(x, v)) * v
            geom = bool(np.linalg.norm(midpoint - x) < 1e-9)
            assert is_radial(Covector(x, xi)) == geom


class TestChains:
    def test_radial_chain_complete(self):
        cv = Covector([0.3, 0.0], [1.0, 0.0])
        chain, entries = chain_entries(cv, 1.0, 16)
        assert chain.is_complete
        for e in entries:
            assert abs(e.a) < 1e-9
            assert not e.outside_domain
        assert {e.index for e in entries} == set(range(-16, 17))

    def test_a_recurrence_from_half(self):
        # a0 = 0.5 on the horizontal diameter: forward 1/a = 2, 4, 6, ...;
        # backward 1/a = 0 means escape at index -1
        cv = Covector([-0.5, 0.0], [0.0, 1.0])
        chain, entries = chain_entries(cv, 1.0, 8)
        assert chain_entry(entries, 0).a == pytest.approx(0.5)
        for k in range(1, 9):
            assert 1.0 / chain_entry(entries, k).a == pytest.approx(2.0 * (k + 1), rel=1e-9)
        assert chain.status_positive.kind == "truncated"
        assert chain.status_negative.kind == "incomplete"
        assert chain.status_negative.index == -1
        assert chain_entry(entries, -1) is None

    def test_truncation_carries_the_walks_sign(self, tmp_path):
        # a nearly radial covector escapes neither way within 8 bounces:
        # each walk stops at the index of its last entry, sign included
        cv = Covector([0.3, 0.0], [1.0, 1e-3])
        for with_entries in (True, False):
            chain = conjugate_chain(cv, radius=1.0, max_index=8, with_entries=with_entries)
            assert chain.status_positive == ChainStatus("truncated", 8)
            assert chain.status_negative == ChainStatus("truncated", -8)
        chain, entries = chain_entries(cv, 1.0, 8)
        assert [e.index for e in entries] == list(range(-8, 9))
        save_chain_csv(tmp_path / "chain.csv", chain)
        tail = (tmp_path / "chain.csv").read_text().splitlines()[-2:]
        assert tail == ["# status_positive,truncated,8", "# status_negative,truncated,-8"]

    def test_nonradial_always_incomplete(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, size=2)
            ang = rng.uniform(0.0, 2 * math.pi)
            cv = Covector(x, [math.cos(ang), math.sin(ang)])
            chain = conjugate_chain(cv, radius=1.0, max_index=64)
            if chain.grazing:
                continue
            if is_radial(cv):
                assert chain.is_complete
            else:
                assert not chain.is_complete
                assert "incomplete" in (
                    chain.status_positive.kind,
                    chain.status_negative.kind,
                )

    def test_chain_consistency_with_covector_transport(self, circle):
        # consecutive entries are conjugate covectors along the shared ray
        cv = Covector([0.31, -0.12], [0.6, 1.1])
        _, entries = chain_entries(cv, 1.0, 6)
        by_index = {e.index: e for e in entries}
        for i in sorted(by_index):
            if i + 1 not in by_index:
                continue
            prev, nxt = by_index[i], by_index[i + 1]
            if i >= 0:
                incoming = nxt.line_in
            else:
                # negative entries were reached walking backward: the
                # forward ray retraces their outgoing line
                incoming = reversed_line(prev.line_out)
            event = reflect(circle, incoming.s, incoming.alpha,
                            incoming.coord_of(prev.covector.x), jacobian=True)
            out = conjugate_covector(prev.covector, event)
            assert out is not None
            assert np.linalg.norm(out.x - nxt.covector.x) < 1e-6
            assert np.linalg.norm(out.xi - nxt.covector.xi) < 1e-6

    def test_entries_stay_on_chords(self, circle):
        cv = Covector([0.2, 0.35], [1.0, 0.2])
        _, entries = chain_entries(cv, 1.0, 10)
        for e in entries:
            # the covector is conormal to the chord it sits on: the anchor
            # chord for index 0, the outgoing chord otherwise
            host = e.line_in if e.index == 0 else e.line_out
            assert abs(float(np.dot(e.covector.unit(), host.v))) < 1e-9

    def test_columns_match_per_entry_walk(self):
        # the arrays against one ChainEntry per bounce: statuses, grazing,
        # indices, covectors and the flags bit for bit (in chain_entries)
        cases = [
            (Covector([0.3, 0.0], [1.0, 0.0]), 16),  # radial: complete
            (Covector([-0.5, 0.0], [0.0, 1.0]), 8),  # escapes at -1
            (Covector([0.999, 0.0], [1.0, 0.0]), 8),  # grazing
            (Covector([0.3, 0.0], [1.0, 1e-3]), 8),  # truncated both ways
        ]
        rng = np.random.default_rng(67)
        for _ in range(40):
            ang = rng.uniform(0.0, 2 * math.pi)
            cases.append((Covector(rng.uniform(-0.6, 0.6, size=2),
                                   1.7 * np.array([math.cos(ang), math.sin(ang)])), 64))
        kinds = set()
        for cv, max_index in cases:
            chain, _ = chain_entries(cv, 1.0, max_index)
            kinds |= {chain.status_positive.kind, chain.status_negative.kind,
                      "grazing" if chain.grazing else "crossing"}
        assert kinds == {"complete", "incomplete", "truncated", "grazing", "crossing"}

    def test_grazing_chain_flagged(self):
        # chord hugging the boundary: cos(beta) below the grazing threshold
        x = np.array([0.999, 0.0])
        cv = Covector(x, x / np.linalg.norm(x))
        chain = conjugate_chain(cv, radius=1.0, max_index=8)
        assert chain.grazing
        assert chain.status_positive.kind == "truncated"


class TestPolygonRadii:
    def test_reference_list(self):
        radii = polygon_artifact_radii(5)
        got = [(round(r.radius, 5), r.p, r.q) for r in radii]
        assert got == [
            (0.95106, 10, 1),
            (0.92388, 8, 1),
            (0.86603, 6, 1),
            (0.70711, 4, 1),
            (0.58779, 10, 3),
            (0.38268, 8, 3),
        ]

    def test_square_radius(self):
        radii = polygon_artifact_radii(2)
        assert len(radii) == 1
        assert radii[0].radius == pytest.approx(math.cos(math.pi / 4.0))
        assert (radii[0].p, radii[0].q) == (4, 1)

    @given(st.integers(min_value=2, max_value=12))
    def test_constraints(self, n_max):
        radii = polygon_artifact_radii(n_max)
        assert all(r.p % 2 == 0 for r in radii)  # odd p never contributes
        assert all(r.q % 2 == 1 for r in radii)
        assert all(2 <= 2 * r.q < r.p <= 2 * n_max for r in radii)
        assert all(math.gcd(r.p, r.q) == 1 for r in radii)
        vals = [r.radius for r in radii]
        assert vals == sorted(vals, reverse=True)
        assert len(set(round(v, 12) for v in vals)) == len(vals)
