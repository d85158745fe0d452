import math

import numpy as np
import pytest

from brokenray.errors import DivergenceDetected, EmptyLocus, ZeroReference
from brokenray.geometry import Circle
from brokenray.phantoms import PhantomSpec, render
from brokenray.reconstruct import (
    LandweberConfig,
    artifact_localization,
    error_map,
    fbp,
    landweber,
    relative_error,
    step_size_estimate,
)
from brokenray.transforms import (
    BrokenRayOperator,
    Family,
    GridImage,
    ParallelRayOperator,
    RadonOperator,
    Sinogram,
    SinogramLayout,
    lambda_filter,
    sino_norm,
)


class IdentityOp:
    """Image-sized 'sinogram' operator; forward and adjoint are copies."""

    def __init__(self, n):
        self.img_layout = GridImage.zeros(n)

    def forward(self, f):
        return Sinogram(f.data.copy(), 1.0)

    def adjoint(self, g):
        return self.img_layout.copy_with(g.filled().copy())


class ScaledOp:
    def __init__(self, op, c):
        self._op = op
        self._c = c
        self.img_layout = op.img_layout

    def forward(self, f):
        g = self._op.forward(f)
        return g.copy_with(self._c * g.data)

    def adjoint(self, g):
        f = self._op.adjoint(g)
        return f.copy_with(self._c * f.data)


def small_radon_op(n=48, n_alpha=60):
    return RadonOperator(GridImage.zeros(n), SinogramLayout(n, n_alpha, 1.0))


class TestFBP:
    def test_zero_data(self):
        op = small_radon_op()
        out = fbp(Sinogram.zeros(op.sino_layout), op)
        assert np.all(out.data == 0.0)

    def test_recovers_gaussian(self):
        op = small_radon_op(n=96, n_alpha=180)
        f = render(PhantomSpec.gaussian((0.15, -0.1), 0.12), op.img_layout)
        rec = fbp(op.forward(f), op)
        assert relative_error(f, rec) < 0.06


class TestLandweber:
    def test_identity_operator_geometric_convergence(self):
        rng = np.random.default_rng(1)
        op = IdentityOp(16)
        g = Sinogram(rng.standard_normal((16, 16)), 1.0)
        gamma = 0.25
        cfg = LandweberConfig(step_size=gamma, n_iters=30, use_filter=False)
        res = landweber(g, op, cfg)
        err = np.linalg.norm(res.final.data - g.data)
        bound = (1.0 - gamma) ** 30 * np.linalg.norm(g.data)
        assert err <= bound * (1.0 + 1e-9)

    def test_zero_data_gives_zero_iterates(self):
        op = small_radon_op()
        cfg = LandweberConfig(step_size=1.0, n_iters=5, record_every=1)
        res = landweber(Sinogram.zeros(op.sino_layout), op, cfg)
        assert np.all(res.final.data == 0.0)
        assert all(np.all(s.data == 0.0) for _, s in res.snapshots)

    def test_residual_nonincreasing_with_estimated_step(self):
        op = small_radon_op()
        f = render(PhantomSpec.gaussian((0.2, 0.1), 0.12), op.img_layout)
        g = op.forward(f)
        res = landweber(g, op, LandweberConfig(n_iters=15))
        diffs = np.diff(res.residuals)
        assert np.all(diffs <= 1e-12 + 0.0 * diffs)

    def test_divergence_guard(self):
        op = small_radon_op()
        f = render(PhantomSpec.gaussian((0.2, 0.1), 0.12), op.img_layout)
        g = op.forward(f)
        gamma = 50.0 * step_size_estimate(op)[0]
        with pytest.raises(DivergenceDetected):
            landweber(g, op, LandweberConfig(step_size=gamma, n_iters=40))

    def test_support_mask_idempotent(self):
        op = small_radon_op()
        X, Y = op.img_layout.meshgrid()
        mask = (np.hypot(X, Y) < 0.5).astype(float)
        f = render(PhantomSpec.gaussian((0.0, 0.0), 0.1), op.img_layout)
        g = op.forward(f)
        res = landweber(g, op, LandweberConfig(n_iters=8, support_mask=mask))
        assert np.all(res.final.data[mask == 0.0] == 0.0)

    def test_consistent_visible_data_converges(self):
        # translation-type broken rays with a support cutoff: every
        # singularity is recoverable and the iteration homes in on f
        n = 64
        img = GridImage.zeros(n)
        lay = SinogramLayout(n, 90, 1.0)
        op = ParallelRayOperator(0.6, img, lay)
        X, Y = img.meshgrid()
        mask = (np.hypot(X, Y) < 0.8).astype(float)
        f = render(
            PhantomSpec.coherent((0.0, 0.0), 0.4, sigma=0.15, wavenumber=21.0), img
        )
        f = f.copy_with(f.data * mask)
        g = op.forward(f)
        res = landweber(g, op, LandweberConfig(n_iters=100, support_mask=mask))
        assert relative_error(f, res.final) < 0.15

    def test_zero_start_skips_one_forward(self, monkeypatch):
        # B 0 = 0, so three iterations apply B twice and match, bit for bit,
        # the update that forwards every iterate
        op = BrokenRayOperator(Circle(1.0), Family.half_plane_incoming(0.3),
                               GridImage.zeros(32), SinogramLayout(32, 40, 1.0))
        g = op.forward(render(PhantomSpec.gaussian((0.2, -0.1), 0.1), op.img_layout))
        gamma, _, _ = step_size_estimate(op)
        X, Y = op.img_layout.meshgrid()
        mask = (np.hypot(X, Y) < 0.8).astype(float)
        f, firsts, residuals = op.img_layout.layout_like(), [], []
        for _ in range(3):
            r = g.copy_with(g.filled() - op.forward(f).filled())
            residuals.append(sino_norm(lambda_filter(r, power=0.5)))
            f = f.copy_with((f.data + gamma * op.adjoint(lambda_filter(r)).data) * mask)
            firsts.append(f)
        forward, calls = op.forward, []
        monkeypatch.setattr(op, "forward", lambda x: calls.append(x) or forward(x))
        res = landweber(g, op, LandweberConfig(step_size=gamma, n_iters=3, support_mask=mask))
        assert len(calls) == 2
        assert res.residuals == residuals
        np.testing.assert_array_equal(res.first.data, firsts[0].data)
        np.testing.assert_array_equal(res.final.data, f.data)


class TestStepSize:
    def test_positive_finite(self):
        gamma, _, _ = step_size_estimate(small_radon_op())
        assert gamma > 0.0 and math.isfinite(gamma)

    def test_power_iteration_converged(self):
        _, hist, _ = step_size_estimate(small_radon_op())
        tail = hist[-5:]
        assert (max(tail) - min(tail)) / max(tail) < 0.01

    def test_scaling(self):
        base = small_radon_op()
        g1, _, _ = step_size_estimate(base)
        g2, _, _ = step_size_estimate(ScaledOp(base, 3.0))
        assert g2 == pytest.approx(g1 / 9.0, rel=1e-6)

    def test_one_step_from_the_last_iterate_repeats_gamma(self):
        op = small_radon_op()
        gamma, history, last = step_size_estimate(op)
        assert (gamma, history) == step_size_estimate(op)[:2]
        assert step_size_estimate(op, n_steps=1, start=last)[:2] == (gamma, history[-1:])


class TestErrorMetrics:
    def test_relative_error_trivials(self):
        f = render(PhantomSpec.gaussian((0.0, 0.0), 0.1), GridImage.zeros(32))
        assert relative_error(f, f) == 0.0
        assert relative_error(f, f.copy_with(np.zeros_like(f.data))) == 1.0
        assert relative_error(f, f.copy_with(2.0 * f.data)) == pytest.approx(1.0)

    def test_zero_reference(self):
        z = GridImage.zeros(16)
        with pytest.raises(ZeroReference):
            relative_error(z, z)

    def test_error_map(self):
        f = render(PhantomSpec.gaussian((0.0, 0.0), 0.1), GridImage.zeros(32))
        m = error_map(f, f.copy_with(2.0 * f.data))
        np.testing.assert_allclose(m.data, f.data)


class TestLocalization:
    def test_vacuous_on_zero_error(self):
        err = GridImage.zeros(64)
        locus = np.array([[0.0, 0.0], [0.5, 0.0]])
        score = artifact_localization(
            err, locus, exclude_center=(0.0, 0.0), exclude_radius=2.0
        )
        assert score.vacuous
        assert score.n_pixels == 0

    def test_painted_locus_scores_zero(self):
        err = GridImage.zeros(128)
        theta = np.linspace(0.0, math.pi, 200)
        poly = 0.6 * np.column_stack([np.cos(theta), np.sin(theta)])
        # paint error pixels along the locus
        for x, y in poly:
            ix = int((x - err.x_min) / err.dx)
            iy = int((y - err.y_min) / err.dx)
            err.data[iy, ix] = 1.0
        score = artifact_localization(err, poly, threshold_quantile=0.995)
        assert not score.vacuous
        assert score.mean_distance_px < 0.75

    def test_empty_locus(self):
        with pytest.raises(EmptyLocus):
            artifact_localization(GridImage.zeros(16), [])

    def test_exclusion_removes_true_support(self):
        err = GridImage.zeros(64)
        err.data[30:34, 30:34] = 5.0  # residual at the true location
        err.data[10, 50] = 1.0
        locus = np.array([[err.x_centers[50], err.y_centers[10]]])
        score = artifact_localization(
            err, locus, threshold_quantile=0.99,
            exclude_center=(0.0, 0.0), exclude_radius=0.3,
        )
        assert not score.vacuous
        assert score.mean_distance_px < 0.5
