import math

import numpy as np
import pytest

from brokenray import transforms
from brokenray.errors import SupportViolation
from brokenray.geometry import (
    Circle,
    Ellipse,
    Lines,
    Parabola,
    SampledCurve,
    _ClosedCurve,
    unit_vectors,
)
from brokenray.transforms import (
    BrokenRayOperator,
    Family,
    GridImage,
    ParallelRayOperator,
    RadonOperator,
    Sinogram,
    SinogramLayout,
    image_inner,
    lambda_filter,
    radon,
    radon_adjoint,
    sino_inner,
)
from conftest import (
    Line,
    corner_adjoint,
    corner_forward,
    loop_radon,
    loop_radon_adjoint,
    loop_reflection_table,
    point_at,
    reflect_one,
    rot90_radon,
    rot90_radon_adjoint,
    star_curve_points,
)


def gaussian_image(n=128, half_width=1.0, center=(0.0, 0.0), sigma=0.1, amp=1.0):
    img = GridImage.zeros(n, half_width)
    X, Y = img.meshgrid()
    img.data[:] = amp * np.exp(
        -((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (2.0 * sigma**2)
    )
    return img


def random_image(n, rng, half_width=1.0):
    img = GridImage.zeros(n, half_width)
    img.data[:] = rng.standard_normal((n, n))
    return img


def random_sino(layout, rng):
    return Sinogram(rng.standard_normal((layout.n_alpha, layout.n_s)), layout.s_max)


LAYOUT = SinogramLayout(n_s=128, n_alpha=120, s_max=1.0)


class TestRadon:
    def test_zero_image(self):
        g = radon(GridImage.zeros(64), LAYOUT)
        assert np.all(g.data == 0.0)

    def test_disk_indicator_chords(self):
        n = 256
        img = GridImage.zeros(n)
        X, Y = img.meshgrid()
        r = 0.5
        img.data[:] = (X**2 + Y**2 <= r**2).astype(float)
        g = radon(img, SinogramLayout(n_s=n, n_alpha=8, s_max=1.0))
        s = g.layout.s_centers
        chord = 2.0 * np.sqrt(np.maximum(r**2 - s**2, 0.0))
        tol = 2.0 * img.dx
        for m in range(8):
            inside = np.abs(s) < r - 3 * img.dx
            assert np.max(np.abs(g.data[m][inside] - chord[inside])) < tol

    def test_gaussian_profile(self):
        sigma = 0.1
        img = gaussian_image(n=256, sigma=sigma)
        g = radon(img, SinogramLayout(n_s=128, n_alpha=12, s_max=1.0))
        s = g.layout.s_centers
        expected = math.sqrt(2.0 * math.pi) * sigma * np.exp(-(s**2) / (2 * sigma**2))
        mid = np.argmin(np.abs(s))
        for m in range(12):
            assert g.data[m, mid] == pytest.approx(expected[mid], rel=1e-3)
        # profile matches across the well-sampled region too
        keep = expected > 1e-3
        assert np.max(np.abs(g.data[5][keep] - expected[keep])) < 2e-3

    def test_linearity(self):
        rng = np.random.default_rng(2)
        f1, f2 = random_image(64, rng), random_image(64, rng)
        lay = SinogramLayout(64, 48, 1.0)
        g12 = radon(f1.copy_with(f1.data + f2.data), lay)
        g1, g2 = radon(f1, lay), radon(f2, lay)
        lhs = np.linalg.norm(g12.data - g1.data - g2.data)
        rhs = np.linalg.norm(g1.data) + np.linalg.norm(g2.data)
        assert lhs < 1e-10 * rhs

    def test_rotation_equivariance(self):
        lay = SinogramLayout(128, 180, 1.0)
        shift_bins = 15
        dalpha = shift_bins * lay.dalpha
        c = np.array([0.35, 0.1])
        rot = np.array(
            [[math.cos(dalpha), -math.sin(dalpha)], [math.sin(dalpha), math.cos(dalpha)]]
        )
        g1 = radon(gaussian_image(n=128, center=c, sigma=0.08), lay)
        g2 = radon(gaussian_image(n=128, center=rot @ c, sigma=0.08), lay)
        rolled = np.roll(g1.data, shift_bins, axis=0)
        err = np.linalg.norm(g2.data - rolled) / np.linalg.norm(g2.data)
        assert err < 2e-3

    def test_quadrature_convergence(self):
        img = gaussian_image(n=128, center=(0.2, -0.1), sigma=0.1)
        lay = SinogramLayout(128, 60, 1.0)
        g1 = radon(img, lay, h=img.dx / 2.0)
        g2 = radon(img, lay, h=img.dx / 4.0)
        change = np.linalg.norm(g1.data - g2.data) / np.linalg.norm(g2.data)
        assert change < 1e-3


class TestRadonAdjoint:
    def test_dot_product(self):
        rng = np.random.default_rng(3)
        lay = SinogramLayout(96, 80, 1.0)
        f = random_image(96, rng)
        g = random_sino(lay, rng)
        lhs = sino_inner(radon(f, lay), g)
        rhs = image_inner(f, radon_adjoint(g, f))
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_zero(self):
        lay = SinogramLayout(32, 16, 1.0)
        img = radon_adjoint(Sinogram.zeros(lay), GridImage.zeros(32))
        assert np.all(img.data == 0.0)

    def test_single_bin_is_strip(self):
        lay = SinogramLayout(64, 32, 1.0)
        g = Sinogram.zeros(lay)
        m, k = 8, 40
        g.data[m, k] = 1.0
        img = radon_adjoint(g, GridImage.zeros(64))
        s = lay.s_centers[k]
        alpha = lay.alphas[m]
        X, Y = img.meshgrid()
        dist = np.abs(X * (-math.sin(alpha)) + Y * math.cos(alpha) - s)
        on = img.data[dist < lay.ds]
        off = img.data[dist > 4 * lay.ds]
        assert np.max(np.abs(off)) < 1e-12 or np.max(np.abs(off)) < 0.05 * np.max(on)
        assert np.max(on) > 0


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# (n, window (lo, hi) on both axes, layout, line step in pixels)
PLAN_CASES = {
    "centred-48x60": (64, (-1.0, 1.0), SinogramLayout(48, 60, 1.0), 0.5),
    "30-angles": (48, (-1.0, 1.0), SinogramLayout(40, 30, 1.0), 0.5),
    "90-angles": (40, (-1.0, 1.0), SinogramLayout(32, 90, 1.0), 0.5),
    "off-centre": (48, (-0.5, 1.5), SinogramLayout(40, 48, 1.0), 0.5),
    "quarter-pixel-step": (48, (-1.0, 1.0), SinogramLayout(40, 48, 1.0), 0.25),
    "s_max-1.5": (40, (-1.0, 1.0), SinogramLayout(60, 60, 1.5), 0.5),
}


class TestRadonPlan:
    """The cached sparse plan against the per-angle reference loops."""

    @pytest.mark.parametrize("case", PLAN_CASES, ids=list(PLAN_CASES))
    def test_matches_loop_oracle(self, case):
        n, (lo, hi), lay, step = PLAN_CASES[case]
        rng = np.random.default_rng(11)
        f = GridImage(rng.standard_normal((n, n)), lo, hi, lo, hi)
        g = random_sino(lay, rng)
        h = step * f.dx
        rf = radon(f, lay, h)
        back = radon_adjoint(g, f, h)
        assert max_rel(rf.data, loop_radon(f, lay, h)) < 1e-12
        assert max_rel(back.data, loop_radon_adjoint(g, f, h)) < 1e-12
        lhs, rhs = sino_inner(rf, g), image_inner(f, back)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)
        # lines beyond the corners of the interpolant's support read nothing
        reach = math.sqrt(2.0) * (max(-lo, hi) + f.dx / 2.0)
        beyond = np.abs(lay.s_centers) > reach
        assert beyond.any() == (case == "s_max-1.5")
        assert np.all(rf.data[:, beyond] == 0.0)

    def test_cached_per_geometry(self):
        transforms._plan.cache_clear()
        rng = np.random.default_rng(12)
        f = random_image(32, rng)
        lay = SinogramLayout(24, 16, 1.0)
        radon(f, lay)
        radon_adjoint(radon(f, lay), f)
        info = transforms._plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        radon(f, lay, h=f.dx / 4.0)
        radon(GridImage(f.data, -1.0, 1.5, -1.0, 1.5), lay)
        radon(f, SinogramLayout(24, 20, 1.0))
        assert transforms._plan.cache_info().misses == 4

    def test_cached_plan_is_read_only(self):
        f = random_image(32, np.random.default_rng(13))
        lay = SinogramLayout(24, 16, 1.0)
        A, q = transforms._plan(f.n, f.x_min, f.y_min, f.dx, lay, f.dx / 2.0)
        assert q == 4 and A.shape == (24 * 16 // 4, 32 * 32)
        for arr in (A.data, A.indices, A.indptr):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_bad_line_step_rejected(self, h):
        f = random_image(16, np.random.default_rng(14))
        lay = SinogramLayout(12, 8, 1.0)
        transforms._plan.cache_clear()
        with pytest.raises(ValueError, match="line step"):
            radon(f, lay, h)
        with pytest.raises(ValueError, match="line step"):
            radon_adjoint(Sinogram.zeros(lay), f, h)
        with pytest.raises(ValueError, match="line step"):
            RadonOperator(f, lay, h)
        assert transforms._plan.cache_info().currsize == 0


class TestLambdaFilter:
    def test_cosine_eigenfunction(self):
        lay = SinogramLayout(256, 4, 1.0)
        sigma0 = 40.0
        s = lay.s_centers
        g = Sinogram(np.tile(np.cos(sigma0 * s), (4, 1)), lay.s_max)
        out = lambda_filter(g, power=1.0)
        expected = (sigma0 / (4.0 * math.pi)) * np.cos(sigma0 * s)
        interior = np.abs(s) < 0.7
        err = np.max(np.abs(out.data[0][interior] - expected[interior]))
        assert err < 0.01 * sigma0 / (4.0 * math.pi)

    def test_half_power_composes(self):
        # mean-free oscillatory rows: the filtered signal decays fast enough
        # that cropping the padded tail between the two half applications is
        # harmless.  Rows with a DC component leave |s|^(-3/2) tails in the
        # padding and the crop-and-repad composition degrades to ~1e-2.
        lay = SinogramLayout(256, 6, 1.5)
        s = lay.s_centers
        rows = np.exp(-(s**2) / (2 * 0.05**2)) * np.cos(80.0 * s)
        g = Sinogram(np.tile(rows, (6, 1)), lay.s_max)
        once = lambda_filter(g, power=1.0)
        twice = lambda_filter(lambda_filter(g, power=0.5), power=0.5)
        err = np.linalg.norm(twice.data - once.data) / np.linalg.norm(once.data)
        assert err < 1e-6

    def test_self_adjoint(self):
        rng = np.random.default_rng(5)
        lay = SinogramLayout(128, 10, 1.0)
        g, h = random_sino(lay, rng), random_sino(lay, rng)
        lhs = sino_inner(lambda_filter(g), h)
        rhs = sino_inner(g, lambda_filter(h))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_masked_bins_treated_as_zero(self):
        lay = SinogramLayout(64, 4, 1.0)
        g = Sinogram(np.ones((4, 64)), 1.0)
        g.data[1, 10:20] = np.nan
        gz = Sinogram(np.where(np.isnan(g.data), 0.0, g.data), 1.0)
        np.testing.assert_allclose(
            lambda_filter(g).data, lambda_filter(gz).data, atol=1e-14
        )

    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_powers_from_one_fft_match_one_power_each(self, masked):
        # a tuple of powers returns, bit for bit, one call per power, and
        # each equals the product on an explicitly zero-padded buffer
        rng = np.random.default_rng(11)
        lay = SinogramLayout(45, 12, 1.25)
        g = random_sino(lay, rng)
        if masked:
            g.data[rng.random(g.data.shape) < 0.2] = np.nan
        assert np.isnan(g.data).any() == masked
        half, full = lambda_filter(g, (0.5, 1.0))
        assert half.data.tobytes() == lambda_filter(g, 0.5).data.tobytes()
        assert full.data.tobytes() == lambda_filter(g, 1.0).data.tobytes()
        single = lambda_filter(g, 0.5)
        assert isinstance(single, Sinogram) and single.s_max == g.s_max
        assert np.isfinite(full.data).all()
        buf = np.zeros((lay.n_alpha, 2 * lay.n_s))
        buf[:, : lay.n_s] = g.filled()
        sigma = 2.0 * math.pi * np.fft.rfftfreq(2 * lay.n_s, d=lay.ds)
        for power, out in ((0.5, half), (1.0, full)):
            spec = np.fft.rfft(buf, axis=1) * ((1.0 / (4.0 * math.pi) * sigma) ** power)[None, :]
            ref = np.fft.irfft(spec, n=2 * lay.n_s, axis=1)[:, : lay.n_s]
            assert out.data.tobytes() == ref.tobytes()


def disk_family_op(n=64, n_alpha=90, sigma=0.08, center=(0.35, 0.0)):
    img = gaussian_image(n=n, center=center, sigma=sigma)
    lay = SinogramLayout(n, n_alpha, 1.0)
    op = BrokenRayOperator(Circle(1.0), Family.full(), img, lay)
    return img, lay, op


class TestBrokenRay:
    def test_zero_image(self):
        img, lay, op = disk_family_op()
        g = op.forward(img.copy_with(np.zeros_like(img.data)))
        assert np.all(g.data[g.mask] == 0.0)

    def test_full_family_covers_both_traversals(self):
        # the full family admits both signs of s; only grazing bins mask
        img, lay, op = disk_family_op()
        s = lay.s_centers
        assert np.sum(op.mask[0][s < 0]) > 0
        assert np.sum(op.mask[0][s > 0]) > 0
        assert not np.any(op.mask[:, np.abs(s) > 0.999])

    def test_restricted_family_masks_backward_rays(self):
        # one-sided families keep sin(beta) = s/R > 0 bins only
        img = gaussian_image(n=64, center=(0.35, 0.0), sigma=0.08)
        lay = SinogramLayout(64, 90, 1.0)
        op = BrokenRayOperator(
            Circle(1.0), Family(forward_tangent=True), img, lay
        )
        s = lay.s_centers
        for m in (0, 17):
            row = op.mask[m]
            assert not np.any(row[s < 0])
            assert np.sum(row[s > 0]) > 0

    def test_backward_traversal_bins_duplicate_forward_data(self):
        # a grid bin with sin(beta) < 0 carries the same broken ray as its
        # partner bin, traversed backwards: the data values agree
        img, lay, op = disk_family_op(n=128, n_alpha=180)
        g = op.forward(img)
        s = lay.s_centers
        k = 30  # some s < 0 column
        assert s[k] < 0
        beta = math.asin(s[k])
        for m in (11, 47, 98):
            alpha = lay.alphas[m]
            # partner: traverse the same V forward
            alpha_p = alpha + 2.0 * beta  # incoming angle of the forward ray
            s_p = -s[k]
            # bilinear lookup of the partner value
            gs = (s_p + lay.s_max) / lay.ds - 0.5
            ga = (alpha_p % (2 * math.pi)) / lay.dalpha
            k0, a0 = int(np.floor(gs)), int(np.floor(ga))
            fs, fa = gs - k0, ga - a0
            vals = g.filled()
            interp = (
                vals[a0 % 180, k0] * (1 - fa) * (1 - fs)
                + vals[a0 % 180, k0 + 1] * (1 - fa) * fs
                + vals[(a0 + 1) % 180, k0] * fa * (1 - fs)
                + vals[(a0 + 1) % 180, k0 + 1] * fa * fs
            )
            assert g.data[m, k] == pytest.approx(interp, abs=2e-3)

    def test_linearity(self):
        img, lay, op = disk_family_op()
        rng = np.random.default_rng(11)
        blob1 = gaussian_image(n=64, center=(0.2, 0.1), sigma=0.1)
        blob2 = gaussian_image(n=64, center=(-0.25, 0.2), sigma=0.07)
        g12 = op.forward(blob1.copy_with(blob1.data + blob2.data))
        g1, g2 = op.forward(blob1), op.forward(blob2)
        diff = g12.filled() - g1.filled() - g2.filled()
        assert np.linalg.norm(diff) < 1e-10 * (
            np.linalg.norm(g1.filled()) + np.linalg.norm(g2.filled())
        )

    def test_adjoint_dot_product(self):
        img, lay, op = disk_family_op()
        rng = np.random.default_rng(13)
        f = gaussian_image(n=64, center=(0.1, -0.2), sigma=0.08)
        f.data += 0.3 * gaussian_image(n=64, center=(-0.3, 0.25), sigma=0.07).data
        g = random_sino(lay, rng)
        lhs = sino_inner(op.forward(f), g)
        rhs = image_inner(f, op.adjoint(g))
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_masked_bins_contribute_zero(self):
        img, lay, op = disk_family_op()
        rng = np.random.default_rng(17)
        g = random_sino(lay, rng)
        g2 = g.copy_with(g.data.copy())
        g2.data[~op.mask] = 999.0  # junk on masked bins must be ignored
        a1 = op.adjoint(g.copy_with(np.where(op.mask, g.data, np.nan)))
        a2 = op.adjoint(g2.copy_with(np.where(op.mask, g2.data, np.nan)))
        np.testing.assert_allclose(a1.data, a2.data, atol=1e-12)

    def test_support_violation(self):
        img, lay, op = disk_family_op()
        bad = img.copy_with(np.ones_like(img.data))
        with pytest.raises(SupportViolation):
            op.check_support_of(bad)
        op.check_support_of(img)  # the clipped phantom passes

    def test_blob_signature_on_both_legs(self):
        # bins well above half max have either the direct or the reflected
        # line passing near the blob center
        center = np.array([0.35, 0.0])
        sigma = 0.05
        img, lay, op = disk_family_op(n=128, n_alpha=120, sigma=sigma, center=center)
        g = op.forward(img)
        vals = g.filled()
        peak = np.nanmax(vals)
        hot = np.argwhere(vals > 0.5 * peak)
        s = lay.s_centers
        R = 1.0
        for m, k in hot:
            alpha = lay.alphas[m]
            d_direct = abs(float(center @ unit_vectors(alpha)[1]) - s[k])
            # reflected leg on the disk: same offset, rotated angle
            beta = math.asin(min(1.0, max(-1.0, s[k] / R)))
            alpha2 = alpha + 2.0 * beta + math.pi
            d_refl = abs(float(center @ unit_vectors(alpha2)[1]) - s[k])
            assert min(d_direct, d_refl) < 3.0 * sigma


class TestParallel:
    def test_zero_offset_doubles_radon(self):
        img = gaussian_image(n=64, center=(0.2, 0.0), sigma=0.1)
        lay = SinogramLayout(64, 48, 1.0)
        g = ParallelRayOperator(0.0, img, lay).forward(img)
        base = radon(img, lay)
        np.testing.assert_allclose(g.data, 2.0 * base.data, atol=1e-12)

    def test_shift_consistency(self):
        # P f(s, a) = R f(s, a) + R f(s + d, a), bin-exact for an offset
        # that is an integer number of cells
        img = gaussian_image(n=64, center=(0.1, 0.15), sigma=0.1)
        lay = SinogramLayout(64, 48, 1.0)
        d = 8 * lay.ds
        g = ParallelRayOperator(d, img, lay).forward(img)
        base = radon(img, lay).data
        shifted = np.zeros_like(base)
        shifted[:, :-8] = base[:, 8:]
        np.testing.assert_allclose(g.data, base + shifted, atol=1e-12)

    def test_adjoint_dot_product(self):
        rng = np.random.default_rng(19)
        lay = SinogramLayout(96, 60, 1.2)
        op = ParallelRayOperator(0.6, GridImage.zeros(96), lay)
        f = random_image(96, rng)
        g = random_sino(lay, rng)
        assert sino_inner(op.forward(f), g) == pytest.approx(
            image_inner(f, op.adjoint(g)), rel=1e-5
        )

    def test_conjugate_pair_cancellation(self):
        # singularities of a blob and of its translate by w(alpha) d share
        # a sinogram bump at angle alpha; the difference cancels there
        lay = SinogramLayout(256, 8, 1.5)
        alpha0 = lay.alphas[3]
        d = 43 * lay.ds  # cell-aligned offset keeps the resampling exact
        p = np.array([0.1, -0.2])
        q = p + d * unit_vectors(alpha0)[1]
        sigma = 0.04
        f_p = gaussian_image(n=256, half_width=1.5, center=tuple(p), sigma=sigma)
        f_q = gaussian_image(n=256, half_width=1.5, center=tuple(q), sigma=sigma)
        op = ParallelRayOperator(d, f_p, lay)
        g_p = op.forward(f_p)
        g_q = op.forward(f_q)
        s = lay.s_centers
        c = float(p @ unit_vectors(alpha0)[1])
        near = np.abs(s - c) < sigma
        scale = np.max(np.abs(g_p.data[3]))
        # each transform is large on the shared bump...
        assert np.max(np.abs(g_p.data[3][near])) > 0.5 * scale
        # ...but the bump cancels in the difference
        diff = g_p.data[3][near] - g_q.data[3][near]
        assert np.max(np.abs(diff)) < 1e-3 * scale


def _interp_sino(rf, lay, s2, a2):
    """Bilinear value of a sinogram at (s2, a2): periodic in alpha, zero
    beyond the outermost s columns."""
    x = (s2 + lay.s_max) / lay.ds - 0.5
    y = (a2 % (2 * math.pi)) / lay.dalpha
    k0, m0 = math.floor(x), math.floor(y)
    fx, fy = x - k0, y - m0

    def at(m, k):
        return rf[m % lay.n_alpha, k] if 0 <= k < lay.n_s else 0.0

    return ((1 - fy) * ((1 - fx) * at(m0, k0) + fx * at(m0, k0 + 1))
            + fy * ((1 - fx) * at(m0 + 1, k0) + fx * at(m0 + 1, k0 + 1)))


def _chi(op, s, alpha):
    """The line map of the operator, one line at a time."""
    if isinstance(op, ParallelRayOperator):
        return s + op.offset, alpha
    line = Line(s, alpha)
    event = reflect_one(op.boundary, line, point_at(line, -4.0 * op.sino_layout.s_max))
    return event.line_out.s, event.line_out.alpha


ORACLE_CASES = {
    "disk_full": lambda img: BrokenRayOperator(
        Circle(1.0), Family.full(), img, SinogramLayout(32, 40, 1.0)),
    "disk_local": lambda img: BrokenRayOperator(
        Circle(1.0), Family.local(Lines(0.3, 1.0, *unit_vectors(1.0)), 0.3, 0.6), img,
        SinogramLayout(32, 40, 1.0)),
    "ellipse_full": lambda img: BrokenRayOperator(
        Ellipse(1.4, 0.9), Family.full(), img, SinogramLayout(16, 20, 1.5)),
    "parallel": lambda img: ParallelRayOperator(0.6, img, SinogramLayout(32, 40, 1.2)),
}


class TestOneOperator:
    """Every operator is R f + (R f) o chi on its admitted bins."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_forward_and_adjoint_oracle(self, case):
        rng = np.random.default_rng(29)
        f = random_image(32, rng, half_width=1.5)
        op = ORACLE_CASES[case](f)
        lay = op.sino_layout
        g = op.forward(f)
        rf = radon(f, lay).data
        admitted = np.ones(rf.shape, bool) if op.mask is None else op.mask
        assert np.any(admitted)
        assert np.all(np.isnan(g.data[~admitted]))
        expected = np.full(rf.shape, np.nan)
        for m, k in np.argwhere(admitted):
            s2, a2 = _chi(op, lay.s_centers[k], lay.alphas[m])
            expected[m, k] = rf[m, k] + _interp_sino(rf, lay, s2, a2)
        err = np.max(np.abs(g.data[admitted] - expected[admitted]))
        assert err <= 1e-12 * np.max(np.abs(expected[admitted]))

        h = random_sino(lay, rng)
        assert sino_inner(g, h) == pytest.approx(image_inner(f, op.adjoint(h)), rel=1e-12)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["disk_half_plane", "disk_q1",
                                                           "disk_off_centre"])
    def test_fast_paths_match_the_references_bit_for_bit(self, case):
        # the quarter-turn tables and the flat stencils only move values:
        # every bit, the sign of zero included, is the reference's
        rng = np.random.default_rng(31)
        window = (-1.2, 1.8, -1.6, 1.4) if case == "disk_off_centre" else (-1.5, 1.5) * 2
        f = GridImage(rng.standard_normal((32, 32)), *window)
        op = {
            "disk_half_plane": lambda img: BrokenRayOperator(
                Circle(1.0), Family.half_plane_incoming(0.7), img, SinogramLayout(32, 40, 1.0)),
            "disk_q1": lambda img: BrokenRayOperator(
                Circle(1.0), Family.full(), img, SinogramLayout(32, 30, 1.0)),
            "disk_off_centre": lambda img: BrokenRayOperator(
                Circle(1.0), Family.full(), img, SinogramLayout(32, 40, 1.0)),
            **ORACLE_CASES,
        }[case](f)
        assert "_stencils" not in vars(op)  # derived on the first apply, not built
        lay = op.sino_layout
        assert transforms._plan(*transforms._plan_key(f, lay, op.h))[1] == (
            1 if case in ("disk_q1", "disk_off_centre") else 4)
        g = random_sino(lay, rng)
        g.data[rng.random(g.data.shape) < 0.1] = np.nan
        for got, want in ((radon(f, lay, op.h).data, rot90_radon(f, lay, op.h)),
                          (radon_adjoint(g, f, op.h).data, rot90_radon_adjoint(g, f, op.h)),
                          (op.forward(f).data, corner_forward(op, f)),
                          (op.adjoint(g).data, corner_adjoint(op, g))):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_reflection_table_lets_bugs_through(self, monkeypatch):
        # only the geometric failures of a reflection mask a bin
        def broken(*args):
            raise RuntimeError("bug in reflect")

        monkeypatch.setattr(transforms, "reflect", broken)
        with pytest.raises(RuntimeError):
            BrokenRayOperator(Ellipse(1.4, 0.9), Family.full(), GridImage.zeros(16),
                              SinogramLayout(4, 4, 1.5))


TABLE_MIRRORS = {
    "circle": (Circle(1.0), SinogramLayout(48, 60, 1.25)),
    "ellipse": (Ellipse(1.4, 0.9), SinogramLayout(32, 48, 1.5)),
    "parabola": (Parabola(focal=1.0, x_max=4.0), SinogramLayout(24, 32, 2.0)),
    "star": (SampledCurve(star_curve_points()), SinogramLayout(12, 16, 1.2)),
}


def assert_table_matches(table, reference):
    mask, s2, a2 = table
    ref_mask, ref_s2, ref_a2 = reference
    assert 0 < ref_mask.sum() < ref_mask.size
    np.testing.assert_array_equal(mask, ref_mask)
    assert np.max(np.abs(s2 - ref_s2)[mask]) <= 1e-12
    da2 = np.abs((a2 - ref_a2 + math.pi) % (2.0 * math.pi) - math.pi)
    assert np.max(da2[mask]) <= 1e-12


class TestBatchedReflectionTable:
    @pytest.mark.parametrize("family", ["full", "arc"])
    @pytest.mark.parametrize("mirror", sorted(TABLE_MIRRORS))
    def test_matches_per_bin_oracle(self, mirror, family):
        boundary, lay = TABLE_MIRRORS[mirror]
        fam = Family.full() if family == "full" else Family.boundary_arc(0.5, 3.0)
        assert_table_matches(transforms._reflection_table(boundary, fam, lay),
                             loop_reflection_table(boundary, fam, lay))

    @pytest.mark.parametrize("family", ["full", "half_plane", "local"])
    @pytest.mark.parametrize("mirror", ["ellipse", "parabola", "star"])
    def test_no_arc_length_without_an_arc(self, mirror, family, monkeypatch):
        # only an arc family reads the vertex arc length, so the others
        # build the table without the mirror's arc-length machinery
        boundary, lay = TABLE_MIRRORS[mirror]
        fam = {"full": Family.full(),
               "half_plane": Family.half_plane_incoming(0.7),
               "local": Family.local(Lines(0.2, 1.0, *unit_vectors(1.0)), 0.5, 0.8)}[family]
        reference = loop_reflection_table(boundary, fam, lay)

        def forbidden(*args):
            raise AssertionError("arc length computed for a family without an arc")

        monkeypatch.setattr(_ClosedCurve, "_arclength_table", property(forbidden))
        monkeypatch.setattr(_ClosedCurve, "tau_of_u", forbidden)
        monkeypatch.setattr(Parabola, "tau_of_u", forbidden)
        assert_table_matches(transforms._reflection_table(boundary, fam, lay), reference)


class TestFBPIdentity:
    def test_gaussian_roundtrip(self):
        img = gaussian_image(n=128, center=(0.2, -0.1), sigma=0.12)
        lay = SinogramLayout(128, 180, 1.0)
        op = RadonOperator(img, lay)
        rec = op.adjoint(lambda_filter(op.forward(img)))
        err = np.linalg.norm(rec.data - img.data) / np.linalg.norm(img.data)
        assert err < 0.05
