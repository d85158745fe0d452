import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from brokenray.cli import (
    PHANTOM_FILES,
    POWER_ITERATION_FILE,
    ExperimentConfig,
    main,
)
from brokenray.conjugate import (
    CAUSTIC_FIELDS,
    CausticCurve,
    ChainStatus,
    ConjugateChain,
    LocusZero,
    TangentLocus,
)
from brokenray.errors import ConfigError
from brokenray.geometry import GRAZING_COS, Circle
from brokenray.io import (
    image_sha256,
    load_image,
    load_power_iteration,
    load_sinogram,
    read_manifest,
    save_image,
    save_power_iteration,
    save_caustic_csv,
    save_chain_csv,
    save_locus_csv,
    save_pgm,
    save_polygon_radii_csv,
    save_sinogram,
)
from brokenray.transforms import GridImage, Sinogram


# a complete config, every section and key written out
DEFAULT_CONFIG = """\
[experiment]
name = disk_fbp

[grid]
n = 256
half_width = 1.0
n_s = 256
n_alpha = 360
s_max = 1.0

[boundary]
kind = circle
radius = 1.0

[family]
kind = full

[phantom]
kind = gaussian
center = 0.5 0.0
sigma = 0.03
amplitude = 1.0

[reconstruct]
method = fbp
iterations = 100
step_size = auto
support_mask = none
record_every = 0
"""

SMALL_CONFIG = """\
[experiment]
name = smoke
seed = 3

[grid]
n = 48
half_width = 1.0
n_s = 48
n_alpha = 60
s_max = 1.0

[boundary]
kind = circle
radius = 1.0

[family]
kind = full

[phantom]
kind = gaussian
center = 0.4 0.0
sigma = 0.05

[reconstruct]
method = fbp
"""


class TestFileFormats:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GridImage(rng.standard_normal((17, 17)), -2.0, 2.0, -2.0, 2.0)
        path = tmp_path / "img.txt"
        save_image(path, img)
        back = load_image(path)
        np.testing.assert_array_equal(back.data, img.data)
        assert (back.x_min, back.x_max) == (img.x_min, img.x_max)
        # top row of the file is the largest y
        first_row = (path.read_text().splitlines()[1]).split()
        assert float(first_row[0]) == pytest.approx(img.data[-1, 0])

    def test_power_iteration_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        last = GridImage(rng.standard_normal((5, 5)), -0.3, 0.7, 1.0 / 3.0, 4.0 / 3.0)
        history = (1.0 / rng.uniform(1.0, 2.0, 7)).tolist()
        path = tmp_path / POWER_ITERATION_FILE
        save_power_iteration(path, history, last)
        back_history, back = load_power_iteration(path)
        assert back_history == history
        assert back.data.tobytes() == last.data.tobytes()
        assert (back.x_min, back.x_max, back.y_min, back.y_max) == (-0.3, 0.7, 1.0 / 3.0, 4.0 / 3.0)
        assert [p.name for p in tmp_path.iterdir()] == [POWER_ITERATION_FILE]

    def test_sinogram_roundtrip_with_mask(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((12, 9))
        data[3, 4] = np.nan
        g = Sinogram(data, 1.5)
        path = tmp_path / "sino.txt"
        save_sinogram(path, g)
        back = load_sinogram(path)
        assert back.s_max == g.s_max
        np.testing.assert_array_equal(np.isnan(back.data), np.isnan(g.data))
        np.testing.assert_allclose(back.filled(), g.filled())

    def test_pgm_with_sidecar(self, tmp_path):
        img = GridImage(np.outer(np.arange(8.0), np.ones(8)), -1, 1, -1, 1)
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n65535\n")
        pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert pixels.size == 64
        assert pixels.max() == 65535
        side = (tmp_path / "img.pgm.scale").read_text()
        assert "min 0" in side and "max 7" in side


# values whose %.12g spellings differ in kind: nan, a signed zero, a
# subnormal-range exponent, a path length near 8e3 and plain fractions
AWKWARD = [math.nan, -0.0, 1e-300, 8123.456789012345, 1.0 / 3.0, -2.5e-17, 0.0, 7.0]


def test_prediction_csvs_keep_the_per_row_format(tmp_path):
    # the one-pass writers must give the bytes of one f-string per row
    v = np.array(AWKWARD)
    rows = np.column_stack([np.roll(v, k) for k in range(4)])
    points = np.rec.fromarrays([rows[:, 0], rows[:, 1], rows[:, 2:], np.arange(8) % 3 == 1],
                               dtype=CAUSTIC_FIELDS)
    curve = CausticCurve(source=np.zeros(2), breaks=[], points=points,
                         refine_dist=0.0625, unrefined_outside=28)
    expected = "alpha,t,x,y,flag\n" + "".join(
        f"{a:.12g},{t:.12g},{x:.12g},{y:.12g},{'outside_domain' if i % 3 == 1 else 'ok'}\n"
        for i, (a, t, x, y) in enumerate(rows.tolist()))
    save_caustic_csv(tmp_path / "caustic.csv", curve)
    assert (tmp_path / "caustic.csv").read_text() == (
        expected + "# unrefined_outside,28,refine_dist,0.0625\n")

    zeros = [LocusZero(alpha=float(a), kind=kind, simple=simple, t=float(t))
             for (a, t), kind, simple in zip(rows[:3, :2], ("through_center", "source_perpendicular",
                                                           "through_center"), (True, True, False))]
    locus = TangentLocus(alpha=rows[:, 0], t=rows[:, 1], points=rows[:, 2:], zeros=zeros)
    expected = "alpha,t,x,y,flag\n" + "".join(
        f"{a:.12g},{t:.12g},{x:.12g},{y:.12g},ok\n"
        for a, t, (x, y) in zip(locus.alpha, locus.t, locus.points))
    expected += "".join(
        f"{z.alpha:.12g},{z.t:.12g},nan,nan,zero:{z.kind}:{'simple' if z.simple else 'degenerate'}\n"
        for z in zeros)
    save_locus_csv(tmp_path / "locus.csv", locus)
    assert (tmp_path / "locus.csv").read_text() == expected
    assert "zero:through_center:degenerate" in expected and "-0," in expected

    chain = ConjugateChain(index=np.arange(-3, 5), x=rows[:, :2], xi=rows[:, 2:],
                           outside_domain=np.arange(8) % 3 == 2,
                           status_positive=ChainStatus("truncated", 4),
                           status_negative=ChainStatus("incomplete", -3))
    expected = "index,x,y,xi_x,xi_y,status\n" + "".join(
        f"{i},{x[0]:.12g},{x[1]:.12g},{xi[0]:.12g},{xi[1]:.12g},"
        f"{'outside_domain' if out else 'ok'}\n"
        for i, x, xi, out in zip(range(-3, 5), chain.x, chain.xi, chain.outside_domain))
    save_chain_csv(tmp_path / "chain.csv", chain)
    assert (tmp_path / "chain.csv").read_text() == expected + (
        "# status_positive,truncated,4\n# status_negative,incomplete,-3\n")
    assert "outside_domain" in expected and "-0," in expected

    radii = np.rec.fromarrays([v, np.arange(4, 20, 2), np.arange(1, 17, 2)], names="radius,p,q")
    expected = "radius,p,q\n" + "".join(f"{r:.12g},{p},{q}\n" for r, p, q in radii.tolist())
    save_polygon_radii_csv(tmp_path / "radii.csv", radii)
    assert (tmp_path / "radii.csv").read_text() == expected
    assert "nan,4,1" in expected and "-0,6,3" in expected


# values whose 17-digit text is hard to build from integers: ties at the
# 17th digit (dyadic, so exact) that round half-even down and up, in fixed
# form and in exponent form; values within an ulp of a power of ten, where
# log10 misses the exponent, and ones whose rounding carries into the next
# decade (the doubles nearest 1e-14 and 1e-70 lie just below them); the
# edges of the fixed form; trailing zeros; zeros, NaN, infinities, subnormals
HARD = [
    1 + 2**-17, 1 + 3 * 2**-17, (2**17 + 1) / 2**18, (2**8 + 1) / 2**21, 1000 + 2**-14,
    1e15 + 0.25, 1e15 + 0.75, 43 * 2**-22, 3 * 2**-24, 3 * 2**-25, 5 * 2**-24,
    *(math.nextafter(10.0**j, to) for j in (-7, -5, -1, 0, 1, 15) for to in (0.0, math.inf)),
    1e-14, 1e-70, 1e-305, 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
    0.5, 123.0, 1e15, 2.5e-7, 100.25, 0.001, 7e-300,
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072009e-308, 1e-310,
]
HARD += [-x for x in HARD[:11]] + [-1e-14, -1e-4, -1e16, -0.5, -123.0, -5e-324]


@pytest.mark.parametrize("block", [1 << 16, 10, 3], ids=["one-block", "rows-a-block",
                                                           "block-below-a-row"])
def test_matrix_files_keep_the_savetxt_bytes(tmp_path, monkeypatch, block):
    # images and sinograms go through the row writer in blocks of whole
    # rows; each file must hold the bytes np.savetxt wrote, at any block
    # size, whether its blocks take the exact digits or '%.17g' itself
    from brokenray import io as brio

    # a benchmark workload on each side of the cut-over: the 16 x 24 ellipse
    # sinogram keeps '%.17g', the 40 x 40 parallel-ray images do not
    assert 384 < brio._EXACT_MIN_VALUES <= 1600
    monkeypatch.setattr(brio, "_MATRIX_BLOCK", block)
    values = np.array(AWKWARD + HARD)
    img = GridImage(np.resize(values, (9, 9)), -2.0, 1.0 / 3.0, -1.0, 4.0 / 3.0)
    g = Sinogram(np.resize(values[::-1], (11, 7)), 1.5)
    assert img.data.size >= values.size and g.data.size >= values.size
    for exact_min in (0, 1 << 30):
        monkeypatch.setattr(brio, "_EXACT_MIN_VALUES", exact_min)
        for name, save, obj, matrix, header in (
            ("img.txt", save_image, img, img.data[::-1], brio._image_header(img)),
            ("sino.txt", save_sinogram, g, g.data, "7 11 1.5\n"),
        ):
            save(tmp_path / name, obj)
            expected = io.StringIO()
            np.savetxt(expected, matrix, fmt="%.17g")
            assert (tmp_path / name).read_text() == header + expected.getvalue()


def test_hard_values_take_each_path_of_the_exact_digits():
    # the table above reaches what it is there for: ties decided by parity,
    # a carry, an exponent that log10 misses, and the unsure inexact ties
    from brokenray import io as brio

    a = np.array([1 + 2**-17, 1 + 3 * 2**-17, 1e-14, math.nextafter(1e-4, 0.0), 3 * 2**-24])
    n, k, sure = brio._digits17(a)
    assert n.tolist()[:2] == [10000076293945312, 10000228881835938]
    assert (n[2], k[2]) == (10**16, -14)
    assert k[3] == -5 and np.floor(np.log10(a[3])) == -4
    assert sure.tolist() == [True, True, True, True, False]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                  elements=st.floats()))
def test_exact_digits_match_savetxt(data):
    from brokenray import io as brio

    expected = io.StringIO()
    np.savetxt(expected, data, fmt="%.17g")
    assert brio._format_block(data) == expected.getvalue()


class TestConfig:
    def test_roundtrip_lossless(self):
        cfg = ExperimentConfig.from_string(DEFAULT_CONFIG)
        text = cfg.serialize()
        cfg2 = ExperimentConfig.from_string(text)
        assert cfg2.serialize() == text

    def test_validation_errors(self):
        bad = SMALL_CONFIG.replace("kind = full", "kind = sideways")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_string(bad)
        bad = SMALL_CONFIG.replace("n = 48", "n = -3")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_string(bad)

    def test_missing_boundary_section_is_unit_circle(self):
        text = SMALL_CONFIG.replace("[boundary]\nkind = circle\nradius = 1.0\n", "")
        assert ExperimentConfig.from_string(text).boundary() == Circle(1.0)

    def test_operator_kinds(self):
        cfg = ExperimentConfig.from_string(SMALL_CONFIG)
        from brokenray.transforms import BrokenRayOperator

        assert isinstance(cfg.operator(), BrokenRayOperator)
        par = SMALL_CONFIG.replace("kind = full", "kind = parallel\noffset = 0.6")
        cfg = ExperimentConfig.from_string(par)
        from brokenray.transforms import ParallelRayOperator

        assert isinstance(cfg.operator(), ParallelRayOperator)


class TestCommands:
    @pytest.mark.parametrize("s_max", [1.0, 1.25])
    def test_forward_smoke(self, tmp_path, s_max):
        # the full family admits every bin that meets the unit circle
        # transversally: none are masked at s_max = 1, and at s_max = 1.25
        # exactly the columns off the circle or below the grazing threshold
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace("s_max = 1.0", f"s_max = {s_max}"))
        out = tmp_path / "out"
        rc = main(["forward", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        g = load_sinogram(out / "sinogram.txt")
        assert np.nanmax(np.abs(g.data)) > 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["family"] == "full"
        n_s, n_alpha = 48, 60
        s = -s_max + (np.arange(n_s) + 0.5) * (2.0 * s_max / n_s)
        cos_b = np.sqrt(np.maximum(1.0 - s**2, 0.0))
        off = (np.abs(s) >= 1.0) | (cos_b < GRAZING_COS)
        assert int(manifest["masked_bins"]) == n_alpha * int(np.sum(off))
        if s_max == 1.0:
            assert int(manifest["masked_bins"]) == 0

    def test_parallel_zero_offset_doubles_radon(self, tmp_path):
        base = SMALL_CONFIG.replace("kind = full", "kind = parallel\noffset = 0.0")
        base = base.replace("kind = circle", "kind = none")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(base)
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
        g = load_sinogram(out / "sinogram.txt")
        cfg = ExperimentConfig.from_string(base)
        from brokenray.transforms import radon

        plain = radon(cfg.rendered_phantom(), cfg.sino_layout())
        np.testing.assert_allclose(g.data, 2.0 * plain.data, atol=1e-10)

    def test_reconstruct_smoke(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        rc = main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out / "manifest.txt")
        assert float(manifest["relative_error"]) >= 0.0
        assert (out / "reconstruction.txt").exists()
        assert (out / "error_map.pgm").exists()

    def test_reconstruct_landweber_smoke(self, tmp_path):
        text = SMALL_CONFIG.replace("method = fbp",
                                    "method = landweber\niterations = 3\nrecord_every = 2")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        rc = main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["method"] == "landweber"
        assert (out / "iterate_k0002.txt").exists()
        assert (out / "backprojection_f1.txt").exists()

    def test_support_mask_confines_the_iterates(self, tmp_path):
        # loading keeps only the radius; reconstruct builds the mask from it
        text = SMALL_CONFIG.replace("method = fbp",
                                    "method = landweber\niterations = 3\nsupport_mask = disk:0.5")
        method, settings, radius = ExperimentConfig.from_string(text).reconstruction()
        assert (method, settings.support_mask, radius) == ("landweber", None, 0.5)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        rec = load_image(out / "reconstruction.txt")
        X, Y = rec.meshgrid()
        inside = np.hypot(X, Y) <= 0.5
        assert np.all(rec.data[~inside] == 0.0) and np.all(rec.data[inside] != 0.0)

    def test_landweber_runs_once_per_reconstruct(self, tmp_path, monkeypatch):
        # f^(1) comes from the main run and equals a separate 1-step run
        from brokenray import cli
        from brokenray.reconstruct import LandweberConfig, landweber

        calls = []

        def counted(g, op, lw_cfg):
            result = landweber(g, op, lw_cfg)
            calls.append((g, op, lw_cfg, result))
            return result

        monkeypatch.setattr(cli, "landweber", counted)
        text = SMALL_CONFIG.replace("method = fbp", "method = landweber\niterations = 3")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls) == 1
        g, op, lw_cfg, result = calls[0]
        one = landweber(g, op, LandweberConfig(step_size=result.gamma, n_iters=1,
                                               support_mask=lw_cfg.support_mask))
        save_image(tmp_path / "f1.txt", one.final)
        assert (out / "backprojection_f1.txt").read_text() == (tmp_path / "f1.txt").read_text()

    def test_zero_landweber_iterations_is_config_error(self, tmp_path, capsys):
        text = SMALL_CONFIG.replace("method = fbp", "method = landweber\niterations = 0")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        rc = main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,old,new", [
        pytest.param("forward", "\nn = 48\n", "\nn = abc\n", id="non-numeric-n"),
        pytest.param("forward", "kind = circle\nradius = 1.0", "kind = ellipse\nb = 0.75",
                     id="ellipse-without-a"),
        pytest.param("forward", "n_s = 48", "n_s = 0", id="zero-n_s"),
        pytest.param("forward", "radius = 1.0", "radius = -1", id="negative-radius"),
        pytest.param("forward", "0.4 0.0", "0.4 zz", id="non-numeric-center"),
        pytest.param("reconstruct", "0.4 0.0", "0.4", id="one-number-center"),
        pytest.param("predict", "sigma = 0.05", "sigma = abc", id="non-numeric-sigma"),
        pytest.param("forward", "method = fbp", "method = landweber\niterations = 2.5",
                     id="fractional-iterations"),
        pytest.param("reconstruct", "sigma = 0.05", "sigma = -1", id="negative-sigma"),
        # the operator checks support 2 px from the mirror, so a phantom
        # clipped closer would fail every forward
        pytest.param("forward", "sigma = 0.05", "sigma = 0.05\nclip_margin_px = 1.0",
                     id="clip-margin-below-2"),
        pytest.param("reconstruct", "sigma = 0.05", "sigma = 0.05\nclip_margin_px = -1",
                     id="negative-clip-margin"),
        pytest.param("forward", "kind = full", "kind = parallel\noffset = abc",
                     id="non-numeric-offset"),
        pytest.param("reconstruct", "kind = full", "kind = half_plane\ndirection = abc",
                     id="non-numeric-direction"),
        pytest.param("forward", "kind = full", "kind = local\nalpha0 = 0.3", id="local-without-s0"),
        pytest.param("reconstruct", "kind = full", "kind = arc\ntau_max = 1.0",
                     id="arc-without-tau_min"),
        pytest.param("reconstruct", "method = fbp", "method = landweber\nstep_size = x",
                     id="non-numeric-step_size"),
        pytest.param("reconstruct", "method = fbp", "method = landweber\nsupport_mask = disk:abc",
                     id="non-numeric-support-radius"),
        pytest.param("predict", "method = fbp", "method = fbp\n[predict]\nn_samples = 1",
                     id="one-caustic-sample"),
        pytest.param("predict", "method = fbp", "method = fbp\n[predict]\nn_max = 1",
                     id="n_max-below-2"),
        pytest.param("predict", "method = fbp", "method = fbp\n[predict]\nmax_index = abc",
                     id="non-numeric-max_index"),
        *(pytest.param(command, "0.4 0.0", "3 0", id=f"center-outside-window-{command}")
          for command in ("forward", "reconstruct", "predict")),
    ])
    def test_bad_config_is_config_error(self, command, old, new, tmp_path, capsys):
        assert old in SMALL_CONFIG
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace(old, new))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_predict_smoke(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        rc = main(["predict", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        caustic = (out / "caustic.csv").read_text().splitlines()
        assert caustic[0] == "alpha,t,x,y,flag"
        assert len(caustic) > 10
        # the last line says how much refinement outside the mirror was left out
        key, skipped, dist_key, dist = caustic[-1].split(",")
        assert (key, dist_key) == ("# unrefined_outside", "refine_dist")
        assert int(skipped) >= 0 and float(dist) == 2.0 * (2.0 / 48)
        assert not any(line.startswith("#") for line in caustic[:-1])
        chain = (out / "chain.csv").read_text()
        assert "status_positive" in chain
        radii = (out / "polygon_radii.csv").read_text().splitlines()
        assert any(line.startswith("0.7071") for line in radii)

    def test_parallel_family_has_no_mirror_to_predict(self, tmp_path):
        # the parallel-ray transform has no mirror, even where the absent
        # [boundary] section defaults to the unit circle
        text = SMALL_CONFIG.replace("[boundary]\nkind = circle\nradius = 1.0\n", "")
        text = text.replace("kind = full", "kind = parallel\noffset = 0.6")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["polygon_radii.csv"]
        assert ExperimentConfig.from_string(text).boundary() is None
        with pytest.raises(ConfigError):
            ExperimentConfig.from_string(text + "[boundary]\nradius = -1\n")

    def test_source_outside_circular_mirror(self, tmp_path):
        # a centre inside the window but outside the mirror is a valid
        # experiment; it has a caustic but no chain or tangent locus
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace("0.4 0.0", "0.9 0.9"))
        out = tmp_path / "out"
        for command in ("forward", "reconstruct", "predict"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "caustic.csv").exists()
        assert not (out / "chain.csv").exists()
        assert not (out / "tangent_locus.csv").exists()

    def test_manifest_keeps_every_command(self, tmp_path):
        # seed is read by nothing, so a malformed one is ignored
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace("seed = 3", "seed = abc"))
        out = tmp_path / "out"
        for command in ("forward", "reconstruct", "predict"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["masked_bins"] == "0"
        assert float(manifest["relative_error"]) >= 0.0
        assert {"forward_elapsed_s", "reconstruct_elapsed_s"} <= set(manifest)

    def test_manifest_keeps_no_key_of_another_run(self, tmp_path):
        # an FBP reconstruct replaces every key a Landweber one wrote, and a
        # reconstruct on another config keeps nothing of the forward before it
        landweber_cfg = tmp_path / "landweber.ini"
        landweber_cfg.write_text(SMALL_CONFIG.replace("method = fbp",
                                                      "method = landweber\niterations = 2"))
        fbp_cfg = tmp_path / "fbp.ini"
        fbp_cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        for command, cfg_path in (("forward", landweber_cfg), ("reconstruct", landweber_cfg)):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        landweber_keys = {"gamma", "gamma_source", "power_steps", "iterations",
                          "residual_first", "residual_last"}
        assert landweber_keys <= set(read_manifest(out / "manifest.txt"))
        landweber_cfg.write_text(SMALL_CONFIG)
        assert main(["reconstruct", "--config", str(landweber_cfg), "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["method"] == "fbp" and "masked_bins" in manifest
        assert not landweber_keys & set(manifest)
        assert main(["reconstruct", "--config", str(fbp_cfg), "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.txt")
        assert manifest["config"] == str(fbp_cfg) and "masked_bins" not in manifest

    def test_empty_family_is_config_error(self, tmp_path, capsys):
        # no bin of the s window [-1, 1] lies within ds of s0 = 8
        text = SMALL_CONFIG.replace("kind = full", "kind = local\ns0 = 8\nalpha0 = 0.0")
        for old, new in (("\nn = 48\n", "\nn = 12\n"), ("n_s = 48", "n_s = 12"),
                         ("n_alpha = 60", "n_alpha = 16")):
            text = text.replace(old, new)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text)
        for command in ("forward", "reconstruct"):
            rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "admits no bin" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_validation_error(self, tmp_path):
        rc = main(["forward", "--config", str(tmp_path / "nope.ini")])
        assert rc == 1

    def test_selftest_passes(self):
        rc = main(["selftest", "--n", "48"])
        assert rc == 0

    def test_selftest_negative_control(self, monkeypatch, capsys):
        from brokenray import cli

        adjoint = cli.radon_adjoint

        def scaled(*args, **kwargs):
            back = adjoint(*args, **kwargs)
            return back.copy_with(back.data * 1.01)

        monkeypatch.setattr(cli, "radon_adjoint", scaled)
        rc = main(["selftest", "--n", "48"])
        assert rc == 2
        assert "[FAIL] radon adjoint dot product" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "1", "-5"])
    def test_selftest_size_below_2_is_usage_error(self, n, capsys):
        assert main(["selftest", "--n", n]) == 1
        err = capsys.readouterr().err
        assert "integer >= 2" in err
        assert "Traceback" not in err

    def test_console_entry_point(self, tmp_path):
        rc = subprocess.run(
            [sys.executable, "-m", "brokenray.cli", "selftest", "--n", "32"],
            capture_output=True,
            text=True,
        )
        assert rc.returncode == 0
        assert "PASS" in rc.stdout
        for n in ("0", "1", "-5"):
            rc = subprocess.run([sys.executable, "-m", "brokenray.cli", "selftest", "--n", n],
                                capture_output=True, text=True)
            assert rc.returncode == 1
            assert "integer >= 2" in rc.stderr
            assert "Traceback" not in rc.stderr

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                      "output-is-a-directory"])
    def test_write_failure_exits_1(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG)
        (tmp_path / "file").write_text("kept\n")
        out = {"out-is-a-file": tmp_path / "file", "out-under-a-file": tmp_path / "file" / "run",
               "output-is-a-directory": tmp_path / "out"}[case]
        if case == "output-is-a-directory":
            (out / "reconstruction.txt").mkdir(parents=True)
        rc = main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        bad = out / "reconstruction.txt" if case == "output-is-a-directory" else out
        assert err.startswith(f"cannot write {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("old", ["longer-stale-file", "hard-link", "symlink"])
    def test_outputs_replace_what_the_path_held(self, tmp_path, old):
        # every writer, the renamed power iteration and config_resolved.ini
        # create a new file: the directory ends up as a fresh one would, and
        # no old file or link target is written through
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace(
            "method = fbp", "method = landweber\niterations = 3\nrecord_every = 2"))

        def run(out):
            for command in ("forward", "reconstruct", "predict"):
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        def timeless(manifest):
            return [line for line in manifest.splitlines() if b"_elapsed_s = " not in line]

        def stale(name, size):
            return b"stale %s\n" % name.encode() * (size // 8 + 2)

        fresh = run(tmp_path / "fresh")
        assert {"config_resolved.ini", POWER_ITERATION_FILE, "iterate_k0002.txt", "chain.csv",
                "tangent_locus.csv", "polygon_radii.csv", *PHANTOM_FILES} <= set(fresh)
        out, kept = tmp_path / "out", tmp_path / "kept"
        out.mkdir()
        kept.mkdir()
        for name, data in fresh.items():
            if old == "longer-stale-file":
                (out / name).write_bytes(stale(name, len(data)))
                continue
            (kept / name).write_bytes(stale(name, len(data)))
            if old == "hard-link":
                os.link(kept / name, out / name)
            else:
                (out / name).symlink_to(kept / name)
        wrote = run(out)
        assert set(wrote) == set(fresh)
        for name, data in fresh.items():
            assert (out / name).is_file() and not (out / name).is_symlink()
            if name == "manifest.txt":
                assert timeless(wrote[name]) == timeless(data)
            else:
                assert wrote[name] == data, name
            if old != "longer-stale-file":
                assert (kept / name).read_bytes() == stale(name, len(data))

    def test_import_leaves_unused_scipy_modules_unloaded(self):
        code = (
            "import brokenray.cli, sys; "
            "print(' '.join(m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.spatial')"
            " if m in sys.modules))"
        )
        rc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert rc.returncode == 0, rc.stderr
        assert rc.stdout.strip() == ""


LANDWEBER_CONFIG = SMALL_CONFIG.replace("method = fbp", "method = landweber\niterations = 3")


def _reconstruct(tmp_path, text, out) -> dict:
    """Run ``reconstruct`` on ``text`` into ``out``; return its manifest."""
    cfg_path = tmp_path / f"{out.name}.ini"
    cfg_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
    return read_manifest(out / "manifest.txt")


class TestPhantomFiles:
    """``reconstruct`` writes the phantom files unless the manifest records
    them for the same config and image and all of them exist."""

    @staticmethod
    def _files(out) -> dict:
        return {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns)
                for name in PHANTOM_FILES}

    @staticmethod
    def _forward(tmp_path, text, out) -> dict:
        cfg_path = tmp_path / f"{out.name}.ini"
        cfg_path.write_text(text)
        assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
        # an old stamp, so that any rewrite shows in st_mtime_ns
        for name in PHANTOM_FILES:
            os.utime(out / name, ns=(10**18, 10**18))
        return read_manifest(out / "manifest.txt")

    def test_reconstruct_keeps_what_forward_wrote(self, tmp_path):
        out = tmp_path / "out"
        forward = self._forward(tmp_path, SMALL_CONFIG, out)
        before = self._files(out)
        manifest = _reconstruct(tmp_path, SMALL_CONFIG, out)
        assert self._files(out) == before
        assert manifest["phantom_sha256"] == forward["phantom_sha256"]

    def test_fresh_directory_gets_them(self, tmp_path):
        out = tmp_path / "out"
        manifest = _reconstruct(tmp_path, SMALL_CONFIG, out)
        f = ExperimentConfig.from_string(SMALL_CONFIG).rendered_phantom()
        assert all((out / name).exists() for name in PHANTOM_FILES)
        np.testing.assert_array_equal(load_image(out / "phantom.txt").data, f.data)
        assert manifest["phantom_sha256"] == image_sha256(f)

    def test_changed_phantom_is_rewritten(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        changed = SMALL_CONFIG.replace("center = 0.4 0.0", "center = 0.3 0.1")
        forward = self._forward(tmp_path, SMALL_CONFIG, out)
        manifest = _reconstruct(tmp_path, changed, out)
        _reconstruct(tmp_path, changed, fresh)
        assert manifest["phantom_sha256"] != forward["phantom_sha256"]
        for name in PHANTOM_FILES:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_deleted_file_is_rewritten(self, tmp_path):
        out = tmp_path / "out"
        self._forward(tmp_path, SMALL_CONFIG, out)
        before = self._files(out)
        (out / "phantom.pgm").unlink()
        _reconstruct(tmp_path, SMALL_CONFIG, out)
        after = self._files(out)
        for name in PHANTOM_FILES:
            assert after[name][0] == before[name][0]
            assert after[name][1] != before[name][1]


class TestStepSizeReplay:
    """Landweber's automatic step is stored in the experiment directory and
    reused only when one power step from the stored iterate reproduces the
    stored last step."""

    OUTPUTS = ("reconstruction.txt", "backprojection_f1.txt")

    def test_second_reconstruct_replays(self, tmp_path):
        out = tmp_path / "out"
        first = _reconstruct(tmp_path, LANDWEBER_CONFIG, out)
        files = {name: (out / name).read_bytes() for name in self.OUTPUTS}
        stored = (out / POWER_ITERATION_FILE).read_bytes()
        second = _reconstruct(tmp_path, LANDWEBER_CONFIG, out)
        assert (first["gamma_source"], first["power_steps"]) == ("power_iteration", "30")
        assert (second["gamma_source"], second["power_steps"]) == ("replayed", "1")
        assert second["gamma"] == first["gamma"]
        assert {name: (out / name).read_bytes() for name in self.OUTPUTS} == files
        assert (out / POWER_ITERATION_FILE).read_bytes() == stored

    @pytest.mark.parametrize("old,new", [
        pytest.param("s_max = 1.0", "s_max = 1.25", id="s_max"),
        pytest.param("radius = 1.0", "radius = 0.9", id="mirror"),
        pytest.param("kind = full", "kind = half_plane", id="family"),
    ])
    def test_changed_operator_falls_back(self, tmp_path, old, new):
        changed = LANDWEBER_CONFIG.replace(old, new)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        _reconstruct(tmp_path, LANDWEBER_CONFIG, out)
        after = _reconstruct(tmp_path, changed, out)
        expected = _reconstruct(tmp_path, changed, fresh)
        assert after["gamma_source"] == "power_iteration"
        assert after["gamma"] == expected["gamma"]
        for name in self.OUTPUTS:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "empty", "header_only", "text",
                                        "no_history", "other_n"])
    def test_unusable_stored_file_falls_back(self, tmp_path, capsys, damage):
        out = tmp_path / "out"
        stored = out / POWER_ITERATION_FILE
        expected = _reconstruct(tmp_path, LANDWEBER_CONFIG, tmp_path / "fresh")
        if damage == "other_n":
            _reconstruct(tmp_path, LANDWEBER_CONFIG.replace("\nn = 48\n", "\nn = 32\n"), out)
        else:
            _reconstruct(tmp_path, LANDWEBER_CONFIG, out)
            raw = stored.read_bytes()
            if damage == "no_history":
                v = np.load(stored)
                np.save(stored, np.concatenate([v[:5], v[-48 * 48:]]))
            else:
                stored.write_bytes({"truncated": raw[: len(raw) // 2], "empty": b"",
                                    "header_only": raw[:128], "text": b"0.5 0.25\n"}[damage])
        capsys.readouterr()
        after = _reconstruct(tmp_path, LANDWEBER_CONFIG, out)
        assert capsys.readouterr().err == ""
        assert (after["gamma_source"], after["gamma"]) == ("power_iteration", expected["gamma"])
        assert _reconstruct(tmp_path, LANDWEBER_CONFIG, out)["gamma_source"] == "replayed"

    @pytest.mark.parametrize("text", [
        pytest.param(SMALL_CONFIG, id="fbp"),
        pytest.param(LANDWEBER_CONFIG + "step_size = 0.05\n", id="fixed-step"),
    ])
    def test_fbp_and_fixed_step_leave_it_alone(self, tmp_path, monkeypatch, text):
        from brokenray import cli

        touched = []
        monkeypatch.setattr(cli.brio, "load_power_iteration", lambda *a: touched.append(a))
        monkeypatch.setattr(cli.brio, "save_power_iteration", lambda *a: touched.append(a))
        manifest = _reconstruct(tmp_path, text, tmp_path / "out")
        assert touched == [] and not (tmp_path / "out" / POWER_ITERATION_FILE).exists()
        if manifest["method"] == "landweber":
            assert (manifest["gamma_source"], manifest["power_steps"]) == ("config", "0")
            assert float(manifest["gamma"]) == 0.05

    def test_power_steps_are_forward_calls_under_the_estimate(self, tmp_path, monkeypatch):
        from brokenray import reconstruct
        from brokenray.transforms import RadonOperator

        estimate, forward = reconstruct.step_size_estimate, RadonOperator.forward
        inside, steps = [], []

        def counted_estimate(*args, **kwargs):
            inside.append(True)
            try:
                return estimate(*args, **kwargs)
            finally:
                inside.pop()

        def counted_forward(self, f):
            steps[-1] += bool(inside)
            return forward(self, f)

        monkeypatch.setattr(reconstruct, "step_size_estimate", counted_estimate)
        monkeypatch.setattr(RadonOperator, "forward", counted_forward)
        for _ in range(2):
            steps.append(0)
            _reconstruct(tmp_path, LANDWEBER_CONFIG, tmp_path / "out")
        assert steps == [30, 1]


# SMALL_CONFIG on a 12-pixel grid with every key the resolvers read, so that
# switching a kind also switches to that kind's keys.  No token exceeds 12,
# and the keys and sections whose defaults are larger sizes are never dropped.
PROPERTY_CONFIG = {
    "experiment": {"name": "smoke", "seed": "3"},
    "grid": {"n": "12", "half_width": "1.0", "n_s": "12", "n_alpha": "12", "s_max": "1.0"},
    "boundary": {"kind": "circle", "radius": "1.0", "a": "1.0", "b": "0.75", "focal": "1.0",
                 "x_max": "2.0", "csv": "mirror.csv"},
    "family": {"kind": "full", "offset": "0.6", "direction": "0.5", "tau_min": "0.5",
               "tau_max": "4.0", "s0": "0.2", "alpha0": "0.5", "ds": "0.4", "dalpha": "0.8"},
    "phantom": {"kind": "gaussian", "center": "0.4 0.0", "sigma": "0.2", "theta": "0.5",
                "wavenumber": "8", "amplitude": "1.0", "clip_margin_px": "2.0"},
    "reconstruct": {"method": "landweber", "iterations": "2", "step_size": "auto",
                    "support_mask": "disk:0.9", "record_every": "1"},
    "predict": {"n_samples": "12", "max_index": "4", "n_max": "3"},
}
KINDS = {
    ("boundary", "kind"): ["circle", "ellipse", "parabola", "generic", "none"],
    ("family", "kind"): ["full", "half_plane", "arc", "local", "parallel"],
    ("phantom", "kind"): ["gaussian", "coherent", "shepp_logan"],
    ("reconstruct", "method"): ["fbp", "landweber"],
}
TOKENS = ["-1", "0", "1", "2", "8", "abc", "", "2.5", "nan", "inf", "0 0", "0.9 0.9", "3 0",
          "disk:0.5", "auto", "none"]
KEYS = [(section, key) for section, keys in PROPERTY_CONFIG.items() for key in keys]
KEPT_KEYS = [("grid", "n"), ("grid", "n_s"), ("grid", "n_alpha"), ("reconstruct", "iterations"),
             ("predict", "n_samples"), ("predict", "max_index")]
KEPT_SECTIONS = ["grid", "predict"]


def _set(key, values):
    return st.tuples(st.just(key), st.sampled_from(values))


# ((section, key), value): a None value drops the key, a None key the section
MUTATION = st.one_of(
    st.sampled_from(KEYS).flatmap(lambda key: _set(key, TOKENS)),
    st.sampled_from(sorted(KINDS)).flatmap(lambda key: _set(key, KINDS[key])),
    st.tuples(st.sampled_from([k for k in KEYS if k not in KEPT_KEYS]), st.none()),
    st.tuples(st.tuples(st.sampled_from([s for s in PROPERTY_CONFIG if s not in KEPT_SECTIONS]),
                        st.none()), st.none()),
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(MUTATION, max_size=4))
def test_any_config_exits_0_1_or_2(mutations):
    sections = {section: dict(keys) for section, keys in PROPERTY_CONFIG.items()}
    for (section, key), value in mutations:
        if key is None:
            sections.pop(section, None)
        elif value is None:
            sections.get(section, {}).pop(key, None)
        elif section in sections:
            sections[section][key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        phi = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        np.savetxt(tmp / "mirror.csv", np.column_stack([np.cos(phi), 0.8 * np.sin(phi)]),
                   delimiter=",")
        cfg_path = tmp / "cfg.ini"
        cfg_path.write_text(text.replace("mirror.csv", str(tmp / "mirror.csv")))
        out = tmp / "out"
        codes, errors, wrote = [], [], []
        for command in ("forward", "reconstruct", "predict"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(main([command, "--config", str(cfg_path), "--out", str(out)]))
            errors.append(err.getvalue())
            wrote.append(out.exists())
        assert set(codes) <= {0, 1, 2}
        # a config is rejected before any output: at load by every command,
        # and an empty family by the two commands that build the operator
        if 1 in codes:
            empty_family = "admits no bin" in errors[0]
            assert codes[:2] == [1, 1] and (codes[2] == 1) != empty_family
            assert wrote == [False, False, wrote[2] and empty_family]


@pytest.mark.parametrize("argv", [
    pytest.param(["forward"], id="missing-config"),
    pytest.param(["sideways"], id="unknown-command"),
    pytest.param(["--seed", "3", "forward", "--config", "cfg.ini"], id="removed-seed"),
])
def test_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: brokenray") and "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: brokenray")


def test_one_parser_keeps_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # every call parses with the one parser built for the process; each
    # command sees only what its own command line gave, so the --out of a
    # rejected call does not become the default of the next
    from brokenray import cli

    monkeypatch.chdir(tmp_path)
    Path("cfg.ini").write_text(SMALL_CONFIG)
    seen = []
    for name in ("cmd_forward", "cmd_predict"):
        def record(cfg, args, command=getattr(cli, name)):
            seen.append(vars(args).copy())
            return command(cfg, args)
        monkeypatch.setattr(cli, name, record)
    help_text = cli._parser().format_help()
    calls = [
        ["predict", "--out", "usage"],  # no --config
        ["predict", "--config", "cfg.ini"],
        ["--help"],
        ["sideways", "--config", "cfg.ini"],
        ["forward", "--config", "cfg.ini", "--out", "b"],
    ]
    codes, errors = [], []
    for argv in calls:
        codes.append(main(argv))
        errors.append(capsys.readouterr().err)
    assert codes == [1, 0, 0, 1, 0]
    assert errors[0].startswith("usage: brokenray predict") and "--config" in errors[0]
    assert errors[3].startswith("usage: brokenray") and "sideways" in errors[3]
    assert seen == [{"command": "predict", "config": "cfg.ini", "out": None},
                    {"command": "forward", "config": "cfg.ini", "out": "b"}]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "cfg.ini", "runs"]
    assert (tmp_path / "runs" / "smoke" / "chain.csv").exists()
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == help_text
