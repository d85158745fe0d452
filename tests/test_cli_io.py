import math
import subprocess
import sys

import numpy as np
import pytest

from brokenray.cli import DEFAULT_CONFIG, ExperimentConfig, main
from brokenray.errors import ConfigError
from brokenray.geometry import GRAZING_COS
from brokenray.io import (
    load_image,
    load_sinogram,
    read_manifest,
    save_image,
    save_pgm,
    save_sinogram,
)
from brokenray.transforms import GridImage, Sinogram


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

    @pytest.mark.parametrize("old,new", [
        ("\nn = 48\n", "\nn = abc\n"),
        ("kind = circle\nradius = 1.0", "kind = ellipse\nb = 0.75"),
        ("n_s = 48", "n_s = 0"),
        ("radius = 1.0", "radius = -1"),
    ], ids=["non-numeric-n", "ellipse-without-a", "zero-n_s", "negative-radius"])
    def test_bad_config_is_config_error(self, old, new, tmp_path, capsys):
        assert old in SMALL_CONFIG
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(SMALL_CONFIG.replace(old, new))
        rc = main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
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
        chain = (out / "chain.csv").read_text()
        assert "status_positive" in chain
        radii = (out / "polygon_radii.csv").read_text().splitlines()
        assert any(line.startswith("0.7071") for line in radii)

    def test_missing_config_is_validation_error(self, tmp_path):
        rc = main(["forward", "--config", str(tmp_path / "nope.ini")])
        assert rc == 1

    def test_selftest_passes(self):
        rc = main(["selftest", "--n", "48"])
        assert rc == 0

    def test_selftest_negative_control(self):
        rc = main(["selftest", "--n", "48", "--corrupt-adjoint"])
        assert rc == 2

    def test_console_entry_point(self, tmp_path):
        rc = subprocess.run(
            [sys.executable, "-m", "brokenray.cli", "selftest", "--n", "32"],
            capture_output=True,
            text=True,
        )
        assert rc.returncode == 0
        assert "PASS" in rc.stdout

    def test_import_leaves_unused_scipy_modules_unloaded(self):
        code = (
            "import brokenray.cli, sys; "
            "print(' '.join(m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.spatial')"
            " if m in sys.modules))"
        )
        rc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert rc.returncode == 0, rc.stderr
        assert rc.stdout.strip() == ""
