"""Experiment driver: forward data, reconstructions, artifact predictions.

Subcommands
-----------
forward      render the phantom, apply the configured transform, write the
             sinogram and a manifest
reconstruct  run FBP or Landweber, write images (text + PGM), the error
             map and the relative error
predict      write caustic / chain / polygon-radius CSVs for overlay
selftest     run the built-in numerical checks

Configs are flat INI files; see ``example_config`` for the full key set.
Exit codes: 0 success, 1 configuration error, 2 numerical check failure.
"""

from __future__ import annotations

import argparse
import configparser
import io as _io
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as brio
from .conjugate import (
    Covector,
    caustic_curve,
    conjugate_chain,
    polygon_artifact_radii,
    tangent_conjugate_locus,
)
from .errors import BrokenRayError, ConfigError
from .geometry import Circle, LineCoords, make_boundary, normal
from .phantoms import PhantomSpec, clip_to_boundary, render
from .reconstruct import (
    LandweberConfig,
    error_map,
    fbp,
    landweber,
    relative_error,
)
from .transforms import (
    BrokenRayOperator,
    Family,
    GridImage,
    ParallelRayOperator,
    RadonOperator,
    SinogramLayout,
    image_inner,
    lambda_filter,
    radon,
    radon_adjoint,
    sino_inner,
)

DEFAULT_CONFIG = """\
[experiment]
name = disk_fbp
seed = 7

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


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    parser: configparser.ConfigParser
    path: str = "<builtin>"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        cfg = cls(parser, str(path))
        cfg.validate()
        return cfg

    @classmethod
    def from_string(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        cfg = cls(parser)
        cfg.validate()
        return cfg

    def serialize(self) -> str:
        buf = _io.StringIO()
        self.parser.write(buf)
        return buf.getvalue()

    def get(self, section, key, fallback=None):
        return self.parser.get(section, key, fallback=fallback)

    def getfloat(self, section, key, fallback=None):
        return self.parser.getfloat(section, key, fallback=fallback)

    def getint(self, section, key, fallback=None):
        return self.parser.getint(section, key, fallback=fallback)

    # -- resolved pieces ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.get("experiment", "name", "experiment")

    @property
    def seed(self) -> int:
        return self.getint("experiment", "seed", 0)

    def _check_positive(self, section, key, kind=float, required=False) -> None:
        raw = self.get(section, key)
        if raw is None:
            if required:
                raise ConfigError(f"[{section}] needs {key}")
            return
        try:
            value = kind(raw)
        except ValueError:
            kind_name = "an integer" if kind is int else "a number"
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {kind_name}") from None
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"[{section}] {key} must be positive, got {raw!r}")

    def validate(self) -> None:
        for key in ("n", "n_s", "n_alpha"):
            self._check_positive("grid", key, int)
        for key in ("half_width", "s_max"):
            self._check_positive("grid", key)
        fam = self.get("family", "kind", "full")
        if fam not in ("full", "half_plane", "arc", "local", "parallel"):
            raise ConfigError(f"unknown family kind {fam!r}")
        bnd = self.get("boundary", "kind", "circle")
        if bnd not in ("circle", "ellipse", "parabola", "generic", "none"):
            raise ConfigError(f"unknown boundary kind {bnd!r}")
        for key, required in {"circle": [("radius", False)],
                              "ellipse": [("a", True), ("b", True)],
                              "parabola": [("focal", False), ("x_max", False)]}.get(bnd, []):
            self._check_positive("boundary", key, required=required)
        if bnd == "generic":
            csv = self.get("boundary", "csv")
            if csv is None or not Path(csv).exists():
                raise ConfigError("generic boundary needs an existing csv file")
        ph = self.get("phantom", "kind", "gaussian")
        if ph not in ("gaussian", "coherent", "shepp_logan"):
            raise ConfigError(f"unknown phantom kind {ph!r}")
        method = self.get("reconstruct", "method", "fbp")
        if method not in ("fbp", "landweber"):
            raise ConfigError(f"unknown reconstruction method {method!r}")
        if method == "landweber" and self.getint("reconstruct", "iterations", 100) < 1:
            raise ConfigError("landweber needs iterations >= 1")

    def image_layout(self) -> GridImage:
        return GridImage.zeros(
            self.getint("grid", "n", 128), self.getfloat("grid", "half_width", 1.0)
        )

    def sino_layout(self) -> SinogramLayout:
        n = self.getint("grid", "n", 128)
        return SinogramLayout(
            self.getint("grid", "n_s", n),
            self.getint("grid", "n_alpha", 360),
            self.getfloat("grid", "s_max", self.getfloat("grid", "half_width", 1.0)),
        )

    def boundary(self):
        kind = self.get("boundary", "kind", "circle")
        if kind == "none":
            return None
        params = dict(self.parser.items("boundary"))
        params.pop("kind", None)
        if kind == "parabola":
            return make_boundary(
                kind,
                focal=self.getfloat("boundary", "focal", 1.0),
                x_max=self.getfloat("boundary", "x_max", 4.0),
            )
        return make_boundary(kind, **params)

    def family(self) -> Family | None:
        kind = self.get("family", "kind", "full")
        if kind == "full":
            return Family.full()
        if kind == "half_plane":
            return Family.half_plane_incoming(self.getfloat("family", "direction", 0.0))
        if kind == "arc":
            return Family.boundary_arc(
                self.getfloat("family", "tau_min"), self.getfloat("family", "tau_max")
            )
        if kind == "local":
            line = LineCoords(
                self.getfloat("family", "s0"), self.getfloat("family", "alpha0")
            )
            return Family.local(
                line,
                self.getfloat("family", "ds", 0.2),
                self.getfloat("family", "dalpha", 0.3),
            )
        return None  # parallel

    def phantom(self) -> PhantomSpec:
        kind = self.get("phantom", "kind", "gaussian")
        center = tuple(float(t) for t in self.get("phantom", "center", "0 0").split())
        amp = self.getfloat("phantom", "amplitude", 1.0)
        if kind == "gaussian":
            return PhantomSpec.gaussian(center, self.getfloat("phantom", "sigma", 0.05), amp)
        if kind == "coherent":
            return PhantomSpec.coherent(
                center,
                self.getfloat("phantom", "theta", 0.0),
                self.getfloat("phantom", "sigma", 0.05),
                self.getfloat("phantom", "wavenumber", 80.0),
                amp,
            )
        return PhantomSpec.shepp_logan(
            center, self.getfloat("phantom", "theta", 0.0), amp
        )

    def operator(self):
        img = self.image_layout()
        sino = self.sino_layout()
        fam_kind = self.get("family", "kind", "full")
        if fam_kind == "parallel":
            return ParallelRayOperator(self.getfloat("family", "offset", 0.6), img, sino)
        boundary = self.boundary()
        if boundary is None:
            return RadonOperator(img, sino)
        return BrokenRayOperator(boundary, self.family(), img, sino)

    def rendered_phantom(self) -> GridImage:
        img = render(self.phantom(), self.image_layout())
        boundary = self.boundary()
        if boundary is not None and self.get("family", "kind", "full") != "parallel":
            img = clip_to_boundary(
                img, boundary, self.getfloat("phantom", "clip_margin_px", 2.0)
            )
        return img

    def support_mask(self, img: GridImage):
        spec = self.get("reconstruct", "support_mask", "none")
        if spec == "none":
            return None
        if spec.startswith("disk:"):
            r = float(spec.split(":", 1)[1])
            X, Y = img.meshgrid()
            return (np.hypot(X, Y) <= r).astype(float)
        raise ConfigError(f"unknown support mask spec {spec!r}")


def _out_dir(args, cfg) -> Path:
    out = Path(args.out) if args.out else Path("runs") / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _base_manifest(cfg) -> dict:
    return {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "config": cfg.path,
    }


def cmd_forward(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args, cfg)
    op = cfg.operator()
    f = cfg.rendered_phantom()
    t0 = time.time()
    op.check_support_of(f)
    g = op.forward(f)
    brio.save_image(out / "phantom.txt", f)
    brio.save_pgm(out / "phantom.pgm", f)
    brio.save_sinogram(out / "sinogram.txt", g)
    manifest = _base_manifest(cfg)
    manifest.update(
        {
            "family": cfg.get("family", "kind", "full"),
            "masked_bins": int(np.sum(~g.mask)),
            "elapsed_s": f"{time.time() - t0:.3f}",
        }
    )
    brio.write_manifest(out / "manifest.txt", manifest)
    (out / "config_resolved.ini").write_text(cfg.serialize())
    print(f"forward: wrote {out/'sinogram.txt'}")
    return 0


def cmd_reconstruct(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args, cfg)
    op = cfg.operator()
    f_true = cfg.rendered_phantom()
    op.check_support_of(f_true)
    g = op.forward(f_true)
    manifest = _base_manifest(cfg)
    method = cfg.get("reconstruct", "method", "fbp")
    t0 = time.time()
    if method == "fbp":
        rec = fbp(g, op)
        manifest["method"] = "fbp"
    else:
        step_raw = cfg.get("reconstruct", "step_size", "auto")
        gamma = None if step_raw in ("auto", "", None) else float(step_raw)
        mask = cfg.support_mask(f_true)
        lw_cfg = LandweberConfig(
            step_size=gamma,
            n_iters=cfg.getint("reconstruct", "iterations", 100),
            support_mask=mask,
            record_every=cfg.getint("reconstruct", "record_every", 0),
        )
        result = landweber(g, op, lw_cfg)
        rec = result.final
        manifest.update(
            {
                "method": "landweber",
                "gamma": f"{result.gamma:.8g}",
                "iterations": result.n_iters,
                "residual_first": f"{result.residuals[0]:.8g}",
                "residual_last": f"{result.residuals[-1]:.8g}",
            }
        )
        for k, snap in result.snapshots:
            brio.save_image(out / f"iterate_k{k:04d}.txt", snap)
        # the first backprojection step doubles as the f^(1) diagnostic
        brio.save_image(out / "backprojection_f1.txt", result.first)
        brio.save_pgm(out / "backprojection_f1.pgm", result.first)
    err = error_map(f_true, rec)
    e = relative_error(f_true, rec)
    manifest["relative_error"] = f"{e:.8g}"
    manifest["sup_error"] = f"{float(np.max(np.abs(err.data))):.8g}"
    manifest["elapsed_s"] = f"{time.time() - t0:.3f}"
    brio.save_image(out / "phantom.txt", f_true)
    brio.save_pgm(out / "phantom.pgm", f_true)
    brio.save_image(out / "reconstruction.txt", rec)
    brio.save_pgm(out / "reconstruction.pgm", rec)
    brio.save_image(out / "error_map.txt", err)
    brio.save_pgm(out / "error_map.pgm", err)
    brio.write_manifest(out / "manifest.txt", manifest)
    (out / "config_resolved.ini").write_text(cfg.serialize())
    print(f"reconstruct[{method}]: relative error e = {e:.4g}; wrote {out}")
    return 0


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args, cfg)
    boundary = cfg.boundary()
    spec = cfg.phantom()
    img = cfg.image_layout()
    wrote = []
    if boundary is not None:
        source = np.asarray(spec.center, dtype=float)
        curve = caustic_curve(
            source, boundary, n_samples=cfg.getint("predict", "n_samples", 720),
            refine_dist=2.0 * img.dx,
        )
        brio.save_caustic_csv(out / "caustic.csv", curve)
        wrote.append("caustic.csv")
        if isinstance(boundary, Circle):
            cv = Covector(source, normal(spec.theta))
            chain = conjugate_chain(cv, boundary.radius,
                                    cfg.getint("predict", "max_index", 64))
            brio.save_chain_csv(out / "chain.csv", chain)
            wrote.append("chain.csv")
            if np.linalg.norm(source) > 1e-9:
                locus = tangent_conjugate_locus(source, boundary.radius)
                brio.save_locus_csv(out / "tangent_locus.csv", locus)
                wrote.append("tangent_locus.csv")
    radii = polygon_artifact_radii(cfg.getint("predict", "n_max", 5))
    with open(out / "polygon_radii.csv", "w") as fh:
        fh.write("radius,p,q\n")
        for r in radii:
            fh.write(f"{r.radius:.12g},{r.p},{r.q}\n")
    wrote.append("polygon_radii.csv")
    brio.write_manifest(out / "manifest.txt", _base_manifest(cfg))
    print(f"predict: wrote {', '.join(wrote)} in {out}")
    return 0


def _selftest_checks(n: int, corrupt_adjoint: bool):
    """Yield (name, passed, detail) for the built-in numerical checks."""
    from .conjugate import conjugate_point, source_derivatives
    from .geometry import TWO_PI, Ellipse, dot2, reflect, reflect_rays, unit_vectors

    rng = np.random.default_rng(1234)
    img = GridImage.zeros(n)
    lay = SinogramLayout(n, 120, 1.0)

    f = GridImage.zeros(n)
    X, Y = f.meshgrid()
    sigma = max(0.08, 4.0 * f.dx)  # keep the blob resolved on coarse grids
    f.data[:] = np.exp(-((X - 0.2) ** 2 + (Y + 0.1) ** 2) / (2 * sigma**2))
    g = radon(f, lay)
    h = g.copy_with(rng.standard_normal(g.data.shape))
    lhs = sino_inner(g, h)
    back = radon_adjoint(h, img)
    if corrupt_adjoint:
        back = back.copy_with(back.data * 1.01)
    rhs = image_inner(f, back)
    rel = abs(lhs - rhs) / abs(lhs)
    yield "radon adjoint dot product", rel < 1e-5, f"rel={rel:.2e}"

    op = BrokenRayOperator(Circle(1.0), Family.full(), img, lay)
    gb = op.forward(f)
    hb = gb.copy_with(rng.standard_normal(gb.data.shape))
    lhs = sino_inner(gb, hb)
    rhs = image_inner(f, op.adjoint(hb))
    rel = abs(lhs - rhs) / abs(lhs)
    yield "broken-ray adjoint dot product", rel < 1e-4, f"rel={rel:.2e}"

    worst = 0.0
    for boundary in (Circle(1.0), Ellipse(1.4, 0.9)):
        for _ in range(50):
            p = rng.uniform(-0.4, 0.4, size=2)
            alpha = rng.uniform(0.0, 2 * math.pi)
            try:
                event = reflect(boundary, LineCoords.through(p, alpha), p)
            except BrokenRayError:
                continue
            worst = max(worst, abs(float(np.linalg.det(event.jacobian)) - 1.0))
    yield "reflection det(d chi) = 1", worst < 1e-6, f"max|det-1|={worst:.2e}"

    worst, disagree = 0.0, 0
    for boundary in (Circle(1.0), Ellipse(1.4, 0.9)):
        p = rng.uniform(-0.4, 0.4, size=(50, 2))
        alpha = rng.uniform(0.0, 2 * math.pi, size=50)
        v, w = unit_vectors(alpha)
        rays = reflect_rays(boundary, dot2(w, p), alpha, dot2(v, p), jacobian=True)
        for i in range(50):
            try:
                event = reflect(boundary, LineCoords.through(p[i], alpha[i]), p[i])
            except BrokenRayError:
                disagree += int(rays.ok[i])
                continue
            disagree += int(not rays.ok[i])
            worst = max(worst, abs(rays.line_out.s[i] - event.line_out.s),
                        abs(math.remainder(rays.line_out.alpha[i] - event.line_out.alpha, TWO_PI)),
                        float(np.max(np.abs(rays.hit_point[i] - event.hit_point))),
                        float(np.max(np.abs(rays.jacobian[i] - event.jacobian)
                                     / (1.0 + np.abs(event.jacobian)))))
    yield "batched reflection matches reflect", disagree == 0 and worst < 1e-12, (
        f"{disagree} admissibility disagreements, max dev={worst:.2e}"
    )

    worst = 0.0
    hits = 0
    for _ in range(30):
        p = rng.uniform(-0.4, 0.4, size=2)
        alpha = rng.uniform(0.0, 2 * math.pi)
        circle = Circle(1.0)
        try:
            event = reflect(circle, LineCoords.through(p, alpha), p)
        except BrokenRayError:
            continue
        da2, _ = source_derivatives(p, event)
        if da2 < 0.3:
            continue
        q = conjugate_point(p, event)
        e1 = reflect(circle, LineCoords.through(p, alpha - 5e-5), p)
        e2 = reflect(circle, LineCoords.through(p, alpha + 5e-5), p)
        A = np.column_stack([e1.line_out.v, -e2.line_out.v])
        t, _ = np.linalg.solve(A, e2.hit_point - e1.hit_point)
        q_env = e1.hit_point + t * e1.line_out.v
        worst = max(worst, float(np.linalg.norm(q - q_env)))
        hits += 1
    yield "conjugate point envelope oracle", hits > 10 and worst < 1e-3, (
        f"max dev={worst:.2e} over {hits} rays"
    )

    rec = radon_adjoint(lambda_filter(g), img)
    e = float(np.linalg.norm(rec.data - f.data) / np.linalg.norm(f.data))
    yield "filtered backprojection identity", e < 0.08, f"rel L2 err={e:.3f}"


def cmd_selftest(args) -> int:
    t0 = time.time()
    failures = 0
    for name, ok, detail in _selftest_checks(args.n, args.corrupt_adjoint):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"selftest finished in {time.time() - t0:.1f}s, {failures} failure(s)")
    return 0 if failures == 0 else 2


def example_config() -> str:
    """Reference configuration with every recognized key."""
    return DEFAULT_CONFIG


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="brokenray", description=__doc__)
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("forward", "reconstruct", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    p = sub.add_parser("selftest")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--out", default=None)
    p.add_argument("--corrupt-adjoint", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.command == "selftest":
        return cmd_selftest(args)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.parser.set("experiment", "seed", str(args.seed))
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "forward":
            return cmd_forward(cfg, args)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args)
        return cmd_predict(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BrokenRayError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
