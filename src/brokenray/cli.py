"""Experiment driver: forward data, reconstructions, artifact predictions.

Subcommands
-----------
forward      render the phantom, apply the configured transform, write the
             sinogram and start the run's manifest
reconstruct  run FBP or Landweber, write images (text + PGM), the error
             map and the relative error
predict      write caustic / chain / polygon-radius CSVs for overlay
selftest     run the built-in numerical checks

Configs are flat INI files (see the README for every key, its default and
its check).  Loading a config converts and checks every key it uses, so a
malformed config is rejected before any output is written; unknown keys
are ignored.  A family that admits no bin is rejected when the operator is
built, also before any output.
Exit codes: 0 success, 1 configuration, usage or write error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io as _io
import math
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as brio
from . import reconstruct
from .conjugate import (
    Covector,
    caustic_curve,
    conjugate_chain,
    polygon_artifact_radii,
    tangent_conjugate_locus,
)
from .errors import BrokenRayError, ConfigError
from .geometry import Circle, Ellipse, Lines, Parabola, SampledCurve, unit_vectors
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

_REQUIRED = object()  # the default of a key that has none


def _point(text: str) -> tuple:
    x, y = text.split()
    return float(x), float(y)


def _disk_radius(text: str) -> float:
    if not text.startswith("disk:"):
        raise ValueError(text)
    return float(text[len("disk:"):])


_KIND_NAMES = {int: "an integer", float: "a number", _point: "two numbers",
               _disk_radius: "disk:<radius>"}


@dataclass
class ExperimentConfig:
    """An experiment description over a parsed INI file.

    Each section has one resolver, the only code that reads its keys: it
    converts them, applies their defaults and raises ConfigError on a
    malformed value.  Construction runs every resolver once, so a config
    that loads is well formed.  Nothing resolved is kept: each call reads
    the parser again.
    """

    parser: configparser.ConfigParser
    path: str = "<builtin>"

    def __post_init__(self):
        # a malformed key raises here, before any command writes output
        self.name, self.sino_layout(), self.boundary(), self.family(), self.parallel_offset()
        self.phantom(), self.reconstruction(), self.prediction()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        return cls(parser, str(path))

    @classmethod
    def from_string(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        return cls(parser)

    def serialize(self) -> str:
        buf = _io.StringIO()
        self.parser.write(buf)
        return buf.getvalue()

    def _read(self, section, key, kind, default=_REQUIRED, positive=False, least=None,
              choices=None):
        """The value of [section] key converted by ``kind`` (str, int,
        float, _point or _disk_radius), or ``default`` when the key is
        absent.  A value in ``choices`` is returned as written, and a str
        key must be one of them.  Numbers must be finite, and positive or
        at least ``least`` when asked."""
        raw = self.parser.get(section, key, fallback=None)
        where = f"[{section}] {key}"
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"{where} is required")
            return default
        if choices is not None and raw in choices:
            return raw
        if kind is str:
            if choices is not None:
                raise ConfigError(f"{where} = {raw!r} is not one of {', '.join(choices)}")
            return raw
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{where} = {raw!r} is not {_KIND_NAMES[kind]}") from None
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{where} = {raw!r} is not finite")
        if positive and value <= 0:
            raise ConfigError(f"{where} must be positive, got {raw!r}")
        if least is not None and value < least:
            raise ConfigError(f"{where} must be at least {least}, got {raw!r}")
        return value

    # -- one resolver per section ----------------------------------------

    @property
    def name(self) -> str:
        return self._read("experiment", "name", str, "experiment")

    def image_layout(self) -> GridImage:
        return GridImage.zeros(self._read("grid", "n", int, 128, positive=True),
                               self._read("grid", "half_width", float, 1.0, positive=True))

    def sino_layout(self) -> SinogramLayout:
        img = self.image_layout()
        return SinogramLayout(
            self._read("grid", "n_s", int, img.n, positive=True),
            self._read("grid", "n_alpha", int, 360, positive=True),
            self._read("grid", "s_max", float, img.x_max, positive=True),
        )

    def boundary(self):
        """The mirror, or None for ``kind = none``."""
        kind = self._read("boundary", "kind", str, "circle",
                          choices=("circle", "ellipse", "parabola", "generic", "none"))
        if kind == "circle":
            return Circle(self._read("boundary", "radius", float, 1.0, positive=True))
        if kind == "ellipse":
            return Ellipse(self._read("boundary", "a", float, positive=True),
                           self._read("boundary", "b", float, positive=True))
        if kind == "parabola":
            return Parabola(self._read("boundary", "focal", float, 1.0, positive=True),
                            self._read("boundary", "x_max", float, 4.0, positive=True))
        if kind == "generic":
            csv = self._read("boundary", "csv", str)
            try:
                return SampledCurve.from_csv(csv)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"[boundary] csv = {csv!r}: {exc}") from None
        return None

    @property
    def family_kind(self) -> str:
        return self._read("family", "kind", str, "full",
                          choices=("full", "half_plane", "arc", "local", "parallel"))

    def family(self) -> Family | None:
        """The Family of admitted mirror rays, or None for the parallel-ray
        transform."""
        kind = self.family_kind
        if kind == "parallel":
            return None
        if kind == "half_plane":
            return Family.half_plane_incoming(self._read("family", "direction", float, 0.0))
        if kind == "arc":
            return Family.boundary_arc(self._read("family", "tau_min", float),
                                       self._read("family", "tau_max", float))
        if kind == "local":
            s0, alpha0 = self._read("family", "s0", float), self._read("family", "alpha0", float)
            return Family.local(Lines(s0, alpha0, *unit_vectors(alpha0)),
                                self._read("family", "ds", float, 0.2, positive=True),
                                self._read("family", "dalpha", float, 0.3, positive=True))
        return Family.full()

    def parallel_offset(self) -> float | None:
        """The offset d of the parallel-ray transform, or None for a mirror
        family."""
        if self.family_kind != "parallel":
            return None
        return self._read("family", "offset", float, 0.6)

    def phantom(self) -> tuple[PhantomSpec, float]:
        """The phantom and its clip margin, in pixels, from the mirror."""
        kind = self._read("phantom", "kind", str, "gaussian",
                          choices=("gaussian", "coherent", "shepp_logan"))
        cx, cy = center = self._read("phantom", "center", _point, (0.0, 0.0))
        img = self.image_layout()
        if not (img.x_min <= cx <= img.x_max and img.y_min <= cy <= img.y_max):
            raise ConfigError(f"[phantom] center = {cx:g} {cy:g} lies outside the window")
        theta = self._read("phantom", "theta", float, 0.0)
        sigma = self._read("phantom", "sigma", float, 0.05, positive=True)
        wavenumber = self._read("phantom", "wavenumber", float, 80.0, least=0.0)
        amp = self._read("phantom", "amplitude", float, 1.0)
        # below 2 px the clipped phantom fails the operator's 2 px support check
        margin = self._read("phantom", "clip_margin_px", float, 2.0, least=2.0)
        if kind == "gaussian":
            return PhantomSpec.gaussian(center, sigma, amp), margin
        if kind == "coherent":
            return PhantomSpec.coherent(center, theta, sigma, wavenumber, amp), margin
        return PhantomSpec.shepp_logan(center, theta, amp), margin

    def reconstruction(self) -> tuple[str, LandweberConfig, float | None]:
        """The method, the Landweber settings (FBP uses none of them) and
        the radius of the disk that supports the iterates, or None.  The
        settings hold no support mask: ``cmd_reconstruct`` builds it, the
        one command that uses it."""
        method = self._read("reconstruct", "method", str, "fbp", choices=("fbp", "landweber"))
        iterations = self._read("reconstruct", "iterations", int, 100,
                                least=1 if method == "landweber" else None)
        step = self._read("reconstruct", "step_size", float, "auto", positive=True,
                          choices=("auto", ""))
        radius = self._read("reconstruct", "support_mask", _disk_radius, "none",
                            positive=True, choices=("none",))
        settings = LandweberConfig(
            step_size=None if isinstance(step, str) else step,
            n_iters=iterations,
            record_every=self._read("reconstruct", "record_every", int, 0, least=0),
        )
        return method, settings, None if radius == "none" else radius

    def prediction(self) -> tuple[int, int, int]:
        """(n_samples, max_index, n_max): the caustic's initial samples, the
        chain's length each way and the polygon radii's largest half-order."""
        return (self._read("predict", "n_samples", int, 720, least=2),
                self._read("predict", "max_index", int, 64, least=1),
                self._read("predict", "n_max", int, 5, least=2))

    # -- built from the resolvers ----------------------------------------

    def operator(self) -> RadonOperator:
        img = self.image_layout()
        sino = self.sino_layout()
        offset = self.parallel_offset()
        if offset is not None:
            return ParallelRayOperator(offset, img, sino)
        boundary = self.boundary()
        if boundary is None:
            return RadonOperator(img, sino)
        op = BrokenRayOperator(boundary, self.family(), img, sino)
        if not op.mask.any():
            raise ConfigError(f"[family] kind = {self.family_kind} admits no bin of the sinogram")
        return op

    def rendered_phantom(self) -> GridImage:
        spec, margin = self.phantom()
        img = render(spec, self.image_layout())
        boundary = self.boundary()
        if boundary is not None and self.family_kind != "parallel":
            img = clip_to_boundary(img, boundary, margin)
        return img


def _out_dir(args, cfg) -> Path:
    out = Path(args.out) if args.out else Path("runs") / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    return out


# every manifest key reconstruct writes; a later reconstruct replaces them all
_RECONSTRUCT_KEYS = ("method", "gamma", "gamma_source", "power_steps", "iterations",
                     "residual_first", "residual_last", "relative_error", "sup_error",
                     "reconstruct_elapsed_s")
POWER_ITERATION_FILE = "power_iteration.npy"
PHANTOM_FILES = ("phantom.txt", "phantom.pgm", "phantom.pgm.scale")


def _kept_manifest(out: Path, cfg) -> dict:
    """What ``reconstruct`` keeps of the run's manifest: the entries of the
    same config, less the keys an earlier reconstruct wrote; nothing for
    another config."""
    path = out / "manifest.txt"
    old = brio.read_manifest(path) if path.exists() else {}
    if old.get("config") != cfg.path:
        return {}
    return {k: v for k, v in old.items() if k not in _RECONSTRUCT_KEYS}


def _record(out: Path, cfg, entries: dict, kept: dict) -> None:
    """Write ``kept`` and ``entries`` as the run's manifest."""
    brio.write_manifest(out / "manifest.txt",
                        {**kept, "experiment": cfg.name, "config": cfg.path, **entries})


def _step_size(op, out: Path) -> tuple[float, dict]:
    """Landweber's automatic step and the manifest entries saying how it
    was found.

    ``out`` keeps the power iteration's history and the image x its last
    step was applied to.  One step from x gives that step's eigenvalue
    estimate bit for bit only when the operator, the code and the
    arithmetic are unchanged, so a match proves that the stored gamma is
    this operator's.  Anything else runs the whole iteration and stores it.
    """
    path = out / POWER_ITERATION_FILE
    try:
        history, last = brio.load_power_iteration(path)
    except (OSError, EOFError, ValueError):
        last = None
    layout = op.img_layout
    if last is not None and (last.n, last.x_min, last.x_max, last.y_min, last.y_max) == (
            layout.n, layout.x_min, layout.x_max, layout.y_min, layout.y_max):
        gamma, replay = reconstruct.step_size_estimate(op, n_steps=1, start=last,
                                                       return_history=True)
        if replay == history[-1:]:
            return gamma, {"gamma_source": "replayed", "power_steps": 1}
    gamma, history, last = reconstruct.step_size_estimate(op, return_last=True)
    brio.save_power_iteration(path, history, last)
    return gamma, {"gamma_source": "power_iteration", "power_steps": len(history)}


def cmd_forward(cfg: ExperimentConfig, args) -> int:
    op = cfg.operator()
    out = _out_dir(args, cfg)
    f = cfg.rendered_phantom()
    t0 = time.perf_counter()
    op.check_support_of(f)
    g = op.forward(f)
    brio.save_image(out / "phantom.txt", f)
    brio.save_pgm(out / "phantom.pgm", f)
    brio.save_sinogram(out / "sinogram.txt", g)
    _record(out, cfg, {
        "family": cfg.family_kind,
        "masked_bins": int(np.sum(~g.mask)),
        "forward_elapsed_s": f"{time.perf_counter() - t0:.3f}",
        "phantom_sha256": brio.image_sha256(f),
    }, kept={})
    brio.write_text(out / "config_resolved.ini", cfg.serialize())
    print(f"forward: wrote {out/'sinogram.txt'}")
    return 0


def cmd_reconstruct(cfg: ExperimentConfig, args) -> int:
    op = cfg.operator()
    out = _out_dir(args, cfg)
    f_true = cfg.rendered_phantom()
    op.check_support_of(f_true)
    g = op.forward(f_true)
    method, lw_cfg, radius = cfg.reconstruction()
    entries = {"method": method}
    t0 = time.perf_counter()
    if method == "fbp":
        rec = fbp(g, op)
    else:
        if radius is not None:
            img = op.img_layout
            mask = np.hypot(img.x_centers, img.y_centers[:, None]) <= radius
            lw_cfg = replace(lw_cfg, support_mask=mask.astype(float))
        step = {"gamma_source": "config", "power_steps": 0}
        if lw_cfg.step_size is None:
            gamma, step = _step_size(op, out)
            lw_cfg = replace(lw_cfg, step_size=gamma)
        result = landweber(g, op, lw_cfg)
        rec = result.final
        entries.update(gamma=f"{result.gamma:.8g}", **step, iterations=result.n_iters,
                       residual_first=f"{result.residuals[0]:.8g}",
                       residual_last=f"{result.residuals[-1]:.8g}")
        for k, snap in result.snapshots:
            brio.save_image(out / f"iterate_k{k:04d}.txt", snap)
        # the first backprojection step doubles as the f^(1) diagnostic
        brio.save_image(out / "backprojection_f1.txt", result.first)
        brio.save_pgm(out / "backprojection_f1.pgm", result.first)
    err = error_map(f_true, rec)
    e = relative_error(f_true, rec)
    entries["relative_error"] = f"{e:.8g}"
    entries["sup_error"] = f"{float(np.max(np.abs(err.data))):.8g}"
    entries["reconstruct_elapsed_s"] = f"{time.perf_counter() - t0:.3f}"
    kept = _kept_manifest(out, cfg)
    entries["phantom_sha256"] = digest = brio.image_sha256(f_true)
    # files written from an image with this digest are already these bytes
    if kept.get("phantom_sha256") != digest or not all(
            (out / name).exists() for name in PHANTOM_FILES):
        brio.save_image(out / "phantom.txt", f_true)
        brio.save_pgm(out / "phantom.pgm", f_true)
    brio.save_image(out / "reconstruction.txt", rec)
    brio.save_pgm(out / "reconstruction.pgm", rec)
    brio.save_image(out / "error_map.txt", err)
    brio.save_pgm(out / "error_map.pgm", err)
    _record(out, cfg, entries, kept)
    brio.write_text(out / "config_resolved.ini", cfg.serialize())
    print(f"reconstruct[{method}]: relative error e = {e:.4g}; wrote {out}")
    return 0


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args, cfg)
    boundary = cfg.boundary()
    spec, _ = cfg.phantom()
    img = cfg.image_layout()
    n_samples, max_index, n_max = cfg.prediction()
    wrote = []
    if boundary is not None:
        source = np.asarray(spec.center, dtype=float)
        curve = caustic_curve(source, boundary, n_samples=n_samples, refine_dist=2.0 * img.dx)
        brio.save_caustic_csv(out / "caustic.csv", curve)
        wrote.append("caustic.csv")
        dist = np.linalg.norm(source)
        # the chain needs a source inside the circle, the locus one off its centre
        if isinstance(boundary, Circle) and dist < boundary.radius:
            cv = Covector(source, unit_vectors(spec.theta)[1])
            chain = conjugate_chain(cv, boundary.radius, max_index)
            brio.save_chain_csv(out / "chain.csv", chain)
            wrote.append("chain.csv")
            if dist > 1e-9:
                locus = tangent_conjugate_locus(source, boundary.radius)
                brio.save_locus_csv(out / "tangent_locus.csv", locus)
                wrote.append("tangent_locus.csv")
    brio.save_polygon_radii_csv(out / "polygon_radii.csv", polygon_artifact_radii(n_max))
    wrote.append("polygon_radii.csv")
    print(f"predict: wrote {', '.join(wrote)} in {out}")
    return 0


def _selftest_checks(n: int):
    """Yield (name, passed, detail) for the built-in numerical checks."""
    from .conjugate import conjugate_point, source_derivatives
    from .geometry import cross2, dot2, reflect

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
    rhs = image_inner(f, radon_adjoint(h, img))
    rel = abs(lhs - rhs) / abs(lhs)
    yield "radon adjoint dot product", rel < 1e-5, f"rel={rel:.2e}"

    op = BrokenRayOperator(Circle(1.0), Family.full(), img, lay)
    gb = op.forward(f)
    hb = gb.copy_with(rng.standard_normal(gb.data.shape))
    lhs = sino_inner(gb, hb)
    rhs = image_inner(f, op.adjoint(hb))
    rel = abs(lhs - rhs) / abs(lhs)
    yield "broken-ray adjoint dot product", rel < 1e-4, f"rel={rel:.2e}"

    def rays_from(boundary, p, alpha, jacobian=False):
        pencil = Lines.through(p, alpha)
        return reflect(boundary, pencil.s, alpha, pencil.coord_of(p), jacobian=jacobian)

    # every ray from a source near the centre reflects; one that did not
    # holds NaN, which np.maximum carries into each deviation below
    circle, ellipse = Circle(1.0), Ellipse(1.4, 0.9)
    mirrors = (
        # (mirror, |x| - R or its ellipse analogue, the normal's direction)
        (circle, lambda x: np.hypot(x[:, 0], x[:, 1]) - 1.0, lambda x: x),
        (ellipse, lambda x: np.hypot(x[:, 0] / 1.4, x[:, 1] / 0.9) - 1.0,
         lambda x: x / [1.4**2, 0.9**2]),
    )
    off_curve = specular = det = 0.0
    missed = 0
    for boundary, level, gradient in mirrors:
        p = rng.uniform(-0.4, 0.4, size=(50, 2))
        rays = rays_from(boundary, p, rng.uniform(0.0, 2 * math.pi, size=50), jacobian=True)
        x, grad = rays.hit_point, gradient(rays.hit_point)
        n_hat = grad / np.hypot(grad[:, 0], grad[:, 1])[:, None]
        v1, v2 = rays.line_in.v, rays.line_out.v
        mirrored = v1 - 2.0 * dot2(v1, n_hat)[:, None] * n_hat
        missed += int(np.count_nonzero(~rays.ok))
        off_curve = np.maximum(off_curve, np.max(np.abs(level(x))))
        specular = np.maximum(specular, np.max(np.abs(v2 - mirrored)))
        det = np.maximum(det, np.max(np.abs(np.linalg.det(rays.jacobian) - 1.0)))
    yield "reflection hits lie on the mirror", missed == 0 and off_curve < 1e-12, (
        f"max dev={off_curve:.2e}, {missed} rays not reflected"
    )
    yield "equal angles to the normal", specular < 1e-12, f"max dev={specular:.2e}"
    yield "reflection det(d chi) = 1", det < 1e-6, f"max|det-1|={det:.2e}"

    s, alpha = rng.uniform(-0.4, 0.4, size=50), rng.uniform(0.0, 2 * math.pi, size=50)
    rays = reflect(circle, s, alpha, 0.0)
    dev = np.maximum(np.max(np.abs(rays.line_out.s - s)),
                     np.max(np.abs(rays.line_out.alpha - (alpha + 2.0 * np.arcsin(s) + math.pi))))
    yield "circle: s2 = s1, a2 = a1 + 2 asin(s1/R) + pi", dev < 1e-12, f"max dev={dev:.2e}"

    p = rng.uniform(-0.4, 0.4, size=(30, 2))
    alpha = rng.uniform(0.0, 2 * math.pi, size=30)
    rays = rays_from(circle, p, alpha, jacobian=True)
    keep = source_derivatives(p, rays)[0] >= 0.3
    q, p, alpha = conjugate_point(p, rays)[keep], p[keep], alpha[keep]
    # the envelope: where the reflections of two nearby rays from p cross
    e1, e2 = rays_from(circle, p, alpha - 5e-5), rays_from(circle, p, alpha + 5e-5)
    v1, v2 = e1.line_out.v, e2.line_out.v
    t = cross2(e2.hit_point - e1.hit_point, v2) / cross2(v1, v2)
    q_env = e1.hit_point + t[:, None] * v1
    worst = float(np.max(np.linalg.norm(q - q_env, axis=1), initial=0.0))
    yield "conjugate point envelope oracle", len(p) > 10 and worst < 1e-3, (
        f"max dev={worst:.2e} over {len(p)} rays"
    )

    rec = radon_adjoint(lambda_filter(g), img)
    e = float(np.linalg.norm(rec.data - f.data) / np.linalg.norm(f.data))
    yield "filtered backprojection identity", e < 0.08, f"rel L2 err={e:.3f}"

    small = RadonOperator(GridImage.zeros(32), SinogramLayout(32, 40, 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        (gamma, first), (again, second) = [_step_size(small, Path(tmp)) for _ in range(2)]
    sources = (first["gamma_source"], second["gamma_source"])
    yield "power iteration resumes from its stored iterate", (
        again == gamma and sources == ("power_iteration", "replayed")
    ), f"gamma={gamma!r}, resumed {again!r} ({' then '.join(sources)})"


def cmd_selftest(args) -> int:
    t0 = time.perf_counter()
    failures = 0
    for name, ok, detail in _selftest_checks(args.n):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"selftest finished in {time.perf_counter() - t0:.1f}s, {failures} failure(s)")
    return 0 if failures == 0 else 2


def _grid_size(text: str) -> int:
    """An image size of at least 2 pixels, for argparse."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 2")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse_args
    call fills a fresh namespace, so calls share no values."""
    ap = argparse.ArgumentParser(prog="brokenray", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("forward", "reconstruct", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    p = sub.add_parser("selftest")
    p.add_argument("--n", type=_grid_size, default=128, help="image size, an integer >= 2")
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0

    if args.command == "selftest":
        return cmd_selftest(args)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.command == "forward":
            return cmd_forward(cfg, args)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args)
        return cmd_predict(cfg, args)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BrokenRayError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory or a file in it cannot be made
        print(f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
