"""Output checks computed apart from the program.

Every expected value here comes from closed forms and from the benchmark's
own vectorised geometry (chord exit, mirror-normal reflection), never from
a stored copy of the program's output.  Each check returns
``(ok, detail)``; a check that cannot parse its file fails.
"""

from __future__ import annotations

import math
import re
from math import gcd
from pathlib import Path

import numpy as np

# the program's containers only carry arrays into its operators
from brokenray.transforms import Sinogram

# the program's grazing threshold (geometry.GRAZING_COS): bins whose ray
# meets the mirror with cos(beta) below it are masked
GRAZING_COS = 0.05

# adjoint pairs are exact transposes, so only summation rounding remains
ADJOINT_TOL = 1e-10
# the envelope of rays 1e-6 rad apart lands within 1e-9 (1 + reach^2) of
# the program's conjugate points; reach is the distance from the mirror
CAUSTIC_DELTA = 1e-6
CAUSTIC_TOL = 1e-6
# CSV columns carry 12 significant digits: each value is off by up to
# CSV_REL of itself, and a point by CSV_TOL of its distance scale
CSV_REL = 5e-12
CSV_TOL = 1e-8


def forward_tol(inp) -> float:
    """Share of the peak |expected| by which a forward sinogram may differ
    from the closed form.  The program integrates the bilinear interpolant
    of the sampled phantom; across a pixel of width dx linear interpolation
    misses the integral by dx^2/12 |f''|, and |f''| / |f| of a coherent
    Gaussian is at most 1/sigma^2 + k^2.  The margin 1.5 covers the
    half-pixel trapezoid rule along the line."""
    return 1.5 * inp.dx**2 / 12.0 * (1.0 / inp.sigma**2 + inp.wavenumber**2)


def _load_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().split()
        data = np.atleast_2d(np.loadtxt(fh))
    return header, data


def load_image(path: Path) -> np.ndarray:
    """Image file -> array indexed [iy, ix] with y increasing."""
    header, data = _load_matrix(path)
    n = int(header[0])
    if data.shape != (n, n):
        raise ValueError(f"{path.name}: expected {n}x{n} samples, found {data.shape}")
    return data[::-1]


def load_sinogram(path: Path) -> np.ndarray:
    header, data = _load_matrix(path)
    shape = (int(header[1]), int(header[0]))
    if data.shape != shape:
        raise ValueError(f"{path.name}: expected {shape} samples, found {data.shape}")
    return data


def read_manifest(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> list[list[str]]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------------------ own geometry

def grid(inp):
    """Cell-centred offsets and periodic angles of the sinogram."""
    ds = 2.0 * inp.s_max / inp.n_s
    s = -inp.s_max + (np.arange(inp.n_s) + 0.5) * ds
    alpha = np.arange(inp.n_alpha) * (2.0 * math.pi / inp.n_alpha)
    return s, alpha, ds, 2.0 * math.pi / inp.n_alpha


def _vw(alpha):
    alpha = np.asarray(alpha, dtype=float)
    v = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
    w = np.stack([-np.sin(alpha), np.cos(alpha)], axis=-1)
    return v, w


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def chord_exit(mirror, p0, v):
    """Exit point, outward normal and cos(beta) of the rays p0 + t v through
    a circle or an axis-aligned ellipse; NaN where a ray misses."""
    if mirror[0] == "circle":
        a = b = mirror[1]
    else:
        a, b = mirror[1], mirror[2]
    scale = np.array([1.0 / a**2, 1.0 / b**2])
    qa = _dot(v * v, scale)
    qb = 2.0 * _dot(p0 * v, scale)
    qc = _dot(p0 * p0, scale) - 1.0
    disc = qb * qb - 4.0 * qa * qc
    with np.errstate(invalid="ignore"):
        t = (-qb + np.sqrt(disc)) / (2.0 * qa)
    hit = p0 + t[..., None] * v
    grad = hit * scale
    normal = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    return hit, normal, _dot(v, normal)


def reflect(mirror, p0, v):
    """Mirror-normal reflection of the rays p0 + t v at their chord exit:
    (hit, outgoing direction, s2, alpha2, cos beta)."""
    hit, normal, cos_b = chord_exit(mirror, p0, v)
    v2 = v - 2.0 * cos_b[..., None] * normal
    alpha2 = np.arctan2(v2[..., 1], v2[..., 0])
    _, w2 = _vw(alpha2)
    return hit, v2, _dot(hit, w2), alpha2, cos_b


def radon_closed_form(inp, s, alpha):
    """Line integral of the (coherent) Gaussian phantom over {x.w = s}:
    A sigma sqrt(2 pi) exp(-s'^2/2 sigma^2) exp(-(k b sigma)^2/2) cos(k a s')
    with s' = s - c.w, a = <w, w_theta>, b = <v, w_theta>."""
    v, w = _vw(alpha)
    c = np.asarray(inp.center)
    w_theta = np.array([-math.sin(inp.theta), math.cos(inp.theta)])
    sp = s - _dot(w, c)
    k, sig = inp.wavenumber, inp.sigma
    return (inp.amplitude * sig * math.sqrt(2.0 * math.pi)
            * np.exp(-sp**2 / (2.0 * sig**2))
            * np.exp(-((k * _dot(v, w_theta) * sig) ** 2) / 2.0)
            * np.cos(k * _dot(w, w_theta) * sp))


def resample(table, inp, s2, a2):
    """Bilinear resample of a sinogram at (s2, a2): periodic in the angle,
    zero weight beyond the sampled offsets (the program's documented
    discretisation of the second leg)."""
    _, _, ds, da = grid(inp)
    gs = (s2 + inp.s_max) / ds - 0.5
    ga = np.mod(a2, 2.0 * math.pi) / da
    is0, ia0 = np.floor(gs).astype(int), np.floor(ga).astype(int)
    fs, fa = gs - is0, ga - ia0
    out = np.zeros(np.shape(s2))
    for dia, wa in ((0, 1.0 - fa), (1, fa)):
        for dis, ws in ((0, 1.0 - fs), (1, fs)):
            ks, ka = is0 + dis, (ia0 + dia) % inp.n_alpha
            inside = (ks >= 0) & (ks < inp.n_s)
            out += np.where(inside, table[ka, np.clip(ks, 0, inp.n_s - 1)], 0.0) * wa * ws
    return out


def expected_sinogram(inp):
    """(expected values, admissible-bin mask, margin of each bin from the
    grazing threshold) for the workload's transform."""
    s, alpha, _, _ = grid(inp)
    S, A = np.meshgrid(s, alpha)
    direct = radon_closed_form(inp, S, A)
    if inp.offset is not None:
        second = resample(direct, inp, S + inp.offset, A)
        return direct + second, np.ones(S.shape, bool), np.full(S.shape, np.inf)
    v, w = _vw(A)
    _, _, s2, a2, cos_b = reflect(inp.mirror, S[..., None] * w, v)
    with np.errstate(invalid="ignore"):
        admitted = cos_b >= GRAZING_COS
    expected = direct + resample(direct, inp, np.nan_to_num(s2), np.nan_to_num(a2))
    return expected, admitted, np.abs(np.nan_to_num(cos_b, nan=-1.0) - GRAZING_COS)


# ------------------------------------------------------------------ checks

def check_forward(inp, out: Path):
    """sinogram.txt against the closed form on both legs, and the masked
    bins against the benchmark's own admissibility test."""
    got = load_sinogram(out / "sinogram.txt")
    expected, admitted, margin = expected_sinogram(inp)
    valid = ~np.isnan(got)
    wrong_mask = int(np.sum((valid != admitted) & (margin > 1e-9)))
    err = float(np.max(np.abs(got[valid] - expected[valid]), initial=0.0))
    peak = float(np.max(np.abs(expected[admitted])))
    tol = forward_tol(inp)
    ok = wrong_mask == 0 and err <= tol * peak
    return ok, (f"max|g - closed form| = {err / peak:.2e} of peak (<= {tol:.2e}), "
                f"{wrong_mask} bins masked unlike the own test, {int(valid.sum())} admitted")


def random_pair(op, rng):
    """A random image and sinogram in the operator's layouts."""
    f = op.img_layout.copy_with(rng.standard_normal(op.img_layout.data.shape))
    lay = op.sino_layout
    return f, rng.standard_normal((lay.n_alpha, lay.n_s))


def check_adjoint(op, f, g):
    """<A f, g> = <f, A* g> in the weighted pairings, over valid bins."""
    lay = op.sino_layout
    af = op.forward(f).data
    valid = ~np.isnan(af)
    lhs = float(np.sum(af[valid] * g[valid])) * (2.0 * lay.s_max / lay.n_s) * (2.0 * math.pi / lay.n_alpha)
    back = op.adjoint(Sinogram(g, lay.s_max)).data
    dx = (op.img_layout.x_max - op.img_layout.x_min) / op.img_layout.n
    rhs = float(np.sum(f.data * back)) * dx * dx
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return rel <= ADJOINT_TOL, f"|<Af,g> - <f,A*g>| = {rel:.2e} relative (<= {ADJOINT_TOL})"


def _digits_tol(printed: float, digits: int) -> float:
    """Half a unit in the last of ``digits`` significant digits."""
    if printed == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - digits + 1)


def check_relative_error(out: Path, stdout: str, manifest: dict):
    """|rec - f| / |f| from the text images, against what the CLI printed
    (4 digits) and wrote to the manifest (8 digits)."""
    f = load_image(out / "phantom.txt")
    rec = load_image(out / "reconstruction.txt")
    e = float(np.linalg.norm(rec - f) / np.linalg.norm(f))
    match = re.search(r"relative error e = (\S+);", stdout)
    if match is None or "relative_error" not in manifest:
        return False, "no relative error printed or in the manifest"
    printed, recorded = float(match.group(1)), float(manifest["relative_error"])
    ok = (abs(e - printed) <= _digits_tol(printed, 4) * (1 + 1e-9)
          and abs(e - recorded) <= _digits_tol(recorded, 8) * 2)
    return ok, f"own e = {e:.8g}, printed {printed:.4g}, manifest {recorded:.8g}"


def half_lambda(rows, ds):
    """(|sigma| / 4 pi)^(1/2) along each row, zero-padded to twice its
    length; the square root of the filter the iteration applies."""
    n_s = rows.shape[1]
    freqs = np.fft.rfftfreq(2 * n_s, d=ds)
    mult = np.sqrt(2.0 * math.pi * freqs / (4.0 * math.pi))
    return np.fft.irfft(np.fft.rfft(rows, n=2 * n_s, axis=1) * mult, n=2 * n_s, axis=1)[:, :n_s]


def check_landweber_residual(inp, op, out: Path, manifest: dict):
    """The filtered residual |Lambda^(1/2)(g - A f)| at the reconstruction
    ends below its value at f = 0, and the manifest's first residual is
    that value."""
    _, _, ds, da = grid(inp)
    g = np.nan_to_num(load_sinogram(out / "sinogram.txt"))
    rec = load_image(out / "reconstruction.txt")
    af = op.forward(op.img_layout.copy_with(rec)).data

    def norm(rows):
        return math.sqrt(float(np.sum(half_lambda(rows, ds) ** 2)) * ds * da)

    r0, r_end = norm(g), norm(g - np.nan_to_num(af))
    try:
        first = float(manifest["residual_first"])
        last = float(manifest["residual_last"])
    except (KeyError, ValueError):
        return False, "no residuals in the manifest"
    ok = r_end < r0 and last < first and abs(first - r0) <= 1e-6 * r0
    return ok, (f"residual {r0:.6g} at f = 0 -> {r_end:.6g} at the result; "
                f"manifest {first:.6g} -> {last:.6g}")


def _rays_from(mirror, p, alpha):
    v, _ = _vw(alpha)
    return reflect(mirror, np.broadcast_to(p, v.shape), v)


def check_caustic(inp, out: Path):
    """Points flagged ok lie on the envelope of the reflected rays of their
    two neighbouring directions, and t is the path length to them."""
    rows = [r for r in read_csv(out / "caustic.csv") if r[4] == "ok"]
    if not rows:
        return False, "no caustic points flagged ok"
    vals = np.array([[float(x) for x in r[:4]] for r in rows])
    alpha, t, q = vals[:, 0], vals[:, 1], vals[:, 2:4]
    p = np.asarray(inp.center)
    h1, u1, *_ = _rays_from(inp.mirror, p, alpha - CAUSTIC_DELTA)
    h2, u2, *_ = _rays_from(inp.mirror, p, alpha + CAUSTIC_DELTA)
    # h1 + a u1 = h2 + b u2
    det = u1[:, 0] * (-u2[:, 1]) + u2[:, 0] * u1[:, 1]
    d = h2 - h1
    a = (d[:, 0] * (-u2[:, 1]) + u2[:, 0] * d[:, 1]) / det
    envelope = h1 + a[:, None] * u1
    hit, u, *_ = _rays_from(inp.mirror, p, alpha)
    reach = np.linalg.norm(q - hit, axis=1)
    dev = np.linalg.norm(q - envelope, axis=1) / (1.0 + reach**2)
    path = np.linalg.norm(hit - p, axis=1) + _dot(q - hit, u)
    t_dev = np.abs(path - t) / (1.0 + np.abs(t))
    worst, worst_t = float(dev.max()), float(t_dev.max())
    ok = worst <= CAUSTIC_TOL and worst_t <= CAUSTIC_TOL
    return ok, (f"{len(rows)} points: max envelope deviation {worst:.2e} and path-length "
                f"deviation {worst_t:.2e} (<= {CAUSTIC_TOL}, per (1 + reach^2))")


def locus_F(p, radius, alpha, t):
    """F(alpha, t) = (2 t1 / (R cos b) - 1)(t - t1) - t1 for the ray from p
    with angle alpha, t1 its chord length to the circle, sin b = <p, w>/R."""
    v, w = _vw(alpha)
    s = _dot(w, p)
    t1 = -_dot(v, p) + np.sqrt(radius**2 - s**2)
    cos_b = np.sqrt(1.0 - (s / radius) ** 2)
    slope = 2.0 * t1 / (radius * cos_b) - 1.0
    return slope * (t - t1) - t1, slope, t1


def check_tangent_locus(inp, out: Path):
    """Every row satisfies F(alpha, t) = 0 up to the rounding of its two
    printed columns; ok rows sit at the path length t along the reflected
    ray; zero rows sit where beta = 0 or <p, v> = 0."""
    rows = read_csv(out / "tangent_locus.csv")
    if not rows:
        return False, "empty tangent locus"
    p = np.asarray(inp.center)
    radius = inp.mirror[1]
    vals = np.array([[float(x) for x in r[:2]] for r in rows])
    alpha, t = vals[:, 0], vals[:, 1]
    F, slope, t1 = locus_F(p, radius, alpha, t)
    h = 1e-7
    dF_da = (locus_F(p, radius, alpha + h, t)[0] - locus_F(p, radius, alpha - h, t)[0]) / (2 * h)
    # near D = 0 the locus runs off to t ~ 1e4 and dF/d alpha ~ 1e4, so the
    # rounding of alpha alone moves F by ~1e-7 there
    allowed = (4 * CSV_REL * (np.abs(dF_da * alpha) + np.abs(slope * t))
               + 1e-13 * (1.0 + np.abs(slope * t) + t1))
    f_dev = float(np.max(np.abs(F) / allowed))
    ok_rows = np.array([r[4] == "ok" for r in rows])
    pts = np.array([[float(r[2]), float(r[3])] for r in rows])[ok_rows]
    hit, u, *_ = _rays_from(inp.mirror, p, alpha[ok_rows])
    own = hit + (t[ok_rows] - t1[ok_rows])[:, None] * u
    p_dev = float(np.max(np.linalg.norm(own - pts, axis=1) / (1.0 + np.abs(t[ok_rows]))))
    z_dev = 0.0
    for r, a in zip(rows, alpha):
        if r[4].startswith("zero:"):
            v, w = _vw(a)
            z_dev = max(z_dev, abs(float(_dot(w if "through_center" in r[4] else v, p))))
    ok = f_dev <= 1.0 and max(p_dev, z_dev) <= CSV_TOL
    return ok, (f"{len(rows)} rows: max |F| {f_dev:.2f} of its rounding allowance, position "
                f"{p_dev:.1e}, zero placement {z_dev:.1e} (<= {CSV_TOL})")


def polygon_table(n_max: int):
    """(radius, p, q) for the even polygons p = 2n <= 2 n_max with odd
    coprime winding q < p/2, radius cos(q pi / p), largest first."""
    table = {}
    for n in range(2, n_max + 1):
        p = 2 * n
        for q in range(1, n, 2):
            if gcd(p, q) == 1:
                table.setdefault(round(math.cos(q * math.pi / p), 12), (math.cos(q * math.pi / p), p, q))
    return sorted(table.values(), reverse=True)


def check_polygon_radii(inp, out: Path):
    rows = read_csv(out / "polygon_radii.csv")
    got = [(float(r[0]), int(r[1]), int(r[2])) for r in rows]
    want = polygon_table(inp.n_max)
    ok = len(got) == len(want) and all(
        g[1:] == w[1:] and abs(g[0] - w[0]) <= CSV_TOL for g, w in zip(got, want))
    return ok, f"{len(got)} radii against {len(want)} of cos(q pi / p)"
