"""Plain-text file formats for images, sinograms and prediction CSVs.

GridImage: header ``n x_min x_max y_min y_max``, then n rows of n floats,
top row = largest y.  Sinogram: header ``n_s n_alpha s_max``, then n_alpha
rows of n_s floats with masked bins as nan.  PGM export is 16-bit binary
with the affine scaling recorded in a sidecar.  Every float is written
``%.17g``, so it reads back exactly.  The one binary file is a stored power
iteration (``save_power_iteration``), which must cost little to write on
every first ``reconstruct``.

Every writer creates its file anew (``_create``): whatever the path holds
is unlinked, then a new file is made.  On ext4 mounted with ``discard``,
truncating an existing file of 12 B to 81 KB and writing it again cost
69-120 us, against 16-30 us for a new file, and a forward -> reconstruct ->
predict round writes about 20 files.  So a hard link to an old output
keeps the old bytes, a symbolic link at an output path is replaced by a
regular file (its target is left alone), and a new file takes the
process's default permissions, not the old file's.  The power iteration is
still written under a temporary name and renamed into place, so that a
reader finds the old file or the whole new one.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from pathlib import Path

import numpy as np

from .conjugate import CausticCurve, ConjugateChain, TangentLocus
from .transforms import GridImage, Sinogram


def _create(path, binary: bool = False):
    """A new file at ``path``, open for writing; what the path held is
    unlinked first, never truncated or written through."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "xb" if binary else "x")


def _image_header(img: GridImage) -> str:
    return f"{img.n} {img.x_min:.17g} {img.x_max:.17g} {img.y_min:.17g} {img.y_max:.17g}\n"


def save_image(path, img: GridImage) -> None:
    with _create(path) as fh:
        fh.write(_image_header(img))
        _write_matrix(fh, img.data[::-1])


def image_sha256(img: GridImage) -> str:
    """SHA-256 of the image header and its float64 samples.  The text and
    PGM writers are deterministic, so images with one digest write
    identical files."""
    h = hashlib.sha256(_image_header(img).encode())
    h.update(np.ascontiguousarray(img.data, dtype="<f8").tobytes())
    return h.hexdigest()


def load_image(path) -> GridImage:
    with open(path) as fh:
        header = fh.readline().split()
        n = int(header[0])
        x_min, x_max, y_min, y_max = map(float, header[1:5])
        data = np.loadtxt(fh)
    data = np.atleast_2d(data)
    if data.shape != (n, n):
        raise ValueError(f"expected {n}x{n} samples, found {data.shape}")
    return GridImage(data[::-1].copy(), x_min, x_max, y_min, y_max)


def save_power_iteration(path, history, last: GridImage) -> None:
    """One float64 ``.npy`` vector: n, x_min, x_max, y_min, y_max, the
    history, then the n*n samples of ``last`` row by row.  Written under a
    temporary name of this process and renamed, so that a reader finds the
    old file or the whole new one."""
    head = [last.n, last.x_min, last.x_max, last.y_min, last.y_max]
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, np.concatenate([head, history, last.data.ravel()]))
    os.replace(tmp, path)


def load_power_iteration(path) -> tuple[list, GridImage]:
    """(history, last); raises OSError, EOFError or ValueError on a file
    that is missing or malformed."""
    v = np.load(path, allow_pickle=False)
    ok = v.ndim == 1 and v.dtype == np.float64 and v.size > 5 and np.isfinite(v[0])
    n = int(v[0]) if ok else 0
    if n < 1 or v[0] != n or v.size <= 5 + n * n:
        raise ValueError(f"{path}: not a stored power iteration")
    data = v[v.size - n * n:].reshape(n, n).copy()
    return v[5:v.size - n * n].tolist(), GridImage(data, *v[1:5].tolist())


def save_sinogram(path, g: Sinogram) -> None:
    with _create(path) as fh:
        fh.write(f"{g.n_s} {g.n_alpha} {g.s_max:.17g}\n")
        _write_matrix(fh, g.data)


def load_sinogram(path) -> Sinogram:
    with open(path) as fh:
        header = fh.readline().split()
        n_s, n_alpha = int(header[0]), int(header[1])
        s_max = float(header[2])
        data = np.loadtxt(fh)
    data = np.atleast_2d(data)
    if data.shape != (n_alpha, n_s):
        raise ValueError(f"expected {n_alpha}x{n_s} samples, found {data.shape}")
    return Sinogram(data, s_max)


def save_pgm(path, img: GridImage) -> None:
    """16-bit binary PGM, min-max scaled; scaling goes to ``<path>.scale``."""
    lo = float(np.nanmin(img.data))
    hi = float(np.nanmax(img.data))
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((img.data[::-1] - lo) / span, 0.0, 1.0)
    pixels = (scaled * 65535.0).astype(">u2")
    with _create(path, binary=True) as fh:
        fh.write(f"P5\n{img.n} {img.n}\n65535\n".encode())
        fh.write(pixels.tobytes())
    with _create(str(path) + ".scale") as fh:
        fh.write(f"min {lo:.17g}\nmax {hi:.17g}\n")


def _write_rows(fh, fmt: str, values: list) -> None:
    """Write ``values``, flat and row after row, with one %-format; ``fmt``
    formats one row, newline included, with one conversion per value."""
    fh.write((fmt * (len(values) // fmt.count("%"))) % tuple(values))


# values per _write_rows call of a text matrix, which bounds the Python
# floats it holds at once
_MATRIX_BLOCK = 1 << 16


def _write_matrix(fh, data: np.ndarray) -> None:
    """The rows of a 2-d array as lines of space-separated ``%.17g``, the
    bytes ``np.savetxt(fh, data, fmt="%.17g")`` writes, in blocks of whole
    rows."""
    n_rows, n_cols = data.shape
    fmt = " ".join(["%.17g"] * n_cols) + "\n"
    step = max(1, _MATRIX_BLOCK // n_cols)
    for i in range(0, n_rows, step):
        _write_rows(fh, fmt, data[i:i + step].ravel().tolist())


def _columns(*columns: np.ndarray) -> list:
    """The values of equally long columns, flat and row after row."""
    return list(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))


def _flags(outside: np.ndarray) -> np.ndarray:
    return np.where(outside, "outside_domain", "ok")


def save_caustic_csv(path, curve: CausticCurve) -> None:
    """One row per point, then ``# unrefined_outside,<count>,refine_dist,<d>``:
    how many intervals longer than ``refine_dist`` were left unbisected
    because both their ends lie outside the mirror."""
    pts = curve.points
    with _create(path) as fh:
        fh.write("alpha,t,x,y,flag\n")
        _write_rows(fh, "%.12g,%.12g,%.12g,%.12g,%s\n",
                    _columns(pts.alpha, pts.t, *pts.point.T, _flags(pts.outside_domain)))
        fh.write(f"# unrefined_outside,{curve.unrefined_outside},"
                 f"refine_dist,{curve.refine_dist}\n")


def save_locus_csv(path, locus: TangentLocus) -> None:
    zeros = [v for z in locus.zeros for v in
             (z.alpha, z.t, f"zero:{z.kind}:{'simple' if z.simple else 'degenerate'}")]
    with _create(path) as fh:
        fh.write("alpha,t,x,y,flag\n")
        _write_rows(fh, "%.12g,%.12g,%.12g,%.12g,ok\n",
                    np.column_stack([locus.alpha, locus.t, locus.points]).ravel().tolist())
        _write_rows(fh, "%.12g,%.12g,nan,nan,%s\n", zeros)


def save_chain_csv(path, chain: ConjugateChain) -> None:
    with _create(path) as fh:
        fh.write("index,x,y,xi_x,xi_y,status\n")
        _write_rows(fh, "%d,%.12g,%.12g,%.12g,%.12g,%s\n",
                    _columns(chain.index, *chain.x.T, *chain.xi.T, _flags(chain.outside_domain)))
        for name, status in (("positive", chain.status_positive),
                             ("negative", chain.status_negative)):
            fh.write(f"# status_{name},{status.kind},{status.index}\n")


def save_polygon_radii_csv(path, radii: np.recarray) -> None:
    """One row per radius of ``conjugate.polygon_artifact_radii``."""
    with _create(path) as fh:
        fh.write("radius,p,q\n")
        _write_rows(fh, "%.12g,%d,%d\n", _columns(radii.radius, radii.p, radii.q))


def write_manifest(path, entries: dict) -> None:
    with _create(path) as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def write_text(path, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
