"""Plain-text file formats for images, sinograms and prediction CSVs.

GridImage: header ``n x_min x_max y_min y_max``, then n rows of n floats,
top row = largest y.  Sinogram: header ``n_s n_alpha s_max``, then n_alpha
rows of n_s floats with masked bins as nan.  PGM export is 16-bit binary
with the affine scaling recorded in a sidecar.  Every float is written
``%.17g``, so it reads back exactly, and an image or sinogram file holds
the bytes ``np.savetxt(fmt="%.17g")`` writes.  A block of 512 values or
more is built from exact integers (``_format_block``): numpy rounds each
value to its 17 significant digits, and one %-format writes those
integers through a template per value.  That costs about 0.6 of '%.17g'
per 64 x 64 image: about 1.1 ms against 1.9 ms for a reconstruction, and
0.95 ms against 1.6 ms for a Gaussian phantom (median of 200 writes, one
BLAS thread).  The one binary file is a stored power iteration
(``save_power_iteration``), which must cost little to write on every first
``reconstruct``.

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


# values per block of a text matrix, which bounds the Python objects it
# holds at once
_MATRIX_BLOCK = 1 << 16

# a block of fewer values is written by '%.17g' alone: the exact digits'
# numpy calls cost about 0.1 ms per block whatever its size and save about
# 0.25 us per value, so they break even at 400-500 values (slower on the
# 384-value ellipse sinogram, 0.6 of the time on a 64 x 64 image)
_EXACT_MIN_VALUES = 512


def _write_matrix(fh, data: np.ndarray) -> None:
    """The rows of a 2-d array as lines of space-separated ``%.17g``, the
    bytes ``np.savetxt(fh, data, fmt="%.17g")`` writes, in blocks of whole
    rows, each written from exact integers (``_format_block``) or, below
    ``_EXACT_MIN_VALUES`` values, through '%.17g' itself."""
    n_rows, n_cols = data.shape
    fmt = " ".join(["%.17g"] * n_cols) + "\n"
    step = max(1, _MATRIX_BLOCK // n_cols)
    for i in range(0, n_rows, step):
        block = data[i:i + step]
        if block.size < _EXACT_MIN_VALUES:
            _write_rows(fh, fmt, block.ravel().tolist())
        else:
            fh.write(_format_block(block))


# The %.17g text of most values is built from exact integers.  %.17g rounds
# x half-even to 17 significant digits, N * 10**(k - 16) with N in
# [1e16, 1e17), and prints N's digits in fixed form when -4 <= k < 17, else
# in exponent form, with trailing zeros stripped.  N is x * 10**p rounded,
# p = 16 - k.  For p <= 22, 10**p is a double and Dekker's product gives
# x * 10**p exactly as hi + lo, so a halfway case rounds by parity.  For
# larger p (0 < |x| < 1e-6), x is scaled by 2**s, exactly, and multiplied by
# 10**p / 2**s held as a double c plus a double rest: the product by the
# rest and one sum are rounded, so hi + lo is within 4e-15 of x * 10**p,
# and a value whose lo lies within 1e-13 of a half goes to '%.17g' instead.

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor


def _split(x):
    """x = head + tail with both halves 26 bits wide, so that their products
    are exact."""
    t = _SPLIT * x
    head = t - (t - x)
    return head, x - head


def _scale_table(p_max: int) -> np.ndarray:
    """One row per p <= p_max: 2**s as two factors, 10**p / 2**s as a double
    c and c's two halves, the remainder 10**p / 2**s - c as a double, and
    the bound that decides a half; s = 0 and no remainder while 10**p is a
    double (p <= 22), else 1 <= c < 2."""
    rows = []
    for p in range(p_max + 1):
        ten = 10 ** p
        s = 0 if p <= 22 else ten.bit_length() - 1
        c = ten / (1 << s)
        rest = (ten - (int(c * 2.0 ** 52) << (s - 52))) / (1 << s) if s else 0.0
        low = min(s, 1000)
        rows.append((2.0 ** low, 2.0 ** (s - low), c, *_split(c), rest, 1e-13 if s else 0.0))
    return np.array(rows)


# 5e-324 has k = -324, so p = 16 - k is at most 340, and 341 after a correction
_TWO_S_LOW, _TWO_S_HIGH, _C, _C_HEAD, _C_TAIL, _C_REST, _HALF_GAP = _scale_table(341).T.copy()
_POW10 = np.array([10 ** i for i in range(18)])


def _round17(a: np.ndarray, k: np.ndarray):
    """One pass of ``_digits17`` at the guessed exponents ``k``: (N, k, sure,
    redo), redo where x * 10**(16 - k) lies outside [1e16, 1e17), whose k
    this pass moved by one."""
    p = 16 - k
    y = a * _TWO_S_LOW[p] * _TWO_S_HIGH[p]
    hi = y * _C[p]
    yh, yl = _split(y)
    ch, cl = _C_HEAD[p], _C_TAIL[p]
    lo = ((yh * ch - hi) + yh * cl + yl * ch) + yl * cl + y * _C_REST[p]
    under = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    over = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    # hi >= 1e16 > 2**53 is an even integer, so rint's halves-to-even is N's
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    redo = under | over
    carry = (n == 10 ** 17) & ~redo
    n[carry] = 10 ** 16
    sure = np.abs(lo - np.floor(lo) - 0.5) >= _HALF_GAP[p]
    return n, k + carry - under + over, sure, redo


def _digits17(a: np.ndarray):
    """(N, k, sure) for 0 < a < 1e16: a rounded half-even to 17 significant
    digits is N * 10**(k - 16), 10**16 <= N < 10**17, wherever sure holds."""
    k = np.floor(np.log10(a)).astype(np.int64)
    n, k, sure, redo = _round17(a, k)
    ix = np.flatnonzero(redo)
    # log10 misses k by at most one; a k the inexact product moves back and
    # forth stays unsure
    for _ in range(2):
        if not ix.size:
            break
        n[ix], k[ix], sure[ix], redo = _round17(a[ix], k[ix])
        ix = ix[redo]
    sure[ix] = False
    return n, k, sure


def _trailing_zeros(n: np.ndarray) -> np.ndarray:
    """The count of trailing decimal zeros of each n in [1e16, 1e17)."""
    out = np.zeros(n.size, np.int64)
    ix = np.flatnonzero(n // 10 * 10 == n)
    m = n[ix] // 10
    count = np.ones(ix.size, np.int64)
    for s in (8, 4, 2, 1):
        z = m // _POW10[s] * _POW10[s] == m
        m = np.where(z, m // _POW10[s], m)
        count += s * z
    out[ix] = count
    return out


def _templates(sep: str) -> list:
    """The per-value templates ending in ``sep``, in code order: fixed form
    with an integer part and w = 0..16 digits after the point, fixed form
    below 1 (k = -1 to -4), exponent form with w = 0..16 digits after the
    point, zero, infinity; then these negative; then NaN and '%.17g'
    itself."""
    fixed = ["%d"] + [f"%d.%0{w}d" for w in range(1, 17)]
    below_1 = ["0." + "0" * z + "%d" for z in range(4)]
    kinds = fixed + below_1 + [kind + "e-%02d" for kind in fixed] + ["0", "inf"]
    return [sign + kind + sep for sign in ("", "-") for kind in kinds] + [
        "nan" + sep, "%.17g" + sep]


# codes into _templates: w digits after the point are code w in fixed form
# and _T_EXPONENT + w in exponent form; _T_BELOW_1 + z is 0.<z zeros>N
_T_BELOW_1, _T_EXPONENT, _T_ZERO, _T_INF = 17, 21, 38, 39
_T_NEGATIVE = 40
_T_NAN = 2 * _T_NEGATIVE
_T_FALLBACK = _T_NAN + 1
_T_NEWLINE = _T_FALLBACK + 1
_TEMPLATES = np.array(_templates(" ") + _templates("\n"), dtype=object)


def _format_block(block: np.ndarray) -> str:
    """The rows of a 2-d array as ``np.savetxt(fmt="%.17g")`` text: one
    template per value, whose integers one %-format writes.  Values with
    |x| >= 1e16 and the unsure ones are formatted '%.17g' one by one."""
    v = block.ravel()
    a = np.abs(v)
    ix = np.flatnonzero((a > 0.0) & (a < 1e16))
    n, k, sure = _digits17(a[ix])
    ix, n, k = ix[sure], n[sure], k[sure]
    expo = k < -4
    below_1 = (k < 0) & ~expo
    # digits after the point before stripping: 16 - k in fixed form, 16 in
    # exponent form
    after = np.where(expo, 16, 16 - k)
    unit = _POW10[np.minimum(after, 17)]
    whole = n // unit
    frac = n - whole * unit
    zeros = np.minimum(_trailing_zeros(n), after)
    frac //= _POW10[zeros]
    w = after - zeros
    code = np.full(v.size, _T_FALLBACK)
    code[a == 0.0] = _T_ZERO
    code[a == np.inf] = _T_INF
    code[ix] = np.where(below_1, _T_BELOW_1 - 1 - k, w + _T_EXPONENT * expo)
    code += _T_NEGATIVE * (np.signbit(v) & (code < _T_NEGATIVE))
    code[np.isnan(v)] = _T_NAN
    fallback = np.flatnonzero(code == _T_FALLBACK)
    code.reshape(block.shape)[:, -1] += _T_NEWLINE
    templates = _TEMPLATES[code]
    templates[fallback] = [t % x for t, x in zip(templates[fallback].tolist(),
                                                 v[fallback].tolist())]
    used = np.column_stack([~below_1, w > 0, expo])
    args = np.column_stack([whole, frac, -k])[used]
    return "".join(templates.tolist()) % tuple(args.tolist())


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
