"""Deterministic exports of census and experiment results.

Byte-for-byte reproducibility is part of the contract: rows are emitted in
a canonical order (weighted sets by ascending (p, q, r)), floats use
shortest round-trip repr, newlines are '\\n', and every file starts with a
schema tag.  Identical inputs produce identical bytes on any platform.

Weighted-set and histogram rows are written CHECK_ROWS at a time as numpy
byte blocks, one chunk per job on the worker threads; each job returns its
chunk as str, and the caller joins the chunks once.  Integers are printed in
9-digit uint32 limbs.  Weighted-set floats come from an exact uint64 kernel
that reproduces repr's shortest round-trip digits for every float in
[1e-4, 1), where each census coordinate at n <= 64 lies, and from repr
itself elsewhere.  The kernel takes a column's rows one binary exponent at
a time, so each of its constants is a scalar: the b and c columns of a
census lie in [1/2, 1), one exponent each.  A float field has as many rows
of zeros after the point as its column needs, none for b and c.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields
from typing import NamedTuple

import numpy as np

from .analysis import EquidistReport, ObtuseCurvePoint
from .errors import GuardError
from .lattice import LatticeTriangle, similarity_key
from .moduli import (
    CHECK_ROWS,
    ShapeTriple,
    WeightedShapeSet,
    angle_class,
    normalized_sides,
    shape_of,
)
from .parallel import map_ordered, release_freed_pages, worker_count
from .randgeom import Histogram2D, McEstimate

WSET_SCHEMA = "trimoduli.weighted-set.v1"
CURVE_SCHEMA = "trimoduli.obtuse-curve.v1"
REPORT_SCHEMA = "trimoduli.equidist-report.v1"
ESTIMATE_SCHEMA = "trimoduli.mc-estimate.v1"
HISTOGRAM_SCHEMA = "trimoduli.histogram.v1"
APPROX_SCHEMA = "trimoduli.approximant.v1"

# Each weighted-set format: head, row template, tail and row pattern.  A template is the
# row separator (dropped before the first row), then literal text and, by index, the
# fields of the row.  JSON keys are in sort_keys order, as in json.dumps.
P, Q, R, W, ANGLE, A, B, C = range(8)
_WSET_FORMATS = {
    "csv": (
        "# schema: {schema}\np,q,r,weight,angle_class,a,b,c\n",
        ("", P, ",", Q, ",", R, ",", W, ",", ANGLE, ",", A, ",", B, ",", C, "\n"),
        "",
        re.compile(r"^(\d+),(\d+),(\d+),(\d+),", re.M),
    ),
    "json": (
        '{{"distinct_count": {n}, "entries": [',
        (", ", '{"a": ', A, ', "angle_class": "', ANGLE, '", "b": ', B, ', "c": ', C,
         ', "p": ', P, ', "q": ', Q, ', "r": ', R, ', "weight": ', W, "}"),
        '], "schema": "{schema}", "total_weight": {t}}}\n',
        re.compile(r'"p": (\d+), "q": (\d+), "r": (\d+), "weight": (\d+)'),
    ),
}

# The rows are written as byte blocks: one uint8 row per byte position of the
# text row and one column per row, NUL where a field is shorter than its width.
_POW10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)
# the names of moduli.angle_class 0, 1 and 2, one column each
_ANGLES = np.array([b"acute", b"right", b"obtuse"]).view(np.uint8).reshape(3, -1).T
# by the exponent field x.view(uint64) >> 52 of a float x = m 2^(e - 53) in
# [1e-4, 1), e = -13..0, 2^52 <= m < 2^53: the decimal scale K, the largest
# with 2^e 10^K <= 2^63, so 2^62 / 10 < x 10^K < 2^e 10^K, which is below
# 0.85 2^63 at every e, and 10^K is exact in float64; t = 55 - e - K, so that
# x 10^K = 4m 5^K / 2^t; and the half-width 2 5^K / 2^t of the decimals that
# read back as x, as g + g_r / 2^t
class _Exponent(NamedTuple):
    k: int
    scale: float  # 10^K
    t: int
    f4: np.uint64  # 4 5^K
    hidden: np.uint64  # 2^54 5^K mod 2^64, the term of m's leading bit
    g: int
    g_r: int
    low_t: np.uint64  # 2^t - 1


def _exponent(e: int) -> _Exponent:
    k = len(str(1 << (63 - e))) - 1
    f, t = 5**k, 55 - e - k
    return _Exponent(
        k, 10.0**k, t, np.uint64(4 * f), np.uint64((f << 54) % (1 << 64)),
        (2 * f) >> t, (2 * f) % (1 << t), np.uint64((1 << t) - 1),
    )


_FLOAT_EXPONENTS = {1022 + e: _exponent(e) for e in range(-13, 1)}
_MANTISSA = np.uint64((1 << 52) - 1)


def _wset_format(fmt):
    """The weighted-set format named fmt; GuardError for any other value."""
    if not isinstance(fmt, str) or fmt not in _WSET_FORMATS:
        raise GuardError(f"unsupported weighted-set format {fmt!r}")
    return _WSET_FORMATS[fmt]


def _json_doc(schema: str, **body) -> str:
    """The one JSON framing: the schema tag beside the body, keys sorted."""
    return json.dumps({"schema": schema, **body}, sort_keys=True) + "\n"


def _literal(text: str, n: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode(), np.uint8)[:, None], (len(text), n))


def _int_bytes(v) -> np.ndarray:
    """Decimal digits of nonnegative integers, right-aligned with NUL for the
    leading zeros, as many byte rows as the largest has digits."""
    v = np.array(v, dtype=np.uint64)
    width = len(str(int(v.max())))
    out = np.empty((width, len(v)), np.uint8)
    # 9-digit uint32 limbs by one uint64 division each, least significant
    # first; uint32 division by a scalar is about 3x faster than uint64
    rest, end = v, width
    while end > 9:
        high = rest // 10**9
        _limb_digits(out[end - 9 : end], (rest - high * 10**9).astype(np.uint32))
        rest, end = high, end - 9
    _limb_digits(out[:end], rest.astype(np.uint32))
    out += 48
    # only the rows that the shortest value leaves empty take the mask: a
    # float column's 16- and 17-digit q need one, not 16
    short = width - len(str(int(v.min())))
    out[:short] *= v >= _POW10[width - 1 : width - 1 - short : -1, None]
    return out


def _limb_digits(out, limb) -> None:
    """The last len(out) decimal digits of the uint32 column limb into the
    byte rows of out, most significant first."""
    for k in range(len(out) - 1, -1, -1):
        # x // 10 by a scalar is several times faster than np.divmod
        tens = limb // 10
        out[k] = limb - tens * 10
        limb = tens


def _shortest_digits(x):
    """The shortest decimal that reads back as x, for float64 x in [1e-4, 1),
    nearest to x and ties to even, as repr prints it (Steele & White 1990;
    Adams 2018): uint64 digits q without trailing zeros and the number of
    zeros between the decimal point and them, exact in uint64 arithmetic.
    The rows are taken one binary exponent at a time, so that every constant
    is a scalar."""
    exps = x.view(np.uint64) >> 52
    first, last = int(exps.min()), int(exps.max())
    if first == last:
        return _exponent_digits(x, _FLOAT_EXPONENTS[first])
    q, zeros = np.empty(len(x), np.uint64), np.empty(len(x), np.int64)
    for e in range(first, last + 1):
        rows = np.flatnonzero(exps == e)
        if rows.size:
            q[rows], zeros[rows] = _exponent_digits(x[rows], _FLOAT_EXPONENTS[e])
    return q, zeros


def _exponent_digits(x, c: _Exponent):
    """_shortest_digits of values that share the binary exponent of c."""
    # the low 64 bits of 4m 5^K = xk 2^t + r, xk = floor(x 10^K), by one
    # wrapping multiply.  x 10^K rounded to float64 is an int64 estimate
    # within 2^10 of xk, and low >> t holds the low 64 - t >= 18 bits of xk,
    # so low minus the estimate times 2^t, read as signed and shifted down
    # by t, is xk minus the estimate
    low = (x.view(np.uint64) & _MANTISSA) * c.f4 + c.hidden
    est = (x * c.scale).astype(np.int64).view(np.uint64)
    xk = est + ((low - (est << c.t)).view(np.int64) >> c.t).view(np.uint64)
    r = low & c.low_t
    # the midpoints to the neighbours of x lie g + g_r / 2^t above and below
    # x 10^K.  As (2m +- 1) 5^K / 2^(t - 1) they are never integers, so the
    # integers that read back as x are lo .. hi, whatever the parity of m.
    # (Below x = 2^-i the midpoint is half as far, but x 10^K = 5^i 10^(K - i),
    # i <= 13, has far fewer digits than any other candidate in reach.)
    lo = xk - (c.g - 1) - (r < c.g_r)
    hi = xk + c.g + ((r + c.g_r) >> c.t)
    # q 10^j for the largest power of ten 10^j with a multiple in [lo, hi].
    # Once a power has none, no larger one has, and 2g >= 108, so every row
    # has j >= 2.  All rows round at j = 2, the rows with a multiple of 10^3
    # again at j = 3, and of those the ones with a multiple of 10^4 at j = 4,
    # each step by a scalar divisor.  The rows left, about 2g / 10^4 of them
    # and short decimals such as 0.25, test the larger powers in one step
    q, zeros = _nearest_multiple(xk, r, 100, c.k)
    rows = np.arange(len(x))
    for d in (1000, 10000):
        go = np.flatnonzero(hi // d * d >= lo)
        rows, xk, r, lo, hi = rows[go], xk[go], r[go], lo[go], hi[go]
        q[rows], zeros[rows] = _nearest_multiple(xk, r, d, c.k)
    d = _POW10[5:19]
    j = 4 + np.count_nonzero(hi[:, None] // d * d >= lo[:, None], axis=1)
    go = np.flatnonzero(j > 4)
    rows = rows[go]
    q[rows], zeros[rows] = _nearest_multiple(xk[go], r[go], _POW10[j[go]], c.k)
    return q, zeros


def _nearest_multiple(xk, r, d, k: int):
    """(q, zeros) for the multiple q d of the power of ten d nearest to
    x 10^K = xk + r / 2^t, ties to even.  [lo, hi] is symmetric about
    x 10^K, so it holds the nearest multiple when it holds one."""
    q = xk // d
    rem, half = xk - q * d, d // 2
    q += rem > half
    ties = np.flatnonzero(rem == half)
    q[ties] += (r[ties] > 0) | (q[ties] & 1 == 1)
    # 10^17 < lo <= q d <= hi < 2^63: q d has 18 or 19 digits
    return q, (k - 18) - (q >= _POW10[18] // d)


def _float_bytes(x) -> np.ndarray:
    """Shortest round-trip repr of float64 values: the exact kernel in
    [1e-4, 1), repr one by one elsewhere."""
    outside = ~((x >= 1e-4) & (x < 1.0))
    q, zeros = _shortest_digits(np.where(outside, 0.5, x))
    field = np.concatenate((
        _literal("0.", len(x)),
        # as many zero rows as the column has zeros after the point at most
        np.where(np.arange(zeros.max())[:, None] < zeros, np.uint8(48), np.uint8(0)),
        _int_bytes(q),
    ))
    if outside.any():
        texts = [repr(v).encode() for v in x[outside].tolist()]
        width = max(len(field), *map(len, texts))
        field = np.pad(field, ((0, width - len(field)), (0, 0)))
        flat = b"".join(text.ljust(width, b"\0") for text in texts)
        field[:, outside] = np.frombuffer(flat, np.uint8).reshape(-1, width).T
    return field


def _rows_text(head: str, template, fields_of, rows: int, tail: str) -> str:
    """head, the rows laid out by the template, and tail.  fields_of(start)
    gives the field blocks of rows start .. start + CHECK_ROWS.  Each chunk's
    job, on the threads of parallel.map_ordered, stacks its literals and
    fields into one byte block, writes it out row by row without its NULs
    and decodes it; the caller joins head, the chunks in order and tail
    once.  2^13 rows at a time keep the byte copies near 1 MB: the peak RSS
    of an export stays that of the text held twice, as the chunks and the
    joined str, plus the chunks in flight."""

    def chunk_text(start):
        fields = fields_of(start)
        n = fields[0].shape[1]
        parts = [_literal(part, n) if isinstance(part, str) else fields[part] for part in template]
        # byte rows 64 bytes longer than the chunk: at a power-of-two stride
        # such as 2^16 the bytes of one text row share a cache set, and the
        # transposing copy below runs 5x slower
        block = np.empty((sum(map(len, parts)), n + 64), np.uint8)[:, :n]
        np.concatenate(parts, out=block)
        del fields, parts
        texts = []
        for k in range(0, n, 1 << 13):
            flat = block[:, k : k + (1 << 13)].T.ravel()
            # a boolean compress drops the NULs without holding the GIL
            texts.append(str(flat[flat != 0].data, "ascii"))
        return "".join(texts)

    skip = len(template[0])  # the row separator, dropped before the first row
    starts = [(start,) for start in range(0, rows, CHECK_ROWS)]
    chunks = [head, *map_ordered(chunk_text, starts, worker_count()), tail]
    if rows:
        chunks[1] = chunks[1][skip:]
    text = "".join(chunks)
    # the chunks were allocated on the pool's threads: without this the pages
    # of 120 MB of freed chunks at n = 31 stay with the process, under the
    # peak of what comes next, such as read_weighted_set's parse
    del chunks
    release_freed_pages()
    return text


def export_weighted_set(s: WeightedShapeSet, fmt: str = "csv") -> str:
    """Serialize a weighted census, rows sorted by (p, q, r) and formatted
    CHECK_ROWS at a time."""
    head, row, tail, _ = _wset_format(fmt)
    cols = s.columns()

    def fields_of(start):
        p, q, r, w = (col[start : start + CHECK_ROWS] for col in cols)
        return (  # indexed by P, Q, R, W, ANGLE, A, B, C
            *map(_int_bytes, (p, q, r, w)),
            _ANGLES[:, angle_class(p, q, r)],
            *map(_float_bytes, normalized_sides(p, q, r)),
        )

    frame = {"schema": WSET_SCHEMA, "n": len(s), "t": s.total_weight}
    return _rows_text(head.format(**frame), row, fields_of, len(s), tail.format(**frame))


def read_weighted_set(text: str, fmt: str = "csv") -> WeightedShapeSet:
    """Parse a weighted census produced by export_weighted_set: the format's
    row pattern finds p, q, r and weight for from_columns.  GuardError unless
    the text is, byte for byte, the export of that census."""
    pattern = _wset_format(fmt)[3]
    try:
        rows = np.array(pattern.findall(text), dtype=np.int64).reshape(-1, 4)
        s = WeightedShapeSet.from_columns(*rows.T)
    except (ValueError, OverflowError) as exc:
        raise GuardError(f"text is not a {fmt} weighted-set export: {exc}") from None
    if export_weighted_set(s, fmt) != text:
        raise GuardError(f"text is not the {fmt} export of the census it lists")
    return s


def export_curve(points: list[ObtuseCurvePoint], fmt: str = "csv") -> str:
    """Serialize an obtuse-fraction curve, one row per n."""
    names = [f.name for f in fields(ObtuseCurvePoint)]
    if fmt == "csv":
        lines = [f"# schema: {CURVE_SCHEMA}", ",".join(names)]
        for pt in points:
            # str of a Python float is its shortest round-trip repr
            lines.append(",".join(str(getattr(pt, name)) for name in names))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json_doc(CURVE_SCHEMA, points=[asdict(pt) for pt in points])
    raise GuardError(f"unsupported curve format {fmt!r}")


def export_report(report: EquidistReport) -> str:
    return _json_doc(REPORT_SCHEMA, **asdict(report))


def export_estimate(est: McEstimate, kind: str) -> str:
    return _json_doc(ESTIMATE_SCHEMA, kind=kind, **asdict(est))


def export_approximant(target: ShapeTriple, eps: float, tri: LatticeTriangle) -> str:
    """A lattice triangle found for target within eps, with its verified
    shape and distance."""
    achieved = shape_of(similarity_key(tri))
    return _json_doc(
        APPROX_SCHEMA,
        target=list(target.triple),
        eps=eps,
        vertices=[[v.x, v.y] for v in tri.vertices],
        shape=list(achieved.triple),
        distance=achieved.distance_to(target),
    )


def export_histogram(h: Histogram2D, fmt: str = "csv") -> str:
    """Serialize a shape histogram; only nonzero cells are written, CSV rows
    formatted from the cell columns CHECK_ROWS at a time."""
    mode = "labeled" if h.labeled else "sorted"
    ix, iy = np.nonzero(h.counts)
    counts = h.counts[ix, iy]
    if fmt == "csv":
        head = (
            f"# schema: {HISTOGRAM_SCHEMA}\n"
            f"# bins={h.bin_count} samples={h.samples} seed={h.seed} mode={mode} "
            f"total={h.total} obtuse_count={h.obtuse_count}\n"
            "ix,iy,count\n"
        )
        def fields_of(start):
            return [_int_bytes(col[start : start + CHECK_ROWS]) for col in (ix, iy, counts)]

        return _rows_text(head, ("", 0, ",", 1, ",", 2, "\n"), fields_of, len(counts), "")
    if fmt == "json":
        return _json_doc(
            HISTOGRAM_SCHEMA,
            bins=h.bin_count,
            samples=h.samples,
            seed=h.seed,
            mode=mode,
            total=h.total,
            obtuse_count=h.obtuse_count,
            entries=list(map(list, zip(ix.tolist(), iy.tolist(), counts.tolist()))),
        )
    raise GuardError(f"unsupported histogram format {fmt!r}")


def write_text(path: str, text: str) -> None:
    """Write text to path with '\\n' newlines and UTF-8, no translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # 1 MiB slices: one write would first encode a full-size copy
        for start in range(0, len(text), 1 << 20):
            fh.write(text[start : start + (1 << 20)])
