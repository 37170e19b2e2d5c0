"""Deterministic exports of census and experiment results.

Byte-for-byte reproducibility is part of the contract: rows are emitted in
a canonical order (weighted sets by ascending (p, q, r)), floats use
shortest round-trip repr, newlines are '\\n', and every file starts with a
schema tag.  Identical inputs produce identical bytes on any platform.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields

import numpy as np

from .analysis import EquidistReport, ObtuseCurvePoint
from .errors import GuardError
from .lattice import LatticeTriangle, similarity_key
from .moduli import (
    CHECK_ROWS,
    ModuliRegion,
    ShapeTriple,
    WeightedShapeSet,
    normalized_sides,
    shape_of,
)
from .randgeom import Histogram2D, McEstimate

WSET_SCHEMA = "trimoduli.weighted-set.v1"
CURVE_SCHEMA = "trimoduli.obtuse-curve.v1"
REPORT_SCHEMA = "trimoduli.equidist-report.v1"
ESTIMATE_SCHEMA = "trimoduli.mc-estimate.v1"
HISTOGRAM_SCHEMA = "trimoduli.histogram.v1"
APPROX_SCHEMA = "trimoduli.approximant.v1"

# Each weighted-set format: head, row (an f-string, faster than str.format), row separator,
# tail and row pattern.  A CSV row leads with its newline, so an empty census ends at the
# header; JSON keys are in sort_keys order, as in json.dumps.
_WSET_FORMATS = {
    "csv": (
        "# schema: {schema}\np,q,r,weight,angle_class,a,b,c",
        lambda p, q, r, w, ang, a, b, c: f"\n{p},{q},{r},{w},{ang},{a!r},{b!r},{c!r}", "", "\n",
        re.compile(r"^(\d+),(\d+),(\d+),(\d+),", re.M),
    ),
    "json": (
        '{{"distinct_count": {n}, "entries": [',
        lambda p, q, r, w, ang, a, b, c: f'{{"a": {a!r}, "angle_class": "{ang}", "b": {b!r}, '
        f'"c": {c!r}, "p": {p}, "q": {q}, "r": {r}, "weight": {w}}}', ", ",
        '], "schema": "{schema}", "total_weight": {t}}}\n',
        re.compile(r'"p": (\d+), "q": (\d+), "r": (\d+), "weight": (\d+)'),
    ),
}


def _json_doc(schema: str, **body) -> str:
    """The one JSON framing: the schema tag beside the body, keys sorted."""
    return json.dumps({"schema": schema, **body}, sort_keys=True) + "\n"


def _angle_names(p, q, r) -> np.ndarray:
    out = np.where(ModuliRegion.OBTUSE_ALL.key_mask(p, q, r), "obtuse", "right")
    return np.where(ModuliRegion.ACUTE.key_mask(p, q, r), "acute", out)


def export_weighted_set(s: WeightedShapeSet, fmt: str = "csv") -> str:
    """Serialize a weighted census, rows sorted by (p, q, r) and formatted
    CHECK_ROWS at a time."""
    if fmt not in _WSET_FORMATS:
        raise GuardError(f"unsupported weighted-set format {fmt!r}")
    head, row, sep, tail, _ = _WSET_FORMATS[fmt]

    def chunks(p, q, r, w):
        for i in range(0, len(w), CHECK_ROWS):
            ps, qs, rs, ws = (col[i : i + CHECK_ROWS] for col in (p, q, r, w))
            # tolist() gives Python scalars, so !r prints bare shortest round-trip floats
            cols = (ps, qs, rs, ws, _angle_names(ps, qs, rs), *normalized_sides(ps, qs, rs))
            yield sep.join(map(row, *(col.tolist() for col in cols)))

    frame = {"schema": WSET_SCHEMA, "n": len(s), "t": s.total_weight}
    return "".join((head.format(**frame), sep.join(chunks(*s.columns())), tail.format(**frame)))


def read_weighted_set(text: str, fmt: str = "csv") -> WeightedShapeSet:
    """Parse a weighted census produced by export_weighted_set: the format's
    row pattern finds p, q, r and weight for from_columns.  GuardError unless
    the text is, byte for byte, the export of that census."""
    if fmt not in _WSET_FORMATS:
        raise GuardError(f"unsupported weighted-set format {fmt!r}")
    try:
        rows = np.array(_WSET_FORMATS[fmt][4].findall(text), dtype=np.int64).reshape(-1, 4)
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
        rows = (
            "".join(map(
                lambda i, j, count: f"{i},{j},{count}\n",
                *(col[k : k + CHECK_ROWS].tolist() for col in (ix, iy, counts)),
            ))
            for k in range(0, len(counts), CHECK_ROWS)
        )
        return "".join((head, *rows))
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
        fh.write(text)
