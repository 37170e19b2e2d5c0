"""Deterministic exports of census and experiment results.

Byte-for-byte reproducibility is part of the contract: rows are emitted in
a canonical order (weighted sets by ascending (p, q, r)), floats use
shortest round-trip repr, newlines are '\\n', and every file starts with a
schema tag.  Identical inputs produce identical bytes on any platform.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .analysis import EquidistReport, ObtuseCurvePoint
from .errors import GuardError
from .lattice import LatticeTriangle, similarity_key
from .moduli import ShapeTriple, WeightedShapeSet, normalized_sides, shape_of
from .randgeom import Histogram2D, McEstimate

WSET_SCHEMA = "trimoduli.weighted-set.v1"
CURVE_SCHEMA = "trimoduli.obtuse-curve.v1"
REPORT_SCHEMA = "trimoduli.equidist-report.v1"
ESTIMATE_SCHEMA = "trimoduli.mc-estimate.v1"
HISTOGRAM_SCHEMA = "trimoduli.histogram.v1"
APPROX_SCHEMA = "trimoduli.approximant.v1"

_WSET_COLUMNS = ("p", "q", "r", "weight", "angle_class", "a", "b", "c")


def _json_doc(schema: str, **body) -> str:
    """The one JSON framing: the schema tag beside the body, keys sorted."""
    return json.dumps({"schema": schema, **body}, sort_keys=True) + "\n"


def _angle_names(p, q, r) -> np.ndarray:
    out = np.where(r > p + q, "obtuse", "acute")
    return np.where(r == p + q, "right", out)


def export_weighted_set(s: WeightedShapeSet, fmt: str = "csv") -> str:
    """Serialize a weighted census, rows sorted by (p, q, r)."""
    p, q, r, w = s.columns()
    a, b, c = normalized_sides(p, q, r)
    # tolist() hands back Python scalars, so !r prints bare shortest
    # round-trip floats rather than numpy scalar wrappers
    cols = [col.tolist() for col in (p, q, r, w, _angle_names(p, q, r), a, b, c)]
    if fmt == "csv":
        lines = [f"# schema: {WSET_SCHEMA}", ",".join(_WSET_COLUMNS)]
        for pi, qi, ri, wi, ang, aa, bb, cc in zip(*cols):
            lines.append(f"{pi},{qi},{ri},{wi},{ang},{aa!r},{bb!r},{cc!r}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        entries = [dict(zip(_WSET_COLUMNS, row)) for row in zip(*cols)]
        return _json_doc(
            WSET_SCHEMA, total_weight=s.total_weight, distinct_count=len(s), entries=entries
        )
    raise GuardError(f"unsupported weighted-set format {fmt!r}")


def read_weighted_set(text: str, fmt: str = "csv") -> WeightedShapeSet:
    """Parse a weighted census produced by export_weighted_set; GuardError
    when the text is not such an export, byte for byte.

    p, q, r and weight (the first four fields of each CSV row after the two
    header lines, or of each JSON entry) build the census through
    from_columns; the one check is that its export equals the text."""
    if fmt not in ("csv", "json"):
        raise GuardError(f"unsupported weighted-set format {fmt!r}")
    try:
        if fmt == "csv":
            rows = [[int(v) for v in line.split(",")[:4]] for line in text.splitlines()[2:]]
        else:
            rows = [[e["p"], e["q"], e["r"], e["weight"]] for e in json.loads(text)["entries"]]
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
        s = WeightedShapeSet.from_columns(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
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
    """Serialize a shape histogram; only nonzero cells are written."""
    mode = "labeled" if h.labeled else "sorted"
    ix, iy = np.nonzero(h.counts)
    cells = [list(c) for c in zip(ix.tolist(), iy.tolist(), h.counts[ix, iy].tolist())]
    if fmt == "csv":
        lines = [
            f"# schema: {HISTOGRAM_SCHEMA}",
            f"# bins={h.bin_count} samples={h.samples} seed={h.seed} mode={mode} "
            f"total={h.total} obtuse_count={h.obtuse_count}",
            "ix,iy,count",
        ]
        lines.extend(f"{i},{j},{count}" for i, j, count in cells)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json_doc(
            HISTOGRAM_SCHEMA,
            bins=h.bin_count,
            samples=h.samples,
            seed=h.seed,
            mode=mode,
            total=h.total,
            obtuse_count=h.obtuse_count,
            entries=cells,
        )
    raise GuardError(f"unsupported histogram format {fmt!r}")


def write_text(path: str, text: str) -> None:
    """Write text to path with '\\n' newlines and UTF-8, no translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
