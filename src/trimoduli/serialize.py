"""Deterministic exports of census and experiment results.

Byte-for-byte reproducibility is part of the contract: rows are emitted in
a canonical order (weighted sets by ascending (p, q, r)), floats use
shortest round-trip repr, newlines are '\\n', and every file starts with a
schema tag.  Identical inputs produce identical bytes on any platform.
"""

from __future__ import annotations

import json

import numpy as np

from .analysis import EquidistReport, ObtuseCurvePoint
from .errors import GuardError
from .moduli import WeightedShapeSet, normalized_sides
from .randgeom import Histogram2D, McEstimate

WSET_SCHEMA = "trimoduli.weighted-set.v1"
CURVE_SCHEMA = "trimoduli.obtuse-curve.v1"
REPORT_SCHEMA = "trimoduli.equidist-report.v1"
ESTIMATE_SCHEMA = "trimoduli.mc-estimate.v1"
HISTOGRAM_SCHEMA = "trimoduli.histogram.v1"

_WSET_COLUMNS = "p,q,r,weight,angle_class,a,b,c"
_CURVE_COLUMNS = (
    "n,weighted_fraction,distinct_fraction,total_weight,distinct_count,"
    "obtuse_weight,obtuse_distinct"
)


def _angle_names(p, q, r) -> np.ndarray:
    out = np.where(r > p + q, "obtuse", "acute")
    return np.where(r == p + q, "right", out)


def export_weighted_set(s: WeightedShapeSet, fmt: str = "csv") -> str:
    """Serialize a weighted census, rows sorted by (p, q, r)."""
    p, q, r, w = s.columns()
    angles = _angle_names(p, q, r)
    a, b, c = normalized_sides(p, q, r)
    if fmt == "csv":
        lines = [f"# schema: {WSET_SCHEMA}", _WSET_COLUMNS]
        cols = zip(
            p.tolist(), q.tolist(), r.tolist(), w.tolist(),
            angles.tolist(), a.tolist(), b.tolist(), c.tolist(),
        )
        # tolist() hands back Python scalars, so !r prints bare shortest
        # round-trip floats rather than numpy scalar wrappers
        for pi, qi, ri, wi, ang, aa, bb, cc in cols:
            lines.append(f"{pi},{qi},{ri},{wi},{ang},{aa!r},{bb!r},{cc!r}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        entries = [
            {
                "p": int(p[i]),
                "q": int(q[i]),
                "r": int(r[i]),
                "weight": int(w[i]),
                "angle_class": str(angles[i]),
                "a": float(a[i]),
                "b": float(b[i]),
                "c": float(c[i]),
            }
            for i in range(len(w))
        ]
        doc = {
            "schema": WSET_SCHEMA,
            "total_weight": s.total_weight,
            "distinct_count": len(s),
            "entries": entries,
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    raise GuardError(f"unsupported weighted-set format {fmt!r}")


def _parse_wset_rows(rows) -> WeightedShapeSet:
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    return WeightedShapeSet.from_columns(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def read_weighted_set(text: str, fmt: str = "csv") -> WeightedShapeSet:
    """Parse a weighted census produced by export_weighted_set."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != f"# schema: {WSET_SCHEMA}":
            raise GuardError("missing weighted-set schema tag")
        if len(lines) < 2 or lines[1] != _WSET_COLUMNS:
            raise GuardError("missing weighted-set column header")
        rows = []
        for line in lines[2:]:
            if not line:
                continue
            parts = line.split(",")
            rows.append((int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])))
        return _parse_wset_rows(rows)
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("schema") != WSET_SCHEMA:
            raise GuardError("missing weighted-set schema tag")
        rows = [(e["p"], e["q"], e["r"], e["weight"]) for e in doc["entries"]]
        return _parse_wset_rows(rows)
    raise GuardError(f"unsupported weighted-set format {fmt!r}")


def _curve_point_doc(pt: ObtuseCurvePoint) -> dict:
    return {
        "n": pt.n,
        "weighted_fraction": pt.weighted_fraction,
        "distinct_fraction": pt.distinct_fraction,
        "total_weight": pt.total_weight,
        "distinct_count": pt.distinct_count,
        "obtuse_weight": pt.obtuse_weight,
        "obtuse_distinct": pt.obtuse_distinct,
    }


def export_curve(points: list[ObtuseCurvePoint], fmt: str = "csv") -> str:
    """Serialize an obtuse-fraction curve, one row per n."""
    if fmt == "csv":
        lines = [f"# schema: {CURVE_SCHEMA}", _CURVE_COLUMNS]
        for pt in points:
            lines.append(
                f"{pt.n},{pt.weighted_fraction!r},{pt.distinct_fraction!r},"
                f"{pt.total_weight},{pt.distinct_count},{pt.obtuse_weight},"
                f"{pt.obtuse_distinct}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {"schema": CURVE_SCHEMA, "points": [_curve_point_doc(p) for p in points]}
        return json.dumps(doc, sort_keys=True) + "\n"
    raise GuardError(f"unsupported curve format {fmt!r}")


def export_report(report: EquidistReport) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "n": report.n,
        "empirical_ratio": report.empirical_ratio,
        "uniform_target": report.uniform_target,
        "langford": report.langford,
        "gap_to_uniform": report.gap_to_uniform,
        "gap_to_langford": report.gap_to_langford,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def export_estimate(est: McEstimate, kind: str) -> str:
    doc = {
        "schema": ESTIMATE_SCHEMA,
        "kind": kind,
        "mean": est.mean,
        "std_error": est.std_error,
        "samples": est.samples,
        "seed": est.seed,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def export_histogram(h: Histogram2D, fmt: str = "csv") -> str:
    """Serialize a shape histogram; only nonzero cells are written."""
    mode = "labeled" if h.labeled else "sorted"
    ix, iy = np.nonzero(h.counts)
    if fmt == "csv":
        lines = [
            f"# schema: {HISTOGRAM_SCHEMA}",
            f"# bins={h.bin_count} samples={h.samples} seed={h.seed} mode={mode} "
            f"total={h.total} obtuse_count={h.obtuse_count}",
            "ix,iy,count",
        ]
        for i in range(len(ix)):
            lines.append(f"{ix[i]},{iy[i]},{h.counts[ix[i], iy[i]]}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "schema": HISTOGRAM_SCHEMA,
            "bins": h.bin_count,
            "samples": h.samples,
            "seed": h.seed,
            "mode": mode,
            "total": h.total,
            "obtuse_count": h.obtuse_count,
            "entries": [
                [int(ix[i]), int(iy[i]), int(h.counts[ix[i], iy[i]])]
                for i in range(len(ix))
            ],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    raise GuardError(f"unsupported histogram format {fmt!r}")


def write_text(path: str, text: str) -> None:
    """Write text to path with '\\n' newlines and UTF-8, no translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
