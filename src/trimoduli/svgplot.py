"""Hand-rolled SVG output for the two standard figures.

No plotting dependency: both figures are a few hundred primitive elements,
and writing them directly keeps the bytes deterministic, which the CLI
promises.  Coordinates are formatted with a fixed trimmed precision.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import ObtuseCurvePoint, orbit_projections
from .errors import GuardError
from .moduli import ModuliRegion, WeightedShapeSet, uniform_target
from .randgeom import langford_obtuse_probability


def _fmt(v: float) -> str:
    s = f"{v:.4f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


# Largest shape scatter drawn, 2**22 points.  plot-shapes peaks at about
# 360 bytes per point: the n = 24 census (4,125,987 points) took 16 s, a
# peak RSS of 1.5 GB and a 378 MB SVG on a 2-CPU machine.  The n = 31
# census projects to 11.4 M points, about 4 GB.
MAX_PLOT_POINTS = 1 << 22


def census_points(census: WeightedShapeSet) -> np.ndarray:
    """(a, b) rows of the labeled orbit projections of census, for
    plot_shapes.  A class has 3 or 6 projections (the one equilateral class
    has 1), so a census that cannot fit MAX_PLOT_POINTS is refused before
    its projections are built."""
    if 3 * len(census) - 2 > MAX_PLOT_POINTS:
        raise GuardError(
            f"{len(census)} classes project to more than MAX_PLOT_POINTS = "
            f"{MAX_PLOT_POINTS} scatter points"
        )
    a, b, _ = orbit_projections(census)
    return np.column_stack((a, b))


def plot_shapes(points) -> str:
    """SVG scatter of ab-plane shape points over the labeled region.

    points is a sequence of (a, b) pairs inside {a < 1, b < 1, a + b > 1},
    at most MAX_PLOT_POINTS of them.  The region boundary, the three
    isosceles segments, and the equilateral point (2/3, 2/3) are drawn for
    orientation.
    """
    if len(points) > MAX_PLOT_POINTS:
        raise GuardError(f"{len(points)} points exceed MAX_PLOT_POINTS = {MAX_PLOT_POINTS}")
    pts = np.asarray(points)
    if pts.dtype.kind not in "iuf":
        raise GuardError(f"points must be real numbers, got dtype {pts.dtype}")
    pts = pts.astype(np.float64, copy=False).reshape(-1, 2)
    if not len(pts):
        raise GuardError("no points to plot")
    bad = ~np.all(np.isfinite(pts) & (pts >= -0.01) & (pts <= 1.01), axis=1)
    if bad.any():
        a, b = pts[np.argmax(bad)].tolist()
        raise GuardError(f"point ({a}, {b}) is not finite or lies far outside the unit square")

    size = 640
    margin = 60
    scale = size - 2 * margin

    def px(a: float) -> str:
        return _fmt(margin + a * scale)

    def py(b: float) -> str:
        return _fmt(margin + (1.0 - b) * scale)

    body = [f'<rect width="{size}" height="{size}" fill="white"/>']
    corners = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    poly = " ".join(f"{px(a)},{py(b)}" for a, b in corners)
    body.append(
        f'<polygon class="region" points="{poly}" fill="#f2f5fa" stroke="#333" stroke-width="1.5"/>'
    )
    iso = [((0.5, 0.5), (1.0, 1.0)), ((0.5, 1.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 0.5))]
    for (a1, b1), (a2, b2) in iso:
        body.append(
            f'<line class="iso" x1="{px(a1)}" y1="{py(b1)}" x2="{px(a2)}" '
            f'y2="{py(b2)}" stroke="#888" stroke-width="1" stroke-dasharray="5 4"/>'
        )
    for a, b in pts.tolist():
        body.append(
            f'<circle class="pt" cx="{px(a)}" cy="{py(b)}" r="2.2" '
            f'fill="#1f77b4" fill-opacity="0.35"/>'
        )
    third = 2.0 / 3.0
    body.append(
        f'<circle class="equilateral" cx="{px(third)}" cy="{py(third)}" r="4.5" '
        f'fill="none" stroke="#d62728" stroke-width="2"/>'
    )
    for a, b, label in ((1.0, 0.0, "(1,0)"), (0.0, 1.0, "(0,1)"), (1.0, 1.0, "(1,1)")):
        dy = 16 if b < 0.5 else -8
        body.append(
            f'<text x="{px(a)}" y="{_fmt(float(py(b)) + dy)}" font-size="12" '
            f'fill="#333" text-anchor="middle">{label}</text>'
        )
    return _svg(size, size, body)


def plot_curve(points: list[ObtuseCurvePoint]) -> str:
    """SVG of the obtuse fraction per grid size, weighted and distinct,
    with the two closed-form reference levels drawn as dashed lines."""
    if not points:
        raise GuardError("no curve points to plot")
    width, height = 720, 480
    left, right, top, bottom = 70, 30, 40, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    ns = [pt.n for pt in points]
    n_lo, n_hi = min(ns), max(ns)
    if n_lo == n_hi:
        n_lo -= 1
        n_hi += 1
    lang = langford_obtuse_probability()
    uni = uniform_target(ModuliRegion.OBTUSE_ALL)
    ys = [pt.weighted_fraction for pt in points] + [
        pt.distinct_fraction for pt in points
    ] + [lang, uni]
    y_lo = max(0.0, min(ys) - 0.03)
    y_hi = min(1.0, max(ys) + 0.03)

    def px(n: float) -> str:
        return _fmt(left + (n - n_lo) / (n_hi - n_lo) * plot_w)

    def py(y: float) -> str:
        return _fmt(top + (y_hi - y) / (y_hi - y_lo) * plot_h)

    body = [f'<rect width="{width}" height="{height}" fill="white"/>']
    body.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )

    tick = math.ceil(y_lo * 20) / 20.0  # y ticks every 0.05
    while tick <= y_hi + 1e-9:
        body.append(
            f'<line x1="{left - 4}" y1="{py(tick)}" x2="{left}" y2="{py(tick)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{left - 8}" y="{_fmt(float(py(tick)) + 4)}" font-size="11" '
            f'fill="#333" text-anchor="end">{_fmt(tick)}</text>'
        )
        tick += 0.05

    for n in ns:
        body.append(
            f'<text class="xtick" x="{px(n)}" y="{height - bottom + 16}" '
            f'font-size="10" fill="#333" text-anchor="middle">{n}</text>'
        )
    body.append(
        f'<text x="{left + plot_w / 2}" y="{height - 16}" font-size="12" '
        f'fill="#333" text-anchor="middle">grid size n</text>'
    )

    for level, color, label in (
        (lang, "#b23", "random-triangle baseline"),
        (uni, "#27b", "uniform shape measure"),
    ):
        body.append(
            f'<line class="ref" x1="{left}" y1="{py(level)}" x2="{left + plot_w}" '
            f'y2="{py(level)}" stroke="{color}" stroke-width="1" '
            f'stroke-dasharray="7 5"/>'
        )
        body.append(
            f'<text x="{left + plot_w - 4}" y="{_fmt(float(py(level)) - 5)}" '
            f'font-size="11" fill="{color}" text-anchor="end">{label} '
            f"{_fmt(level)}</text>"
        )

    for attr, color, sel in (
        ("wpt", "#1f77b4", lambda pt: pt.weighted_fraction),
        ("dpt", "#ff7f0e", lambda pt: pt.distinct_fraction),
    ):
        if len(points) > 1:
            line = " ".join(f"{px(pt.n)},{py(sel(pt))}" for pt in points)
            body.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        for pt in points:
            body.append(
                f'<circle class="{attr}" cx="{px(pt.n)}" cy="{py(sel(pt))}" '
                f'r="3" fill="{color}"/>'
            )

    body.append(
        f'<text x="{left + 10}" y="{top + 18}" font-size="12" fill="#1f77b4">'
        f"weighted obtuse fraction</text>"
    )
    body.append(
        f'<text x="{left + 10}" y="{top + 34}" font-size="12" fill="#ff7f0e">'
        f"distinct obtuse fraction</text>"
    )
    return _svg(width, height, body)
