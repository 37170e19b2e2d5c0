"""Command-line front end.

Exit codes: 0 success, 2 usage errors (argparse), 3 violated guards or
invalid values, 4 failed numeric post-conditions, 1 I/O failures or a
worker process that died (for example, killed for running out of memory).
All outputs are deterministic for identical flags; TRIMODULI_THREADS only caps
the Monte Carlo sampler workers (the census runs in one process) and never
changes bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from .analysis import equidist_report, obtuse_curve, orbit_projections
from .diophantine import approximate_shape
from .enumeration import enumerate_weighted
from .errors import GuardError, PrecisionError
from .lattice import similarity_key
from .moduli import ShapeTriple, shape_of
from .randgeom import mean_pair_distance, obtuse_probability, shape_histogram
from .serialize import (
    export_curve,
    export_estimate,
    export_histogram,
    export_report,
    export_weighted_set,
    write_text,
)
from .svgplot import plot_curve, plot_shapes

APPROX_SCHEMA = "trimoduli.approximant.v1"


@dataclass
class RunConfig:
    """One CLI invocation, fully determined by the parsed flags."""

    command: str
    n: int | None = None
    n_max: int | None = None
    eps: float | None = None
    samples: int | None = None
    bins: int | None = None
    seed: int = 0
    a: float | None = None
    b: float | None = None
    c: float | None = None
    mode: str = "labeled"
    format: str = "csv"
    out_path: str = "-"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimoduli",
        description="Similarity classes of lattice triangles: census, "
        "shape-space measures, lattice approximants, Monte Carlo baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="weighted census of [-n,n]^2")
    p.add_argument("--n", type=int, required=True, help="grid half-width")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("curve", help="obtuse fractions for n = 2..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")

    p = sub.add_parser("report", help="census fraction vs both references")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", default="-")

    p = sub.add_parser("approx", help="lattice triangle near a target shape")
    p.add_argument("--a", type=float, required=True, help="side length")
    p.add_argument("--b", type=float, required=True, help="side length")
    p.add_argument("--c", type=float, required=True, help="side length")
    p.add_argument("--eps", type=float, required=True, help="shape distance bound")
    p.add_argument("--out", default="-")

    p = sub.add_parser("mc-obtuse", help="P(obtuse) for random triangles")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("mc-distance", help="mean distance of two random points")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("hist", help="histogram of random triangle shapes")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("labeled", "sorted"), default="labeled")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")

    p = sub.add_parser("plot-shapes", help="SVG scatter of census shapes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="SVG output path")

    p = sub.add_parser("plot-curve", help="SVG of the obtuse-fraction curve")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True, help="SVG output path")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    return RunConfig(
        command=args.command,
        n=get("n"),
        n_max=get("n_max"),
        eps=get("eps"),
        samples=get("samples"),
        bins=get("bins"),
        seed=get("seed", 0) or 0,
        a=get("a"),
        b=get("b"),
        c=get("c"),
        mode=get("mode", "labeled") or "labeled",
        format=get("format", "csv") or "csv",
        out_path=get("out", "-") or "-",
    )


def _target_shape(a: float, b: float, c: float) -> ShapeTriple:
    """Normalize raw side lengths (any scale, any order) to a ShapeTriple."""
    sides = sorted((float(a), float(b), float(c)))
    if sides[0] <= 0:
        raise GuardError(f"side lengths must be positive, got {sides}")
    total = sum(sides)
    try:
        return ShapeTriple(*(2.0 * s / total for s in sides))
    except ValueError as exc:
        raise GuardError(f"sides {sides} do not form a triangle shape: {exc}") from None


def _approx_doc(config: RunConfig) -> str:
    target = _target_shape(config.a, config.b, config.c)
    tri = approximate_shape(target, config.eps)
    achieved = shape_of(similarity_key(tri))
    doc = {
        "schema": APPROX_SCHEMA,
        "target": list(target.triple),
        "eps": config.eps,
        "vertices": [[v.x, v.y] for v in tri.vertices],
        "shape": list(achieved.triple),
        "distance": achieved.distance_to(target),
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def run(config: RunConfig) -> int:
    """Execute one configured command; raises on failure."""
    text: str | None = None
    if config.command == "enumerate":
        text = export_weighted_set(enumerate_weighted(config.n), config.format)
    elif config.command == "curve":
        text = export_curve(obtuse_curve(config.n_max), config.format)
    elif config.command == "report":
        text = export_report(equidist_report(config.n))
    elif config.command == "approx":
        text = _approx_doc(config)
    elif config.command == "mc-obtuse":
        est = obtuse_probability(config.samples, config.seed)
        text = export_estimate(est, "obtuse")
    elif config.command == "mc-distance":
        est = mean_pair_distance(config.samples, config.seed)
        text = export_estimate(est, "pair-distance")
    elif config.command == "hist":
        h = shape_histogram(
            config.samples, config.bins, config.seed, labeled=config.mode == "labeled"
        )
        text = export_histogram(h, config.format)
    elif config.command == "plot-shapes":
        x, y, _ = orbit_projections(enumerate_weighted(config.n))
        plot_shapes(list(zip(x.tolist(), y.tolist())), config.out_path)
    elif config.command == "plot-curve":
        plot_curve(obtuse_curve(config.n_max), config.out_path)
    else:
        raise GuardError(f"unknown command {config.command!r}")

    if text is not None:
        if config.out_path == "-":
            sys.stdout.write(text)
        else:
            write_text(config.out_path, text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        return run(config)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None) or "<io>"
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
