"""Command-line front end.

Every command takes one path: argparse parses the flags, the subparser's
``produce`` entry (set with ``set_defaults``) computes the result and
returns its text (an export from serialize.py or an SVG from svgplot.py),
and main writes that text to --out, or to stdout for '-'.

Exit codes: 0 success, 2 usage errors (argparse), 3 violated guards
(GuardError) or other invalid values (ValueError), 4 failed numeric
post-conditions (PrecisionError), 1 I/O failures and running out of
memory (MemoryError).  Exits 1, 3 and 4 print one ``error:`` line to
stderr.  The Monte Carlo sampler blocks, the box heights of the census
and of the obtuse curve, the key ranges that merge their height tables,
the slice checks of from_columns and the export chunks run on threads of
this process, so an exception raised in one reaches main with its own
type.  All outputs are deterministic for identical flags;
TRIMODULI_THREADS only sets the thread count and never changes bytes.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import equidist_report, obtuse_curve
from .diophantine import approximate_shape
from .enumeration import enumerate_weighted
from .errors import GuardError, PrecisionError
from .moduli import ShapeTriple
from .randgeom import mean_pair_distance, obtuse_probability, shape_histogram
from .serialize import (
    export_approximant,
    export_curve,
    export_estimate,
    export_histogram,
    export_report,
    export_weighted_set,
    write_text,
)
from .svgplot import census_points, plot_curve, plot_shapes


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


def _approx(args) -> str:
    target = _target_shape(args.a, args.b, args.c)
    return export_approximant(target, args.eps, approximate_shape(target, args.eps))


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
    p.set_defaults(produce=lambda a: export_weighted_set(enumerate_weighted(a.n), a.format))

    p = sub.add_parser("curve", help="obtuse fractions for n = 2..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(produce=lambda a: export_curve(obtuse_curve(a.n_max), a.format))

    p = sub.add_parser("report", help="census fraction vs both references")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(produce=lambda a: export_report(equidist_report(a.n)))

    p = sub.add_parser("approx", help="lattice triangle near a target shape")
    p.add_argument("--a", type=float, required=True, help="side length")
    p.add_argument("--b", type=float, required=True, help="side length")
    p.add_argument("--c", type=float, required=True, help="side length")
    p.add_argument("--eps", type=float, required=True, help="shape distance bound")
    p.add_argument("--out", default="-")
    p.set_defaults(produce=_approx)

    p = sub.add_parser("mc-obtuse", help="P(obtuse) for random triangles")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(
        produce=lambda a: export_estimate(obtuse_probability(a.samples, a.seed), "obtuse")
    )

    p = sub.add_parser("mc-distance", help="mean distance of two random points")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(
        produce=lambda a: export_estimate(mean_pair_distance(a.samples, a.seed), "pair-distance")
    )

    p = sub.add_parser("hist", help="histogram of random triangle shapes")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("labeled", "sorted"), default="labeled")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(
        produce=lambda a: export_histogram(
            shape_histogram(a.samples, a.bins, a.seed, labeled=a.mode == "labeled"), a.format
        )
    )

    p = sub.add_parser("plot-shapes", help="SVG scatter of census shapes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(produce=lambda a: plot_shapes(census_points(enumerate_weighted(a.n))))

    p = sub.add_parser("plot-curve", help="SVG of the obtuse-fraction curve")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(produce=lambda a: plot_curve(obtuse_curve(a.n_max)))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.produce(args)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            write_text(args.out, text)
        return 0
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # GuardError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None) or "<io>"
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller size or fewer threads", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
