#!/usr/bin/env python3
"""Census experiment: enumerate one grid, emit every artifact for it.

Writes census-n{N}.csv, shapes-n{N}.svg, and report-n{N}.json into the
output directory and prints the headline fractions.  The shape scatter is
skipped, with a note, when the census projects to more than
MAX_PLOT_POINTS points (every n above 24, the default n = 31 included).
"""

import argparse
import pathlib
import time

from trimoduli import (
    GuardError,
    census_points,
    curve_point_from_set,
    enumerate_weighted,
    export_report,
    export_weighted_set,
    plot_shapes,
    report_from_point,
    write_text,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=31, help="grid half-width")
    ap.add_argument("--out-dir", default="out", help="artifact directory")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    census = enumerate_weighted(args.n)
    t1 = time.perf_counter()
    print(
        f"n={args.n}: {len(census)} classes, total weight {census.total_weight} "
        f"({t1 - t0:.1f}s)"
    )

    write_text(str(out / f"census-n{args.n}.csv"), export_weighted_set(census))

    try:
        plot_shapes(census_points(census), str(out / f"shapes-n{args.n}.svg"))
    except GuardError as exc:
        print(f"shape scatter skipped: {exc}")

    pt = curve_point_from_set(args.n, census)
    report = report_from_point(pt)
    write_text(str(out / f"report-n{args.n}.json"), export_report(report))
    print(f"weighted obtuse fraction {pt.weighted_fraction:.6f}")
    print(f"distinct obtuse fraction {pt.distinct_fraction:.6f}")
    print(f"gap to uniform measure   {report.gap_to_uniform:.6f}")
    print(f"gap to random baseline   {report.gap_to_langford:.6f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
