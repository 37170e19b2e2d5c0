"""Acceptance gate: one test per advertised behavior, run in order.

Each test prints a single summary line (visible under pytest -s) and then
asserts, so a red run still reports every criterion's verdict.  Documented
windows are asserted as stated; see the README for the one known-red pair
of subchecks on the distinct-class fraction at n = 31.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import trimoduli as tm

pytestmark = pytest.mark.acceptance


def _verdict(cid: str, desc: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(v for _, v in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{name}={'ok' if v else 'FAIL'}" for name, v in checks)
    print(f"[{status}] {cid} {desc}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_closed_form_constants():
    # independent expressions: exact rational shoelace areas for the two
    # region measures, log/atan identities for the transcendental values
    teich = _shoelace([(1, 0), (0, 1), (1, 1)])
    moduli = _shoelace(
        [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(2, 3)), (0, 1)]
    )
    obtuse = 3.0 * (1.5 - math.log(4.0))  # 3 * integral of a(1-a)/(2-a)
    uniform = 9.0 - 6.0 * math.log(4.0)
    checks = [
        ("teich=1/2", abs(tm.measure_teich() - float(teich)) < 1e-12),
        ("moduli=1/12", abs(tm.measure_moduli() - float(moduli)) < 1e-12),
        ("obtuse=4.5-6ln2", abs(tm.obtuse_region_measure() - obtuse) < 1e-12),
        (
            "uniform=9-12ln2",
            abs(tm.uniform_target(tm.ModuliRegion.OBTUSE_ALL) - uniform) < 1e-12,
        ),
    ]
    _verdict("c01", "closed-form measures", checks)


def _shoelace(vertices):
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        area += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(area) / 2


def test_c02_oracle_equivalence():
    checks = []
    for n in (1, 2, 3):
        same = tm.enumerate_weighted(n) == tm.enumerate_naive((-n, n, -n, n))
        checks.append((f"n={n}", same))
    total = tm.enumerate_weighted(1).total_weight
    collinear = _collinear_brute(1)
    checks.append(("n=1 total=76", total == 76))
    checks.append(("76=C(9,3)-collinear", total == math.comb(9, 3) - collinear))
    _verdict("c02", "weighted census == brute force", checks)


def _collinear_brute(n: int) -> int:
    pts = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]
    count = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            count += 1
    return count


def test_c03_no_equilateral():
    missing = all(
        tm.SimilarityKey(1, 1, 1) not in dict(tm.enumerate_weighted(n).items())
        for n in range(1, 11)
    )
    _verdict("c03", "no equilateral class for n <= 10", [("n<=10", missing)])


def test_c04_census_obtuse_fractions(s31):
    pt = tm.curve_point_from_set(31, s31)
    w, d = pt.weighted_fraction, pt.distinct_fraction
    checks = [
        ("weighted in (0.69,0.74)", 0.69 < w < 0.74),
        (
            "closer to 0.7252065 than 0.682234",
            abs(w - 0.7252065) < abs(w - 0.682234),
        ),
        ("distinct in (0.60,0.64)", 0.60 < d < 0.64),
        ("weighted-distinct > 0.05", w - d > 0.05),
    ]
    print(f"    n=31 weighted={w:.6f} distinct={d:.6f}")
    _verdict("c04", "n=31 obtuse fractions", checks)


def test_c05_non_equidistribution_gap():
    report = tm.equidist_report(31)
    _verdict(
        "c05",
        "gap to uniform measure at n=31",
        [(f"gap={report.gap_to_uniform:.6f} > 0.03", report.gap_to_uniform > 0.03)],
    )


def test_c06_obtuse_monte_carlo():
    est = tm.obtuse_probability(10_000_000, 42)
    gap = abs(est.mean - tm.langford_obtuse_probability())
    _verdict(
        "c06",
        "P(obtuse) at 1e7 samples",
        [(f"|{est.mean:.7f} - 0.7252065| = {gap:.6f} < 0.001", gap < 0.001)],
    )


def test_c07_mean_distance_monte_carlo():
    est = tm.mean_pair_distance(10_000_000, 42)
    gap = abs(est.mean - 0.5214)
    _verdict(
        "c07",
        "mean pair distance at 1e7 samples",
        [(f"|{est.mean:.7f} - 0.5214| = {gap:.6f} < 0.001", gap < 0.001)],
    )


def test_c08_simultaneous_dirichlet():
    x, y = math.sqrt(2.0), math.sqrt(3.0)
    a = tm.dirichlet_2d(x, y, 1e-4)
    ex = abs(a.m * x - a.nx)
    ey = abs(a.m * y - a.ny)
    checks = [
        (f"|m*sqrt2 - nx| = {ex:.2e} < 1e-4", ex < 1e-4),
        (f"|m*sqrt3 - ny| = {ey:.2e} < 1e-4", ey < 1e-4),
        ("m >= 1", a.m >= 1),
    ]
    _verdict("c08", "simultaneous approximation witness", checks)


def _target_grid() -> list:
    """100 shape targets spread over the sorted region via a Kronecker
    sweep, the equilateral shape first."""
    third = 2.0 / 3.0
    targets = [tm.ShapeTriple(third, third, third)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    k = 0
    while len(targets) < 100:
        k += 1
        x = math.fmod(k * phi, 1.0)
        y = math.fmod(k * phi * phi, 1.0)
        a = 0.05 + 0.61 * x
        b_lo = max(a, 1.02 - a)
        b_hi = 1.0 - a / 2.0 - 0.005
        if b_hi <= b_lo:
            continue
        b = b_lo + (b_hi - b_lo) * y
        c = 2.0 - a - b
        if not (a <= b <= c < 0.98):
            continue
        targets.append(tm.ShapeTriple(a, b, c))
    return targets


def test_c09_dense_approximation_grid():
    worst = 0.0
    failures = 0
    for target in _target_grid():
        tri = tm.approximate_shape(target, 1e-3)
        d = target.distance_to(tm.shape_of(tm.similarity_key(tri)))
        worst = max(worst, d)
        if d >= 1e-3:
            failures += 1
    _verdict(
        "c09",
        "100-target approximation grid",
        [(f"worst={worst:.2e} < 1e-3, failures={failures}", failures == 0)],
    )


def test_c10_weyl_discrepancy():
    d = tm.star_discrepancy(tm.weyl_sequence(math.sqrt(3.0), 100_000))
    _verdict(
        "c10",
        "sqrt(3) Weyl sequence discrepancy",
        [(f"D*={d:.2e} < 0.01", d < 0.01)],
    )


def _run_cli(args: list[str], threads: str, out: str) -> None:
    env = dict(os.environ, TRIMODULI_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "trimoduli", *args, "--out", out],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr


def test_c11_worker_count_determinism(tmp_path):
    pairs = []
    for tag, args in (
        ("census", ["enumerate", "--n", "31", "--format", "csv"]),
        ("mc", ["mc-obtuse", "--samples", "10000000", "--seed", "42"]),
    ):
        f1 = tmp_path / f"{tag}-t1.out"
        f8 = tmp_path / f"{tag}-t8.out"
        _run_cli(args, "1", str(f1))
        _run_cli(args, "8", str(f8))
        pairs.append((tag, f1.read_bytes() == f8.read_bytes()))
    _verdict("c11", "byte-identical exports, 1 vs 8 workers", pairs)
