"""The benchmark's workloads: inputs made from the seed, one pass of
public calls into trimoduli, the correctness gate, counts and probes.

Each pass mirrors one CLI command (or, for mc1e7, three), so a pass's wall
time is what a user of that command waits for:

* census31     ``trimoduli enumerate --n 31 --format csv --out F``
* curve20      ``trimoduli curve --n-max 20 --out F``
* approx_grid  ``trimoduli approx`` once per target of the c09 grid
* mc1e7        ``mc-obtuse``, ``mc-distance`` and ``hist --bins 64`` at 1e7

The gate runs after the pass, outside the timed region, and checks every
output against something the package did not compute: an O(n^2) closed
count of collinear triples, export digests recorded from the package at the
commit the benchmark was defined against, an independent re-verification
of each approximant, and the closed-form Monte Carlo references.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import trimoduli as tm
from trimoduli.rng import BLOCK_SAMPLES, block_sizes

from tracing import Tracer, duration


@dataclass(frozen=True)
class Sizes:
    census_n: int
    curve_n_max: int
    approx_targets: int
    approx_eps: float
    mc_samples: int


FULL = Sizes(census_n=31, curve_n_max=20, approx_targets=100, approx_eps=1e-3,
             mc_samples=10_000_000)
# For the benchmark's own smoke test: every code path in seconds.
TINY = Sizes(census_n=4, curve_n_max=5, approx_targets=10, approx_eps=1e-2,
             mc_samples=20_000)

# (sha256 of the CSV export, distinct keys) per census size, and the sha256
# of the curve CSV per n_max, recorded from the package before any
# optimization; exports are a byte-for-byte contract.
CENSUS_CSV = {
    31: ("51ab0515cece5d425a40f42266a9cd0a3dd0d46981783dd56e0a6a49d148f78b", 1_901_202),
    4: ("d636adb5033b6fa0598077945f48c97b67b0b3c1e09d8cd8720273992643fc4a", 667),
}
CURVE_CSV = {
    20: "899442be320b0cccd8c38da8e2c58b2e5bcae9e2010d3de9e411ee1ece8e6d2e",
    5: "3892f81b149e4f295b4f657f9ae681cc51e206717558533a21324d818e288fb3",
}

# The seed moves the start of the target sweep by fewer than this many
# steps.  Disjoint 100-target windows of the sweep differ in cost by up to
# 25%, shifts of 0-3 steps by 4% and shifts of 0-1 by under 1%; a wider
# shift would make run-to-run spread a property of the seed, not the code.
APPROX_MAX_SHIFT = 2
MC_BASE_SEED = 42  # seed 0 reproduces the c06/c07 estimates
MC_BINS = 64
MC_SE_BOUND = 6.0
RNG_PROBE_DRAWS = 5


def collinear_triples(side: int) -> int:
    """Collinear point triples in a side x side grid, in O(side^2).

    Each triple is fixed by its two outer points, whose difference (dx, dy)
    is taken from one half-plane, and by one of the gcd(dx, dy) - 1 lattice
    points strictly between them; the segment fits in
    (side - |dx|)(side - |dy|) positions."""
    total = 0
    for dx in range(side):
        for dy in range(-(side - 1), side):
            if dx == 0 and dy <= 0:
                continue
            g = math.gcd(dx, dy)
            if g > 1:
                total += (g - 1) * (side - dx) * (side - abs(dy))
    return total


def triangle_count(n: int) -> int:
    """Non-degenerate triangles with vertices in [-n, n]^2."""
    side = 2 * n + 1
    return math.comb(side * side, 3) - collinear_triples(side)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def target_grid(seed: int, count: int) -> list:
    """The c09 grid: the equilateral shape, then a Kronecker sweep over the
    sorted shape region.  Seed 0 gives exactly c09's 100 targets; seed s
    starts the sweep s mod APPROX_MAX_SHIFT steps later."""
    third = 2.0 / 3.0
    targets = [tm.ShapeTriple(third, third, third)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    k = seed % APPROX_MAX_SHIFT
    while len(targets) < count:
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


def probe_map_ordered(tr: Tracer) -> dict:
    """Pool start-up and shutdown around worker_count() no-op tasks: the
    fixed cost every parallel call pays."""
    workers = tm.worker_count()
    with tr.span("parallel.map_ordered") as rec:
        tm.map_ordered(os.getpid, [()] * workers, workers)
    return {"parallel.map_ordered.overhead_s": duration(rec)}


class Census:
    """census31: the paper's headline scale; large-n load on the scan, the
    merge, from_columns and the CSV writer."""

    name = "census31"
    op_per_pass = True

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {"n": sizes.census_n}

    def ops(self, inp: dict) -> int:
        return 1

    def run(self, inp: dict, tr: Tracer, workdir: Path) -> dict:
        path = workdir / "census.csv"
        with tr.span("enumeration.enumerate_weighted"):
            census = tm.enumerate_weighted(inp["n"])
        with tr.span("serialize.export_weighted_set"):
            text = tm.export_weighted_set(census, "csv")
        with tr.span("serialize.write_text"):
            tm.write_text(str(path), text)
        return {"census": census, "path": path}

    def check(self, inp: dict, out: dict) -> list[tuple[int, str]]:
        n = inp["n"]
        census = out["census"]
        digest, keys = CENSUS_CSV[n]
        fails = []
        expect = triangle_count(n)
        if census.total_weight != expect:
            fails.append((0, f"total weight {census.total_weight} != {expect}"))
        if len(census) != keys:
            fails.append((0, f"{len(census)} keys != {keys}"))
        got = file_sha256(out["path"])
        if got != digest:
            fails.append((0, f"census CSV sha256 {got} != {digest}"))
        return fails

    def items(self, inp: dict, out: dict) -> int:
        return out["census"].total_weight

    def counts(self, inp: dict, out: dict) -> dict:
        return {
            "enumeration.keys": len(out["census"]),
            "enumeration.triangles": out["census"].total_weight,
            "serialize.bytes": out["path"].stat().st_size,
        }

    def probes(self, inp: dict, out: dict, tr: Tracer) -> dict:
        with tr.span("moduli.from_columns") as rec:
            tm.WeightedShapeSet.from_columns(*out["census"].columns())
        return {"moduli.from_columns.wall_s": duration(rec)}


class Curve:
    """curve20: 19 small censuses, 19 pool start-ups and little
    serialization, so a change that helps large n but costs small n shows."""

    name = "curve20"
    op_per_pass = True

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {"n_max": sizes.curve_n_max}

    def ops(self, inp: dict) -> int:
        return 1

    def run(self, inp: dict, tr: Tracer, workdir: Path) -> dict:
        path = workdir / "curve.csv"
        with tr.span("analysis.obtuse_curve"):
            points = tm.obtuse_curve(inp["n_max"])
        with tr.span("serialize.export_curve"):
            text = tm.export_curve(points, "csv")
        with tr.span("serialize.write_text"):
            tm.write_text(str(path), text)
        return {"points": points, "path": path}

    def check(self, inp: dict, out: dict) -> list[tuple[int, str]]:
        n_max = inp["n_max"]
        points = out["points"]
        fails = []
        if [pt.n for pt in points] != list(range(2, n_max + 1)):
            fails.append((0, f"curve covers n = {[pt.n for pt in points]}"))
        for pt in points:
            expect = triangle_count(pt.n)
            if pt.total_weight != expect:
                fails.append((0, f"n={pt.n}: total weight {pt.total_weight} != {expect}"))
        got = file_sha256(out["path"])
        if got != CURVE_CSV[n_max]:
            fails.append((0, f"curve CSV sha256 {got} != {CURVE_CSV[n_max]}"))
        return fails

    def items(self, inp: dict, out: dict) -> int:
        return sum(pt.total_weight for pt in out["points"])

    def counts(self, inp: dict, out: dict) -> dict:
        return {
            "analysis.points": len(out["points"]),
            "serialize.bytes": out["path"].stat().st_size,
        }

    def probes(self, inp: dict, out: dict, tr: Tracer) -> dict:
        return probe_map_ordered(tr)


class ApproxGrid:
    """approx_grid: single-threaded and never enumerates, so a census
    change should leave it unmoved; one operation per target."""

    name = "approx_grid"
    op_per_pass = False

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {
            "targets": target_grid(seed, sizes.approx_targets),
            "eps": sizes.approx_eps,
        }

    def ops(self, inp: dict) -> int:
        return len(inp["targets"])

    def run(self, inp: dict, tr: Tracer, workdir: Path) -> dict:
        eps = inp["eps"]
        witnesses = []
        for target in inp["targets"]:
            with tr.span("diophantine.approximate_shape"):
                witnesses.append(tm.approximate_shape(target, eps))
        return {"witnesses": witnesses}

    def check(self, inp: dict, out: dict) -> list[tuple[int, str]]:
        # the bound, not the witness: a better search may return another one
        eps = inp["eps"]
        fails = []
        for i, (target, tri) in enumerate(zip(inp["targets"], out["witnesses"])):
            d = tm.shape_of(tm.similarity_key(tri)).distance_to(target)
            if not d < eps:
                fails.append((i, f"target {i}: distance {d} >= {eps}"))
        return fails

    def items(self, inp: dict, out: dict) -> int:
        return len(out["witnesses"])

    def counts(self, inp: dict, out: dict) -> dict:
        base = max(
            max(abs(v.x), abs(v.y)) for tri in out["witnesses"] for v in tri.vertices
        )
        return {"diophantine.approximate_shape.max_base": base}

    def probes(self, inp: dict, out: dict, tr: Tracer) -> dict:
        return {}


class MonteCarlo:
    """mc1e7: the only workload for rng and randgeom; map_ordered over 153
    small blocks per call where census31 uses 234 large batches."""

    name = "mc1e7"
    op_per_pass = False

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {"samples": sizes.mc_samples, "seed": MC_BASE_SEED + seed}

    def ops(self, inp: dict) -> int:
        return 3

    def run(self, inp: dict, tr: Tracer, workdir: Path) -> dict:
        samples, seed = inp["samples"], inp["seed"]
        with tr.span("randgeom.obtuse_probability"):
            obtuse = tm.obtuse_probability(samples, seed)
        with tr.span("randgeom.mean_pair_distance"):
            distance = tm.mean_pair_distance(samples, seed)
        with tr.span("randgeom.shape_histogram"):
            hist = tm.shape_histogram(samples, MC_BINS, seed, labeled=True)
        return {"obtuse": obtuse, "distance": distance, "hist": hist}

    def check(self, inp: dict, out: dict) -> list[tuple[int, str]]:
        samples = inp["samples"]
        fails = []
        refs = (
            (0, out["obtuse"], 97.0 / 150.0 + math.pi / 40.0),
            (1, out["distance"], (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0),
        )
        for op, est, ref in refs:
            if not abs(est.mean - ref) < MC_SE_BOUND * est.std_error:
                fails.append((op, f"mean {est.mean} is not within "
                                  f"{MC_SE_BOUND} SE ({est.std_error}) of {ref}"))
        hits = round(out["obtuse"].mean * samples)
        if out["hist"].obtuse_count != hits:
            fails.append((2, f"histogram obtuse count {out['hist'].obtuse_count} "
                             f"!= {hits} obtuse hits"))
        return fails

    def items(self, inp: dict, out: dict) -> int:
        return 3 * inp["samples"]

    def counts(self, inp: dict, out: dict) -> dict:
        return {"randgeom.blocks": len(block_sizes(inp["samples"]))}

    def probes(self, inp: dict, out: dict, tr: Tracer) -> dict:
        draws = []
        for i in range(RNG_PROBE_DRAWS):
            with tr.span("rng.block_generator") as rec:
                tm.block_generator(inp["seed"], i).random((BLOCK_SAMPLES, 6))
            draws.append(duration(rec))
        return {**probe_map_ordered(tr), "rng.block_generator.draw_s": statistics.median(draws)}


WORKLOADS = {w.name: w for w in (Census(), Curve(), ApproxGrid(), MonteCarlo())}
