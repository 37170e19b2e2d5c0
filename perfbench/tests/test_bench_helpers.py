"""The benchmark's own helpers: the collinear identity behind the census
gate, span arithmetic, and parsing of results and traces."""

import json

import pytest

import trimoduli as tm
from run import git_sha, parse_result
from tracing import Tracer, layer_metrics, quantile, read_jsonl, self_time
from workloads import WORKLOADS, collinear_triples, target_grid, triangle_count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collinear_identity_matches_brute_force(n):
    assert collinear_triples(2 * n + 1) == tm.collinear_triple_count((-n, n, -n, n))


@pytest.mark.parametrize("n", [1, 2])
def test_triangle_count_matches_naive_census(n):
    assert triangle_count(n) == tm.enumerate_naive((-n, n, -n, n)).total_weight


def test_triangle_count_matches_fast_census():
    for n in range(1, 7):
        assert triangle_count(n) == tm.enumerate_weighted(n).total_weight
    assert triangle_count(1) == 76
    assert triangle_count(31) == 10_396_883_248


def _span(i, parent, start, end, name="x"):
    return {"run": "r", "id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),   # overlaps span 1: covered once
        _span(3, 0, 5.0, 6.0),
        _span(4, 1, 1.5, 2.5),   # grandchild: not the root's child
        _span(5, 0, 9.5, 12.0),  # runs past the root: clipped at 10
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert self_time(spans, 1) == pytest.approx(1.0)
    assert self_time(spans, 4) == pytest.approx(1.0)


def test_tracer_nests_spans_and_round_trips(tmp_path):
    tr = Tracer("run-1", resources=True)
    with tr.span("bench.w") as root:
        with tr.span("a.f"):
            pass
        with tr.span("b.g"):
            pass
    with tr.span("probe.p"):
        pass
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(path)
    spans = read_jsonl(path)
    assert [s["name"] for s in spans] == ["bench.w", "a.f", "b.g", "probe.p"]
    assert [s["parent"] for s in spans] == [None, root["id"], root["id"], None]
    assert {s["run"] for s in spans} == {"run-1"}
    assert all("cpu_s" in s and s["peak_rss_mb"] > 0 for s in spans)
    assert 0.0 <= self_time(spans, 0) <= spans[0]["end"] - spans[0]["start"]


def test_read_jsonl_rejects_malformed_spans(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"run": "r", "id": 0, "name": "x", "start": 0, "end": 1}) + "\n")
    with pytest.raises(ValueError, match="lacks"):
        read_jsonl(path)
    path.write_text(json.dumps(_span(0, None, 2.0, 1.0)) + "\n")
    with pytest.raises(ValueError, match="before"):
        read_jsonl(path)


def test_layer_metrics_and_quantiles():
    spans = [
        {**_span(0, None, 0.0, 1.0, "m.f"), "cpu_s": 1.0, "peak_rss_mb": 10.0},
        {**_span(1, None, 1.0, 4.0, "m.f"), "cpu_s": 5.0, "peak_rss_mb": 30.0},
    ]
    got = layer_metrics(spans, workers=2, passes=2)
    assert got["m.f.wall_s"] == pytest.approx(2.0)
    assert got["m.f.cpu_util"] == pytest.approx(6.0 / (4.0 * 2))
    assert got["m.f.peak_rss_mb"] == 30.0
    assert got["m.f.p50_s"] == pytest.approx(2.0)
    values = list(range(1, 101))
    assert quantile(values, 0.5) == pytest.approx(50.5)
    assert quantile(values, 0.9) == pytest.approx(90.1)
    assert quantile([7.0], 0.9) == 7.0


def test_parse_result():
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    text = "env {}\nw wall_s = 1.5 s\n" + json.dumps(good) + "\n"
    assert parse_result(text) == good
    for bad in (
        {k: v for k, v in good.items() if k != "failed"},
        {**good, "extra": 1},
        {**good, "attempted": 0},
        {**good, "failed": 0.0},
        {**good, "metrics": {"wall_s": {"value": "1.5", "unit": "s"}}},
    ):
        with pytest.raises(ValueError):
            parse_result(json.dumps(bad))


def test_git_sha_reads_loose_and_packed_refs(tmp_path):
    assert git_sha(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "a" * 40 + " refs/heads/main\n")
    assert git_sha(tmp_path) == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert git_sha(tmp_path) == "b" * 40


def test_seed_zero_is_the_c09_grid_and_seeds_stay_near_it():
    grid = target_grid(0, 100)
    assert len(grid) == 100 and grid[0].triple == pytest.approx((2 / 3,) * 3)
    assert target_grid(2, 100) == grid
    shifted = target_grid(1, 100)
    assert shifted[0] == grid[0] and shifted != grid
    assert len(set(grid) & set(shifted)) == 99


def test_gates_reject_wrong_outputs(tmp_path):
    census = WORKLOADS["census31"]
    inp = {"n": 4}
    out = census.run(inp, Tracer("r"), tmp_path)
    assert census.check(inp, out) == []
    out["path"].write_text("tampered\n")
    wrong = {"census": tm.enumerate_weighted(3), "path": out["path"]}
    assert len(census.check(inp, wrong)) == 3

    mc = WORKLOADS["mc1e7"]
    inp = {"samples": 20_000, "seed": 42}
    out = mc.run(inp, Tracer("r"), tmp_path)
    assert mc.check(inp, out) == []
    out["hist"] = tm.shape_histogram(20_000, 64, 43)
    assert [op for op, _ in mc.check(inp, out)] == [2]

    approx = WORKLOADS["approx_grid"]
    inp = {"targets": target_grid(0, 3), "eps": 1e-2}
    out = approx.run(inp, Tracer("r"), tmp_path)
    assert approx.check(inp, out) == []
    out["witnesses"].reverse()
    assert [op for op, _ in approx.check(inp, out)] == [0, 2]
