"""CLI behavior: output bytes, exit codes, subprocess entry points."""

import hashlib
import json
import re
import shlex
import shutil
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import trimoduli as tm
from trimoduli.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestEnumerateCommand:
    def test_stdout_matches_naive_census(self, capsys):
        assert main(["enumerate", "--n", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        expected = tm.export_weighted_set(tm.enumerate_naive((-1, 1, -1, 1)), "csv")
        assert out == expected

    def test_json_format(self, capsys):
        assert main(["enumerate", "--n", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "trimoduli.weighted-set.v1"
        assert doc["total_weight"] == 76

    def test_file_output_reruns_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["enumerate", "--n", "2", "--out", str(f1)]) == 0
        assert main(["enumerate", "--n", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_worker_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv(tm.ENV_THREADS, "1")
        assert main(["enumerate", "--n", "2", "--out", str(f1)]) == 0
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        assert main(["enumerate", "--n", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])  # missing --n
        assert exc.value.code == 2

    def test_guard_violation_is_3(self, capsys):
        assert main(["enumerate", "--n", "0"]) == 3
        assert "error:" in capsys.readouterr().err
        assert main(["enumerate", "--n", "512"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_triangle_sides_is_3(self, capsys):
        assert main(["approx", "--a", "1", "--b", "1", "--c", "5", "--eps", "0.01"]) == 3

    def test_precision_failure_is_4(self, capsys, monkeypatch):
        def explode(target, eps):
            raise tm.PrecisionError("post-condition failed")

        monkeypatch.setattr("trimoduli.cli.approximate_shape", explode)
        code = main(["approx", "--a", "3", "--b", "4", "--c", "5", "--eps", "0.01"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--n", "2"], ["curve", "--n-max", "3"], ["report", "--n", "3"]],
        ids=["enumerate", "curve", "report"],
    )
    def test_failed_total_check_is_4(self, capsys, monkeypatch, argv):
        # a closed-form total one off makes the census and curve checks fail
        total = tm.enumeration._triangle_total
        monkeypatch.setattr("trimoduli.enumeration._triangle_total", lambda n: total(n) + 1)
        assert main(argv) == 4
        assert "error:" in capsys.readouterr().err

    def test_io_failure_is_1(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        assert main(["enumerate", "--n", "1", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("error", "code"), [(tm.PrecisionError, 4), (tm.GuardError, 3)], ids=["precision", "guard"]
    )
    def test_sampler_block_error_keeps_its_exit_code(self, capsys, monkeypatch, error, code):
        def fail_third_block(seed, index, size):
            if index == 2:
                raise error("block failed")
            return (0,)

        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.randgeom._obtuse_block", fail_third_block)
        assert main(["mc-obtuse", "--samples", "1000000"]) == code
        assert "error: block failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["mc-obtuse"], ["hist", "--bins", "8"]], ids=["obtuse", "hist"]
    )
    def test_sample_count_past_the_maximum_is_3(self, capsys, argv):
        # at sys.maxsize the block argument list cannot be allocated
        assert main([*argv, "--samples", str(sys.maxsize)]) == 3
        assert "error: samples must be in" in capsys.readouterr().err
        assert main([*argv, "--samples", str(tm.rng.MAX_SAMPLES + 1)]) == 3
        assert "error: samples must be in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("error", "code"), [(tm.PrecisionError, 4), (tm.GuardError, 3)], ids=["precision", "guard"]
    )
    def test_census_height_error_keeps_its_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        box_table = tm.enumeration._box_table

        def fail_at_height_4(n, h):
            if h == 4:
                raise error("height failed")
            return box_table(n, h)

        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.enumeration._box_table", fail_at_height_4)
        out = tmp_path / "census.csv"
        assert main(["enumerate", "--n", "3", "--out", str(out)]) == code
        assert "error: height failed" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_1(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(n, h):
            raise MemoryError

        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.enumeration._box_table", out_of_memory)
        out = tmp_path / "census.csv"
        assert main(["enumerate", "--n", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("error", "code"), [(tm.PrecisionError, 4), (tm.GuardError, 3)], ids=["precision", "guard"]
    )
    def test_curve_height_error_keeps_its_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        height_cells = tm.enumeration._height_cells

        def fail_at_height_4(h):
            if h == 4:
                raise error("height failed")
            return height_cells(h)

        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.enumeration._height_cells", fail_at_height_4)
        out = tmp_path / "curve.csv"
        assert main(["curve", "--n-max", "3", "--out", str(out)]) == code
        assert "error: height failed" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_requires_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["plot-curve", "--n-max", "3"])
        assert exc.value.code == 2

    def test_report_has_no_format_option(self):
        # the report is JSON only, so it takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["report", "--n", "2", "--format", "json"])
        assert exc.value.code == 2


class TestApproxCommand:
    def test_witness_meets_eps(self, capsys):
        assert main(["approx", "--a", "3", "--b", "4", "--c", "5", "--eps", "1e-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "trimoduli.approximant.v1"
        assert doc["distance"] < 1e-3
        assert doc["target"] == [0.5, 2.0 / 3.0, 5.0 / 6.0]
        for x, y in doc["vertices"]:
            assert isinstance(x, int) and isinstance(y, int)

    def test_eps_floor_finishes(self, capsys):
        assert main(["approx", "--a", "2", "--b", "3", "--c", "4", "--eps", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distance"] < 1e-6

    def test_sides_normalized_any_order_any_scale(self, capsys):
        assert main(["approx", "--a", "50", "--b", "40", "--c", "30", "--eps", "1e-2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == [0.5, 2.0 / 3.0, 5.0 / 6.0]


class TestReportAndCurve:
    def test_report_json(self, capsys):
        assert main(["report", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "trimoduli.equidist-report.v1"
        assert doc["n"] == 2
        assert doc["empirical_ratio"] == pytest.approx(0.534450, abs=1e-6)

    def test_curve_csv(self, capsys):
        assert main(["curve", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema: trimoduli.obtuse-curve.v1"
        assert len(lines) == 4  # schema, header, n=2, n=3


class TestMonteCarloCommands:
    def test_mc_obtuse_deterministic(self, capsys):
        assert main(["mc-obtuse", "--samples", "2000", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["mc-obtuse", "--samples", "2000", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["kind"] == "obtuse" and doc["samples"] == 2000

    def test_mc_distance(self, capsys):
        assert main(["mc-distance", "--samples", "2000", "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "pair-distance"
        assert 0.4 < doc["mean"] < 0.6

    def test_hist_csv_meta(self, capsys):
        assert main(["hist", "--samples", "1000", "--bins", "8", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema: trimoduli.histogram.v1"
        assert "mode=labeled" in lines[1]

    def test_hist_sorted_mode(self, capsys):
        code = main(
            ["hist", "--samples", "1000", "--bins", "8", "--seed", "1", "--mode", "sorted"]
        )
        assert code == 0
        assert "mode=sorted" in capsys.readouterr().out.splitlines()[1]


class TestPlotCommands:
    def test_plot_shapes_writes_svg(self, tmp_path):
        out = tmp_path / "shapes.svg"
        assert main(["plot-shapes", "--n", "2", "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_plot_shapes_above_point_cap_is_3(self, tmp_path, capsys):
        # n = 25 is the first census past MAX_PLOT_POINTS: 4,860,300 points
        out = tmp_path / "shapes.svg"
        assert main(["plot-shapes", "--n", "25", "--out", str(out)]) == 3
        assert "MAX_PLOT_POINTS" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_curve_writes_svg(self, tmp_path):
        out = tmp_path / "curve.svg"
        assert main(["plot-curve", "--n-max", "3", "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")


# sha256 of the file each command writes with --out; every byte of every
# artifact is part of the contract, so these hold across any refactor that
# leaves the results unchanged
PINNED_OUTPUTS = [
    (
        "enumerate --n 4 --format csv",
        "d636adb5033b6fa0598077945f48c97b67b0b3c1e09d8cd8720273992643fc4a",
    ),
    (
        "enumerate --n 4 --format json",
        "f00b375643d3971f2d891af231eb6323a0f5431995be6e1aaa232d75c5fad9a2",
    ),
    (
        "curve --n-max 5 --format csv",
        "3892f81b149e4f295b4f657f9ae681cc51e206717558533a21324d818e288fb3",
    ),
    (
        "curve --n-max 5 --format json",
        "d12bb69b84576b6cde80d44710622188b3700a8e1b29c1d787a63a4c391621ae",
    ),
    (
        "report --n 4",
        "5c4e19e369582b22d929925ba2332e1d83ea9ee4e006567a8efc826d68ac0ac4",
    ),
    (
        "approx --a 3 --b 4 --c 5 --eps 1e-3",
        "902bfb380eb6f4b99f9091b1a2427492839dcf81a0e70c423f677d59b51230a0",
    ),
    (
        "mc-obtuse --samples 20000 --seed 3",
        "efed197adbdba9679665eb3ad5814fe23d2c220bcd69f90783166c8fccf98e2d",
    ),
    (
        "mc-distance --samples 20000 --seed 3",
        "a2ed13efa5069c775e027e869f62a2367607137ab8def83cab2882541cf8207e",
    ),
    (
        "hist --samples 20000 --bins 16 --seed 3",
        "2e6f346022794252fa61285085435cab41269d768e0880210fd773468738d0ae",
    ),
    (
        "hist --samples 20000 --bins 16 --seed 3 --mode sorted --format json",
        "019a2b68c86e6eb5e1ac33bead701fb7c2446d0ca95e2df7c56847230a2b0420",
    ),
    # four sampler blocks, the last partial and not a multiple of the slice size
    (
        "mc-obtuse --samples 200003 --seed 3",
        "035b9d173a6ab6497150d8081e057e4d6e6767114faf0ce05437f879afe8876b",
    ),
    (
        "mc-distance --samples 200003 --seed 3",
        "2e4930c508bf9cb222826936e6a79ecb7030e3c79b6b4135b8bb195ab754dac0",
    ),
    (
        "hist --samples 200003 --bins 16 --seed 3",
        "372d0bc3c0e1ba26b82d3233af18b8e015c2f2bce89036fac608e2ca9ffa2b07",
    ),
    (
        "plot-shapes --n 4",
        "ed88b6f05f73f3cd222e6fa32734456a17f82f183f1c7e9838da27a325d06e08",
    ),
    (
        "plot-curve --n-max 5",
        "60bceb28d949efda6b0b3a950a92cd2031cb0f0de80db008c2058ae7afff1dff",
    ),
]


class TestPinnedOutputDigests:
    @pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS, ids=[a for a, _ in PINNED_OUTPUTS])
    def test_output_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "artifact"
        assert main(argv.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSubprocessEntryPoints:
    def test_module_invocation(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "trimoduli", "enumerate", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert main(["enumerate", "--n", "1"]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_console_script_help(self):
        # The `trimoduli` command is whatever [project.scripts] declares.
        # Run that entry point the way an installer's generated wrapper does,
        # so the declaration is checked without installing the package; an
        # installed script on PATH is checked as well.
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "trimoduli" in scripts
        module, _, attr = scripts["trimoduli"].partition(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {attr.split('.')[0]}\n"
            "sys.argv[0] = 'trimoduli'\n"
            f"sys.exit({attr}())\n"
        )
        commands = [[sys.executable, "-c", wrapper, "--help"]]
        installed = shutil.which("trimoduli")
        if installed is not None:
            commands.append([installed, "--help"])
        for cmd in commands:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("usage: trimoduli")
            assert "census" in proc.stdout


def test_readme_cli_examples_parse():
    # the README's command lines are the runnable recipes; parse, do not run
    lines = [
        line
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("trimoduli ")
    ]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_library_names_resolve():
    # every tm.<name> in the README, the Library tour's included, is public
    names = set(re.findall(r"\btm\.(\w+)", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert names
    assert sorted(name for name in names if not hasattr(tm, name)) == []


# the public surface of the package; a change that grows or shrinks it edits
# this list
PUBLIC_NAMES = [
    "BLOCK_SAMPLES", "ENV_THREADS", "EquidistReport", "GuardError", "Histogram2D",
    "LatticePoint", "LatticeTriangle", "MAX_COORD", "MAX_N", "MAX_PLOT_POINTS",
    "McEstimate", "ModuliRegion", "ObtuseCurvePoint", "PrecisionError", "ShapeTriple",
    "SimilarityKey", "WeightedShapeSet", "approximate_shape", "block_generator",
    "census_points", "collinear_triple_count", "compare_to_uniform", "cross",
    "curve_point_from_set", "dirichlet_1d", "dirichlet_2d", "enumerate_naive",
    "enumerate_weighted", "equidist_report", "export_approximant", "export_curve",
    "export_estimate", "export_histogram", "export_report", "export_weighted_set",
    "langford_obtuse_probability", "map_ordered", "mean_pair_distance", "measure_moduli",
    "measure_teich", "obtuse_curve", "obtuse_point", "obtuse_probability",
    "obtuse_region_measure", "orbit_bin_masses", "orbit_projections", "plot_curve",
    "plot_shapes", "read_weighted_set", "reduced_triple", "right_locus", "shape_histogram",
    "shape_of", "similarity_key", "splitmix64", "star_discrepancy", "stream_key",
    "strict_triangle_test", "triangle", "tv_distance", "uniform_bin_masses",
    "uniform_target", "unit_square_mean_distance", "weyl_sequence", "worker_count",
    "write_text",
]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name in dir(tm)
        if not name.startswith("_") and not isinstance(getattr(tm, name), types.ModuleType)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert public == PUBLIC_NAMES
