"""SVG output: well-formed, deterministic, structurally correct."""

import xml.etree.ElementTree as ET

import pytest

import trimoduli as tm

SVG = "{http://www.w3.org/2000/svg}"


def _classes(root, cls):
    return [el for el in root.iter() if el.get("class") == cls]


class TestShapeScatter:
    def test_dot_count_matches_orbit_projections(self, tmp_path):
        s = tm.WeightedShapeSet(
            {
                tm.SimilarityKey(9, 16, 25): 1,  # scalene: 6 dots
                tm.SimilarityKey(1, 1, 2): 3,  # isoceles: 3 dots
                tm.SimilarityKey(1, 1, 1): 1,  # equilateral: 1 dot
            }
        )
        a, b, _ = tm.orbit_projections(s)
        out = tmp_path / "scatter.svg"
        tm.plot_shapes(list(zip(a.tolist(), b.tolist())), str(out))
        root = ET.parse(out).getroot()
        assert len(_classes(root, "pt")) == 10

    def test_census_dot_count(self, tmp_path):
        # a census has no equilateral class, so the dots are exactly the
        # 6-per-scalene, 3-per-isoceles orbit projections
        s = tm.enumerate_weighted(5)
        scalene = iso = 0
        for k, _ in s.items():
            p, q, r = k.triple
            if p == q or q == r:
                iso += 1
            else:
                scalene += 1
        a, b, _ = tm.orbit_projections(s)
        out = tmp_path / "census.svg"
        tm.plot_shapes(list(zip(a.tolist(), b.tolist())), str(out))
        root = ET.parse(out).getroot()
        assert len(_classes(root, "pt")) == 6 * scalene + 3 * iso == len(a)

    def test_reference_furniture_present(self, tmp_path):
        out = tmp_path / "one.svg"
        tm.plot_shapes([(0.7, 0.7)], str(out))
        root = ET.parse(out).getroot()
        assert len(_classes(root, "equilateral")) == 1
        assert len(_classes(root, "iso")) == 3
        assert len(_classes(root, "region")) == 1

    def test_deterministic_bytes(self, tmp_path):
        pts = [(0.7, 0.7), (0.55, 0.85)]
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        tm.plot_shapes(pts, str(f1))
        tm.plot_shapes(pts, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_guards(self, tmp_path):
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([], str(tmp_path / "x.svg"))
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([(5.0, 0.5)], str(tmp_path / "x.svg"))
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([(float("nan"), 0.5)], str(tmp_path / "x.svg"))

    @pytest.mark.parametrize("point", [("0.7", "0.7"), (True, True)], ids=["str", "bool"])
    def test_rejects_points_that_are_not_real(self, tmp_path, point):
        out = tmp_path / "x.svg"
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([point], str(out))
        assert not out.exists()

    def test_point_cap_checked_before_any_point_is_read(self, tmp_path):
        class Oversized:
            def __len__(self):
                return tm.MAX_PLOT_POINTS + 1

            def __iter__(self):
                raise AssertionError("points read before the cap was checked")

        out = tmp_path / "x.svg"
        with pytest.raises(tm.GuardError):
            tm.plot_shapes(Oversized(), str(out))
        assert not out.exists()

    def test_census_points_refuses_n31_before_projecting(self, s31, monkeypatch):
        def project(census):
            raise AssertionError("projections built for an oversized census")

        monkeypatch.setattr("trimoduli.svgplot.orbit_projections", project)
        with pytest.raises(tm.GuardError):
            tm.census_points(s31)

    def test_census_points_rows_are_orbit_projections(self):
        s = tm.enumerate_weighted(3)
        a, b, _ = tm.orbit_projections(s)
        assert tm.census_points(s).tolist() == list(map(list, zip(a.tolist(), b.tolist())))


class TestCurvePlot:
    def test_single_point_structure(self, tmp_path):
        out = tmp_path / "curve.svg"
        tm.plot_curve([tm.obtuse_point(2)], str(out))
        root = ET.parse(out).getroot()
        assert len(_classes(root, "wpt")) == 1
        assert len(_classes(root, "dpt")) == 1
        assert len(_classes(root, "ref")) == 2

    def test_tick_per_grid_size(self, tmp_path):
        pts = tm.obtuse_curve(5)
        out = tmp_path / "curve.svg"
        tm.plot_curve(pts, str(out))
        root = ET.parse(out).getroot()
        ticks = [el.text for el in _classes(root, "xtick")]
        assert ticks == ["2", "3", "4", "5"]
        assert len(_classes(root, "wpt")) == 4
        assert len(_classes(root, "dpt")) == 4

    def test_parses_as_svg(self, tmp_path):
        out = tmp_path / "curve.svg"
        tm.plot_curve(tm.obtuse_curve(3), str(out))
        root = ET.parse(out).getroot()
        assert root.tag == f"{SVG}svg"

    def test_deterministic_bytes(self, tmp_path):
        pts = tm.obtuse_curve(3)
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        tm.plot_curve(pts, str(f1))
        tm.plot_curve(pts, str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_empty_guard(self, tmp_path):
        with pytest.raises(tm.GuardError):
            tm.plot_curve([], str(tmp_path / "x.svg"))
