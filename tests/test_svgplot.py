"""SVG output: well-formed, deterministic, structurally correct."""

import xml.etree.ElementTree as ET

import pytest

import trimoduli as tm

SVG = "{http://www.w3.org/2000/svg}"


def _classes(root, cls):
    return [el for el in root.iter() if el.get("class") == cls]


class TestShapeScatter:
    def test_dot_count_matches_orbit_projections(self):
        s = tm.WeightedShapeSet(
            {
                tm.SimilarityKey(9, 16, 25): 1,  # scalene: 6 dots
                tm.SimilarityKey(1, 1, 2): 3,  # isoceles: 3 dots
                tm.SimilarityKey(1, 1, 1): 1,  # equilateral: 1 dot
            }
        )
        a, b, _ = tm.orbit_projections(s)
        root = ET.fromstring(tm.plot_shapes(list(zip(a.tolist(), b.tolist()))))
        assert len(_classes(root, "pt")) == 10

    def test_census_dot_count(self):
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
        root = ET.fromstring(tm.plot_shapes(list(zip(a.tolist(), b.tolist()))))
        assert len(_classes(root, "pt")) == 6 * scalene + 3 * iso == len(a)

    def test_reference_furniture_present(self):
        root = ET.fromstring(tm.plot_shapes([(0.7, 0.7)]))
        assert len(_classes(root, "equilateral")) == 1
        assert len(_classes(root, "iso")) == 3
        assert len(_classes(root, "region")) == 1

    def test_deterministic_bytes(self):
        pts = [(0.7, 0.7), (0.55, 0.85)]
        assert tm.plot_shapes(pts) == tm.plot_shapes(pts)

    def test_guards(self):
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([])
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([(5.0, 0.5)])
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([(float("nan"), 0.5)])

    @pytest.mark.parametrize("point", [("0.7", "0.7"), (True, True)], ids=["str", "bool"])
    def test_rejects_points_that_are_not_real(self, point):
        with pytest.raises(tm.GuardError):
            tm.plot_shapes([point])

    def test_point_cap_checked_before_any_point_is_read(self):
        class Oversized:
            def __len__(self):
                return tm.MAX_PLOT_POINTS + 1

            def __iter__(self):
                raise AssertionError("points read before the cap was checked")

        with pytest.raises(tm.GuardError):
            tm.plot_shapes(Oversized())

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
    def test_single_point_structure(self):
        root = ET.fromstring(tm.plot_curve([tm.obtuse_point(2)]))
        assert len(_classes(root, "wpt")) == 1
        assert len(_classes(root, "dpt")) == 1
        assert len(_classes(root, "ref")) == 2

    def test_tick_per_grid_size(self):
        root = ET.fromstring(tm.plot_curve(tm.obtuse_curve(5)))
        ticks = [el.text for el in _classes(root, "xtick")]
        assert ticks == ["2", "3", "4", "5"]
        assert len(_classes(root, "wpt")) == 4
        assert len(_classes(root, "dpt")) == 4

    def test_parses_as_svg(self):
        root = ET.fromstring(tm.plot_curve(tm.obtuse_curve(3)))
        assert root.tag == f"{SVG}svg"

    def test_deterministic_bytes(self):
        pts = tm.obtuse_curve(3)
        assert tm.plot_curve(pts) == tm.plot_curve(pts)

    def test_empty_guard(self):
        with pytest.raises(tm.GuardError):
            tm.plot_curve([])
