"""Deterministic text formats and their round trips."""

import hashlib
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trimoduli as tm
from trimoduli import serialize
from trimoduli.moduli import normalized_sides

UNIT_SQUARE_CSV = (
    "# schema: trimoduli.weighted-set.v1\n"
    "p,q,r,weight,angle_class,a,b,c\n"
    "1,1,2,4,right,0.585786437626905,0.585786437626905,0.8284271247461902\n"
)
UNIT_SQUARE_JSON = (
    '{"distinct_count": 1, "entries": [{"a": 0.585786437626905, "angle_class": "right", '
    '"b": 0.585786437626905, "c": 0.8284271247461902, "p": 1, "q": 1, "r": 2, "weight": 4}], '
    '"schema": "trimoduli.weighted-set.v1", "total_weight": 4}\n'
)
EMPTY_JSON = (
    '{"distinct_count": 0, "entries": [], "schema": "trimoduli.weighted-set.v1", '
    '"total_weight": 0}\n'
)


class TestWeightedSetCsv:
    def test_unit_square_golden_bytes(self):
        s = tm.enumerate_naive((0, 1, 0, 1))
        assert tm.export_weighted_set(s, "csv") == UNIT_SQUARE_CSV

    def test_round_trip(self, s2):
        text = tm.export_weighted_set(s2, "csv")
        assert tm.read_weighted_set(text, "csv") == s2

    def test_deterministic(self, s2):
        assert tm.export_weighted_set(s2, "csv") == tm.export_weighted_set(s2, "csv")

    def test_floats_survive_round_trip_exactly(self):
        # shortest-repr floats must parse back to the identical doubles
        s = tm.enumerate_naive((-1, 1, -1, 1))
        text = tm.export_weighted_set(s, "csv")
        for row in text.splitlines()[2:]:
            a = float(row.split(",")[5])
            assert repr(a) == row.split(",")[5]

    def test_rejects_missing_schema(self):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set("p,q,r\n1,1,2\n", "csv")

    def test_rejects_wrong_header(self):
        bad = UNIT_SQUARE_CSV.replace("angle_class", "angle")
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(bad, "csv")

    def test_rejects_short_row(self):
        bad = UNIT_SQUARE_CSV + "1,2,5\n"
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(bad, "csv")

    @pytest.mark.parametrize(
        "row",
        [
            "1,1,+2, 1_0,x,y,z,w",  # int() reads key (1, 1, 2) with weight 10
            "1,1,1,3,obtuse,0.1,0.2,0.3",  # the equilateral class is acute, a = b = c = 2/3
        ],
        ids=["sign-space-underscore", "wrong-derived-columns"],
    )
    def test_rejects_row_the_export_never_writes(self, row):
        header = "".join(UNIT_SQUARE_CSV.splitlines(keepends=True)[:2])
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(header + row + "\n", "csv")


class TestWeightedSetJson:
    def test_round_trip(self, s2):
        text = tm.export_weighted_set(s2, "json")
        assert tm.read_weighted_set(text, "json") == s2

    def test_doc_shape(self):
        s = tm.enumerate_naive((0, 1, 0, 1))
        doc = json.loads(tm.export_weighted_set(s, "json"))
        assert doc["schema"] == "trimoduli.weighted-set.v1"
        assert doc["total_weight"] == 4
        assert doc["distinct_count"] == 1
        assert doc["entries"][0]["angle_class"] == "right"

    def test_rejects_wrong_schema(self):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set('{"schema": "something.else", "entries": []}', "json")

    def test_rejects_document_that_is_not_an_object(self):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set("[]", "json")

    def test_rejects_document_without_entries(self):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set('{"schema": "trimoduli.weighted-set.v1"}', "json")

    @pytest.mark.parametrize(
        "entry",
        [
            {"p": 1, "q": 1, "r": 2, "weight": 2.5},  # used to be read as weight 2
            {"p": 1, "q": 1, "r": 2.9, "weight": 4},  # used to be read as key (1, 1, 2)
        ],
        ids=["float-weight", "float-r"],
    )
    def test_rejects_non_integer_fields(self, entry):
        doc = json.dumps({"schema": "trimoduli.weighted-set.v1", "entries": [entry]})
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(doc, "json")

    def test_rejects_totals_that_do_not_match_the_entries(self, s2):
        doc = json.loads(tm.export_weighted_set(s2, "json"))
        assert json.dumps(doc, sort_keys=True) + "\n" == tm.export_weighted_set(s2, "json")
        doc["total_weight"], doc["distinct_count"] = 5, 999  # n = 2 has 2148 and 55
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(json.dumps(doc, sort_keys=True) + "\n", "json")

    def test_rejects_unknown_format(self, s2):
        with pytest.raises(tm.GuardError):
            tm.export_weighted_set(s2, "yaml")


def _json_by_dicts(s):
    """The JSON export built the slow way: one dict per entry, printed by
    json.dumps with sorted keys.  The oracle of the row template."""
    p, q, r, w = s.columns()
    angle = np.where(r > p + q, "obtuse", np.where(r == p + q, "right", "acute"))
    cols = [col.tolist() for col in (p, q, r, w, angle, *normalized_sides(p, q, r))]
    names = ("p", "q", "r", "weight", "angle_class", "a", "b", "c")
    doc = {
        "schema": "trimoduli.weighted-set.v1",
        "total_weight": s.total_weight,
        "distinct_count": len(s),
        "entries": [dict(zip(names, row)) for row in zip(*cols)],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


class TestWeightedSetRowTemplate:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5], ids=lambda n: f"n{n}" if n else "empty")
    def test_json_equals_json_dumps_of_one_dict_per_entry(self, n):
        s = tm.enumerate_weighted(n) if n else tm.WeightedShapeSet({})
        assert tm.export_weighted_set(s, "json") == _json_by_dicts(s)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunk_size_does_not_change_bytes(self, fmt, monkeypatch):
        s = tm.enumerate_weighted(4)
        assert len(s) == 667  # 95 chunks of 7 rows and one of 2
        text = tm.export_weighted_set(s, fmt)
        monkeypatch.setattr("trimoduli.serialize.CHECK_ROWS", 7)
        assert tm.export_weighted_set(s, fmt) == text
        assert tm.read_weighted_set(text, fmt) == s

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_formatting_stays_chunked(self, fmt, monkeypatch):
        # rows formatted a chunk at a time and joined once hold about the
        # text twice at the peak: the chunks and the joined text.  Up to
        # 2 * threads + 1 chunks are alive at once, so the thread count is
        # pinned: at 16 threads the peak reads 2.77 times the text
        monkeypatch.setenv(tm.ENV_THREADS, "2")
        s = tm.enumerate_weighted(12)
        monkeypatch.setattr("trimoduli.serialize.CHECK_ROWS", 4096)
        tracemalloc.start()
        try:
            text = tm.export_weighted_set(s, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    @pytest.mark.parametrize("error", [tm.PrecisionError, tm.GuardError])
    def test_chunk_error_reaches_the_caller_with_its_type(self, monkeypatch, error):
        s = tm.enumerate_weighted(4)
        float_bytes = serialize._float_bytes
        # the a column of rows 7 .. 13, the second chunk of 7 rows
        second = normalized_sides(*(col[7:14] for col in s.columns()[:3]))[0]

        def fail_in_second_chunk(x):
            if np.array_equal(x, second):
                raise error("chunk failed")
            return float_bytes(x)

        monkeypatch.setenv(tm.ENV_THREADS, "2")
        monkeypatch.setattr("trimoduli.serialize.CHECK_ROWS", 7)
        monkeypatch.setattr("trimoduli.serialize._float_bytes", fail_in_second_chunk)
        with pytest.raises(error, match="chunk failed"):
            tm.export_weighted_set(s, "csv")

    @pytest.mark.parametrize(
        "census, fmt, text",
        [
            ("empty", "csv", UNIT_SQUARE_CSV[: UNIT_SQUARE_CSV.index("1,")]),
            ("empty", "json", EMPTY_JSON),
            ("one-row", "csv", UNIT_SQUARE_CSV),
            ("one-row", "json", UNIT_SQUARE_JSON),
        ],
    )
    def test_empty_and_one_row_exports(self, census, fmt, text):
        # the first chunk's row separator is sliced off its text; with no
        # rows there is no chunk, and head and tail meet
        if census == "empty":
            s = tm.WeightedShapeSet({})
        else:
            s = tm.enumerate_naive((0, 1, 0, 1))
        assert tm.export_weighted_set(s, fmt) == text
        assert tm.read_weighted_set(text, fmt) == s

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reader_rejects_a_field_above_int64(self, fmt):
        text = tm.export_weighted_set(tm.enumerate_naive((0, 1, 0, 1)), fmt)
        big = str(1 << 63)
        bad = text.replace("1,1,2,4,", f"1,1,2,{big},").replace('"weight": 4', f'"weight": {big}')
        assert bad != text
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(bad, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reader_rejects_one_float_digit_changed(self, fmt, s2):
        text = tm.export_weighted_set(s2, fmt)
        end = re.search(r"\d\.\d+", text).end()  # the first float's last digit
        bad = text[: end - 1] + str((int(text[end - 1]) + 1) % 10) + text[end:]
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(bad, fmt)


class TestIntegerDigits:
    """Integers are printed in 9-digit uint32 limbs, split off by uint64
    division."""

    @pytest.mark.parametrize(
        "values",
        [
            [0, 9, 10, 10**9 - 1, 10**9, 10**9 + 1, 10**18 - 1, 10**18, 2**63 - 1, 2**64 - 1],
            [0, 7, 10, 99, 12345678, 10**9 - 1],
            [10**9 - 1, 3],
            [0],
        ],
        ids=["limb-edges", "nine-digits", "nine-digits-first", "zero"],
    )
    def test_each_column_prints_as_str(self, values):
        field = serialize._int_bytes(np.array(values, dtype=np.uint64))
        assert len(field) == len(str(max(values)))
        assert [bytes(col).replace(b"\0", b"").decode() for col in field.T] == list(
            map(str, values)
        )


def _float_texts(values):
    """The float field text of each value, as the row writer prints it."""
    field = serialize._float_bytes(np.array(values, dtype=np.float64))
    return [bytes(col).replace(b"\0", b"").decode() for col in field.T]


def _float_neighbours(x, below, above):
    """The floats from `below` steps under x to `above` steps over it."""
    bits = np.float64(x).view(np.int64) + np.arange(-below, above + 1)
    return bits.view(np.float64).tolist()


def _kernel_edge_cases():
    dyadic = [k / 2**e for e in range(1, 31) for k in range(1, 2**e, max(1, 2**e // 600)) if k % 2]
    uniform = np.random.default_rng(7).uniform(1e-4, 1.0, 2000).tolist()
    return {
        "powers-of-two": [2.0**-e for e in range(1, 14)],
        "powers-of-ten": sum((_float_neighbours(x, 40, 40) for x in (1e-4, 1e-3, 1e-2, 1e-1)), []),
        "below-one": _float_neighbours(np.nextafter(1.0, 0.0), 1000, 0),
        "dyadic": [x for x in dyadic if x >= 1e-4],
        "decimals": [round(x, d) for d in range(1, 8) for x in uniform],
    }


class TestShortestFloatKernel:
    """The row writer prints floats as repr does: by an exact uint64 kernel
    in [1e-4, 1), by repr itself elsewhere."""

    @given(st.lists(st.floats(min_value=1e-4, max_value=1.0, exclude_max=True), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_equals_repr_in_the_kernel_domain(self, values):
        assert _float_texts(values) == [repr(x) for x in values]

    @pytest.mark.parametrize("name", sorted(_kernel_edge_cases()))
    def test_equals_repr_on_edge_cases(self, name):
        values = [x for x in _kernel_edge_cases()[name] if x < 1.0]
        assert len(values) > 10 or name == "powers-of-two"
        assert _float_texts(values) == [repr(x) for x in values]

    def test_values_outside_the_domain_are_printed_by_repr(self):
        values = [1e-4, 9.999999999999999e-05, 3.0517578125e-05, 1.0, 5e-324, 0.5]
        assert _float_texts(values) == [repr(x) for x in values]

    @pytest.mark.parametrize(
        "rows",
        [
            [((1, (1 << 30) - 1, (1 << 30) - 1), (1 << 63) - 1)],
            [((1, 1, 2), 1), ((1, (1 << 30) - 1, (1 << 30) - 1), (1 << 63) - 2)],
        ],
        ids=["alone", "beside-a-census-row"],
    )
    def test_rows_outside_the_domain_match_the_row_formula(self, rows):
        # the side a = 2 / (1 + 2 sqrt(2^30 - 1)) ~ 3.05e-5 prints in exponent form
        keys, weights = zip(*rows)
        s = tm.WeightedShapeSet.from_columns(*np.array(keys).T, np.array(weights))
        assert s.total_weight == (1 << 63) - 1
        csv_rows, json_rows = [], []
        for (p, q, r), w in rows:
            a, b, c = (float(x) for x in normalized_sides(p, q, r))
            ang = "obtuse" if r > p + q else "right" if r == p + q else "acute"
            csv_rows.append(f"{p},{q},{r},{w},{ang},{a!r},{b!r},{c!r}")
            json_rows.append(
                f'{{"a": {a!r}, "angle_class": "{ang}", "b": {b!r}, '
                f'"c": {c!r}, "p": {p}, "q": {q}, "r": {r}, "weight": {w}}}'
            )
        assert "e-05" in csv_rows[-1]
        assert tm.export_weighted_set(s, "csv").splitlines()[2:] == csv_rows
        assert f'"entries": [{", ".join(json_rows)}]' in tm.export_weighted_set(s, "json")
        assert tm.export_weighted_set(s, "json") == _json_by_dicts(s)


# the float kernel before it took one binary exponent at a time: per-row
# constants and the exact product in 32-bit limbs.  The reference the
# scalar kernel is checked against, bit for bit
_LIMB_K = np.array([len(str(1 << (63 - e))) - 1 for e in range(-13, 1)], dtype=np.uint64)
_LIMB_T = np.arange(68, 54, -1, dtype=np.uint64) - _LIMB_K
_LOW32 = np.uint64(0xFFFFFFFF)


def _mul_shift(v, f, t):
    """floor(v f / 2^t) and v f mod 2^t of uint64 columns, for v < 2^56,
    f < 2^52, t < 64 and a quotient below 2^64: the product in 32-bit limbs."""
    vh, vl, fh, fl = v >> 32, v & _LOW32, f >> 32, f & _LOW32
    mid = vh * fl + vl * fh
    lo = vl * fl
    low = lo + (mid << 32)
    high = vh * fh + (mid >> 32) + (low < lo)
    return (high << (64 - t)) | (low >> t), low & ((1 << t) - 1)


def shortest_digits_limbs(x):
    """(q, zeros) of float64 x in [1e-4, 1) by per-row tables and limbs."""
    mant, exp = np.frexp(x)
    m = (mant * 2.0**53).astype(np.uint64)
    i = (exp + 13).astype(np.intp)
    k, t = _LIMB_K[i], _LIMB_T[i]
    f = np.uint64(5) ** k
    xk, r = _mul_shift(4 * m, f, t)
    low = (1 << t) - 1
    g, g_r = (2 * f) >> t, (2 * f) & low
    lo = xk - g - (r < g_r) + 1
    hi = xk + g + ((r + g_r) >> t)
    j = np.zeros(len(m), np.uint64)
    up, down = lo, hi
    rows = np.arange(len(m))
    while rows.size:
        up, down = (up + 9) // 10, down // 10
        keep = up <= down
        rows, up, down = rows[keep], up[keep], down[keep]
        j[rows] += 1
    d = np.uint64(10) ** j
    q = xk // d
    rem, half = xk - q * d, d // 2
    q += (rem > half) | ((rem == half) & ((r > 0) | ((q & 1) == 1)))
    return q, k.astype(np.int64) - 18 - (q * d >= 10**18)


class TestScalarFloatKernel:
    """_shortest_digits takes one binary exponent at a time with scalar
    constants; it gives the (q, zeros) of the per-row limb kernel."""

    def test_every_census_column_at_n31(self, s31):
        for x in normalized_sides(*s31.columns()[:3]):
            q, zeros = serialize._shortest_digits(x)
            ref_q, ref_zeros = shortest_digits_limbs(x)
            np.testing.assert_array_equal(q, ref_q)
            np.testing.assert_array_equal(zeros, ref_zeros)

    def test_around_powers_of_two_and_the_lower_end(self):
        near = [_float_neighbours(2.0**-k, 40, 40) for k in range(14)] + [
            _float_neighbours(1e-4, 40, 40)
        ]
        x = np.array([v for v in sum(near, []) if 1e-4 <= v < 1.0])
        assert len(x) == 15 * 81 - 41 - 40  # 1.0 and above, and below 1e-4, left out
        q, zeros = serialize._shortest_digits(x)
        ref_q, ref_zeros = shortest_digits_limbs(x)
        np.testing.assert_array_equal(q, ref_q)
        np.testing.assert_array_equal(zeros, ref_zeros)

    def test_table_facts_the_kernel_relies_on(self):
        exponents = serialize._FLOAT_EXPONENTS
        assert sorted(exponents) == [1022 + e for e in range(-13, 1)]
        for field, c in exponents.items():
            e = field - 1022
            # [lo, hi] holds a multiple of 100, so every row has j >= 2
            assert 2 * c.g >= 100
            # low >> t keeps enough bits of xk to correct the float estimate
            assert 64 - c.t >= 12
            # x 10^K < 2^e 10^K stays below 2^63 after rounding to float64,
            # so the estimate fits int64, and 10^K is exact
            assert Fraction(2) ** e * 10**c.k < 2**63 - 2**10
            assert c.k <= 22 and float(10**c.k) == 10**c.k == c.scale
            assert c.t == 55 - e - c.k and 2 * 5**c.k == c.g * 2**c.t + c.g_r


class TestFloatZeroRows:
    """The float field has as many zero rows as its column's largest count
    of zeros after the point."""

    @pytest.mark.parametrize(
        "values, zero_rows",
        [
            ([0.5, 0.25, 0.8284271247461902, 0.125], 0),
            ([1.0, 2.5, 5e-324], 0),
            ([0.5, 0.0123, 0.00042, 0.9, 1e-4, 0.031], 3),
        ],
        ids=["no-leading-zeros", "outside-the-kernel", "mixed-exponents"],
    )
    def test_zero_rows_follow_the_column(self, values, zero_rows):
        x = np.array(values)
        inside = [v for v in values if 1e-4 <= v < 1.0] or [0.5]
        digits = max(len(repr(v).lstrip("0.")) for v in inside)
        kernel_rows = len("0.") + zero_rows + digits
        field = serialize._float_bytes(x)
        assert len(field) == max(kernel_rows, *map(len, map(repr, values)))
        assert _float_texts(values) == [repr(v) for v in values]


def _listing(rows, fmt):
    """Text in the weighted-set layout listing rows of (p, q, r, weight);
    the derived columns are placeholders."""
    if fmt == "csv":
        header = "".join(UNIT_SQUARE_CSV.splitlines(keepends=True)[:2])
        return header + "".join(f"{p},{q},{r},{w},acute,0.5,0.5,0.5\n" for p, q, r, w in rows)
    entries = [dict(zip(("p", "q", "r", "weight"), row)) for row in rows]
    return json.dumps({"schema": "trimoduli.weighted-set.v1", "entries": entries}) + "\n"


class TestWeightedSetReaderErrors:
    """Every rejection is a GuardError, not the parser's or numpy's error."""

    @pytest.mark.parametrize("text", ["not json", "[" * 100_000], ids=["not-json", "deeply-nested"])
    def test_text_that_is_not_a_json_object(self, text):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(text, "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 2, 5, 1), (1, 1, 2, 1)],
            [(1, 1, 2, 1), (1, 1, 2, 1)],
            [(2, 2, 2, 1)],
        ],
        ids=["swapped", "duplicated", "not-reduced"],
    )
    def test_rows_no_census_has(self, rows, fmt):
        with pytest.raises(tm.GuardError):
            tm.read_weighted_set(_listing(rows, fmt), fmt)

    def test_unknown_format_is_named_before_parsing(self):
        with pytest.raises(tm.GuardError, match="^unsupported weighted-set format 'xml'$"):
            tm.read_weighted_set(UNIT_SQUARE_CSV, "xml")


class TestCurveExport:
    def test_csv_structure(self):
        pt = tm.obtuse_point(2)
        text = tm.export_curve([pt])
        lines = text.splitlines()
        assert lines[0] == "# schema: trimoduli.obtuse-curve.v1"
        assert lines[1].startswith("n,weighted_fraction,distinct_fraction")
        assert lines[2] == (
            "2,0.5344506517690876,0.5636363636363636,2148,55,1148,31"
        )

    def test_json_round_trip_values(self):
        pts = tm.obtuse_curve(3)
        doc = json.loads(tm.export_curve(pts, "json"))
        assert doc["schema"] == "trimoduli.obtuse-curve.v1"
        assert [p["n"] for p in doc["points"]] == [2, 3]
        assert doc["points"][0]["weighted_fraction"] == pts[0].weighted_fraction


class TestReportAndEstimate:
    def test_report_doc(self):
        text = tm.export_report(tm.equidist_report(2))
        doc = json.loads(text)
        assert doc["schema"] == "trimoduli.equidist-report.v1"
        assert doc["n"] == 2
        assert doc["gap_to_uniform"] == pytest.approx(0.147783, abs=1e-6)

    def test_estimate_doc(self):
        est = tm.obtuse_probability(1000, 7)
        doc = json.loads(tm.export_estimate(est, "obtuse"))
        assert doc["schema"] == "trimoduli.mc-estimate.v1"
        assert doc["kind"] == "obtuse"
        assert doc["mean"] == est.mean
        assert doc["samples"] == 1000 and doc["seed"] == 7


class TestHistogramExport:
    def test_meta_line_and_rows(self):
        h = tm.shape_histogram(1000, 4, 0)
        text = tm.export_histogram(h)
        lines = text.splitlines()
        assert lines[0] == "# schema: trimoduli.histogram.v1"
        assert lines[1] == (
            f"# bins=4 samples=1000 seed=0 mode=labeled total={h.total} "
            f"obtuse_count={h.obtuse_count}"
        )
        assert lines[2] == "ix,iy,count"
        total = sum(int(row.split(",")[2]) for row in lines[3:])
        assert total == h.total

    def test_only_nonzero_cells(self):
        h = tm.shape_histogram(1000, 4, 0, labeled=False)
        text = tm.export_histogram(h)
        for row in text.splitlines()[3:]:
            assert int(row.split(",")[2]) > 0


class TestWriteText:
    def test_writes_exact_bytes(self, tmp_path):
        target = tmp_path / "out.csv"
        tm.write_text(str(target), UNIT_SQUARE_CSV)
        assert target.read_bytes() == UNIT_SQUARE_CSV.encode("utf-8")

    def test_propagates_io_errors(self, tmp_path):
        with pytest.raises(OSError):
            tm.write_text(str(tmp_path / "missing" / "out.csv"), "x")

    def test_multibyte_characters_across_slice_boundaries(self, tmp_path):
        # the text is written in 1 MiB slices; each boundary falls between
        # a two-byte and a three-byte character
        mib = 1 << 20
        chars = ["a"] * (3 * mib + 5)
        for k in (1, 2, 3):
            chars[k * mib - 1], chars[k * mib] = "é", "∑"
        text = "".join(chars)
        target = tmp_path / "out.txt"
        tm.write_text(str(target), text)
        assert target.read_bytes() == text.encode("utf-8")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedExportDigests:
    """Export bytes are part of the contract: these digests hold for every
    refactor that leaves the exported results unchanged."""

    def test_census_n4_csv(self):
        text = tm.export_weighted_set(tm.enumerate_weighted(4))
        assert _sha256(text) == (
            "d636adb5033b6fa0598077945f48c97b67b0b3c1e09d8cd8720273992643fc4a"
        )

    def test_census_n31_csv(self, s31):
        assert _sha256(tm.export_weighted_set(s31)) == (
            "51ab0515cece5d425a40f42266a9cd0a3dd0d46981783dd56e0a6a49d148f78b"
        )

    def test_census_n31_json(self, s31):
        text = tm.export_weighted_set(s31, "json")
        assert len(text) == 284_405_915
        assert _sha256(text) == (
            "564212fc8b3926a75772bd981c5ff81f1459af0912ecac5ee5b069b443509af8"
        )

    def test_curve_n5_csv(self):
        assert _sha256(tm.export_curve(tm.obtuse_curve(5))) == (
            "3892f81b149e4f295b4f657f9ae681cc51e206717558533a21324d818e288fb3"
        )

    def test_curve_n31_csv(self, curve31):
        assert _sha256(tm.export_curve(curve31)) == (
            "cb3b0b10d2bef686bbe45d28b7d5d490f65ad6455ec3124ce702777a8d188d06"
        )

    def test_curve_n31_json(self, curve31):
        assert _sha256(tm.export_curve(curve31, "json")) == (
            "14b5f122e69826eb79ba70311533fe190ed67bd30f18579c4c518c9429c60dd1"
        )

    def test_histogram_csv(self):
        h = tm.shape_histogram(200000, 64, 0)
        assert _sha256(tm.export_histogram(h)) == (
            "af09281a3f36e79e9bf97b437feb7ce7ebfb561eb9a423e023701b44a15cc107"
        )

    def test_histogram_sorted_csv(self):
        h = tm.shape_histogram(200000, 64, 0, labeled=False)
        assert _sha256(tm.export_histogram(h)) == (
            "dae0890d861094625243ef47d197c0996721859c90e0c9f100d9f5b37a3edd76"
        )

    def test_histogram_json(self):
        h = tm.shape_histogram(200000, 64, 0)
        assert _sha256(tm.export_histogram(h, "json")) == (
            "55d47fe31db68bca3b94fb8f7c1394a2e9596a696a434296be604da1e8b55553"
        )

    @pytest.mark.parametrize(
        "labeled, digest",
        [
            (True, "022b8b12c3a8663d46f0f32a0f24c77e0eaee142aecab517f992b38f9ebfa724"),
            (False, "7871c657148cfaa59a482bc68566702a519a1347b33c352be5f2e034003760e6"),
        ],
        ids=["labeled", "sorted"],
    )
    def test_histogram_4096_bins_csv(self, labeled, digest):
        h = tm.shape_histogram(70000, 4096, 5, labeled=labeled)
        assert _sha256(tm.export_histogram(h)) == digest
