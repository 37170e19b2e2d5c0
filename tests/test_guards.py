"""The one guard for real arguments, through every entry point that takes one."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import trimoduli as tm
from trimoduli.cli import main
from trimoduli.diophantine import PlaneVertex
from trimoduli.errors import check_real

_TARGET = tm.ShapeTriple(0.5, 0.7, 0.8)

# entry point -> (call with one real argument replaced, a value it accepts)
REAL_ENTRY_POINTS = {
    "ShapeTriple": (lambda v: tm.ShapeTriple(0.5, 0.7, v), 0.8),
    "PlaneVertex": (lambda v: PlaneVertex(0.5, v), 0.5),
    "right_locus": (tm.right_locus, 0.5),
    "dirichlet_1d": (lambda v: tm.dirichlet_1d(v, 1e-3), 0.5),
    "dirichlet_2d": (lambda v: tm.dirichlet_2d(math.sqrt(2.0), v, 1e-2), 0.5),
    "approximate_shape": (lambda v: tm.approximate_shape(_TARGET, v), 0.5),
    "weyl_sequence": (lambda v: tm.weyl_sequence(v, 10), 0.5),
}

NOT_FINITE_REALS = ["0.5", True, 1 + 0j, None, math.nan, math.inf]


@pytest.mark.parametrize(
    "bad", NOT_FINITE_REALS, ids=["str", "bool", "complex", "None", "nan", "inf"]
)
@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_entry_point_rejects_what_is_not_a_finite_real(entry, bad):
    call, _ = REAL_ENTRY_POINTS[entry]
    with pytest.raises(tm.GuardError):
        call(bad)


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_entry_point_accepts_a_finite_real(entry):
    call, good = REAL_ENTRY_POINTS[entry]
    call(good)
    call(np.float64(good))


@pytest.mark.parametrize(
    "value",
    [2, 0.5, np.float32(0.5), np.int64(2), np.uint8(2), Fraction(1, 2)],
    ids=["int", "float", "float32", "int64", "uint8", "Fraction"],
)
def test_check_real_accepts_finite_reals(value):
    v = check_real(value, "x")
    assert type(v) is float and v == float(value)


@pytest.mark.parametrize(
    "value",
    [Decimal("0.5"), np.bool_(True), 10**400, -1.0],
    ids=["Decimal", "numpy-bool", "int-beyond-float", "below-lo"],
)
def test_check_real_rejects_other_values_and_values_below_lo(value):
    with pytest.raises(tm.GuardError):
        check_real(value, "x", lo=0.0)


def test_approx_eps_inf_exits_3(capsys):
    assert main(["approx", "--a", "3", "--b", "4", "--c", "5", "--eps", "inf"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [["csv"], {"csv": "csv"}, {"csv"}], ids=["list", "dict", "set"])
@pytest.mark.parametrize("entry", ["export", "read"])
def test_unhashable_weighted_set_format_is_a_guard_error(entry, fmt):
    s = tm.enumerate_naive((0, 1, 0, 1))
    call = {
        "export": lambda: tm.export_weighted_set(s, fmt),
        "read": lambda: tm.read_weighted_set(tm.export_weighted_set(s, "csv"), fmt),
    }[entry]
    with pytest.raises(tm.GuardError, match="^unsupported weighted-set format"):
        call()
