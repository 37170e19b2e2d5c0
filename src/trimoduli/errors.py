"""Error taxonomy shared across the package.

Two failure families matter at the boundaries:

* ``GuardError`` -- a runtime guard rejected the request (argument out of
  the supported range, malformed configuration).  Subclasses ``ValueError``
  so callers that only know stdlib semantics still catch it.
* ``PrecisionError`` -- a verified numeric post-condition failed.  These
  are raised after the fact: the algorithm produced a witness, the witness
  was re-checked, and the check did not hold.

``check_int_range`` is the one integer-range guard the entry points share,
and ``check_real`` the one guard for real arguments (targets, coordinates,
tolerances): a finite int, float, numpy numeric scalar or Fraction, never a
bool, str, complex, None or Decimal.
"""

import math
import numbers
import operator


class GuardError(ValueError):
    """A runtime guard rejected the arguments."""


def check_int_range(value, name: str, lo: int, hi: int) -> int:
    """value as an int when it is an integer (not a bool) in [lo, hi];
    GuardError otherwise."""
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool):
        raise GuardError(f"{name} must be an integer, got {value!r}")
    if not (lo <= v <= hi):
        raise GuardError(f"{name} must be in [{lo}, {hi}], got {v}")
    return v


def check_real(value, name: str, lo: float = -math.inf) -> float:
    """value as a float when it is a finite real number (not a bool) >= lo;
    GuardError otherwise."""
    # float first: the common case skips the slower numbers.Real check
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise GuardError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise GuardError(f"{name} must be finite, got {value!r}")
    if not v >= lo:
        raise GuardError(f"{name} must be >= {lo}, got {v}")
    return v


class PrecisionError(RuntimeError):
    """A verified numeric post-condition did not hold."""
