"""Exact integer and rational arithmetic with explicit rounding control.

Everything in this package is built on three exact representations:

* ``int`` -- Python's native unbounded integer,
* ``fractions.Fraction`` -- normalized exact rationals,
* ``ScaledValue`` -- a decimal fixed-point value (mantissa, scale) that
  carries a guaranteed error bound, counted exactly in units in the last
  place, used where full rational arithmetic would blow up denominators.

No floating point is used anywhere; every rounding is an explicit integer
operation.  The two rounding modes are the floor function and
round-half-up, defined as floor(x + 1/2) so that ties always round up.
RoundingMode is the one place a mode becomes arithmetic: mode.div(n, d)
rounds one quotient, and mode.sum_div(n, ds) sums the rounded quotients of n
over a stream of divisors in one C-level map pass.  Under half-up that pass is
(2n + d) // (2d) over two ranges when ds is a range, else Hermite's identity.
mode.level(n, v) inverts div: the largest d whose rounded quotient is at least v.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, rshift
from typing import Iterable


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class RoundingUndecidableError(DomainError):
    """A tracked error bound straddles a rounding boundary.

    Raised by ScaledValue.round_checked when the interval
    [value - error_bound, value + error_bound] does not round to a single
    integer.  The caller should retry with more fractional digits.
    """


def floor_div(n: int, d: int) -> int:
    """Greatest integer q with q*d <= n, for d > 0 (true floor division)."""
    if d <= 0:
        raise DomainError(f"floor_div requires a positive divisor, got {d}")
    return n // d


def nearest_div(n: int, d: int) -> int:
    """floor(n/d + 1/2) for d > 0, computed exactly as (2n + d) // (2d).

    Ties round up (toward +infinity), never to even.
    """
    if d <= 0:
        raise DomainError(f"nearest_div requires a positive divisor, got {d}")
    return (2 * n + d) // (2 * d)


def iroot(x: int, p: int, r: int = 0) -> int:
    """The s with s**p <= x < (s + 1)**p, for x >= 0, by Newton's step from r, any integer at
    least s (else 2**ceil(bits / p)): from above, each step stays at or above s (AM-GM) and
    falls until it is s."""
    if x < 2:
        return x
    r = r or 1 << -(-x.bit_length() // p)
    while (s := ((p - 1) * r + x // r ** (p - 1)) // p) < r:
        r = s
    return r


def _floor_sum(n: int, ds: Iterable[int]) -> int:
    return sum(map(floordiv, repeat(n), ds))


def _nearest_sum(n: int, ds: Iterable[int]) -> int:
    if isinstance(ds, range):  # (2n + d) // (2d) over two progressions: one map layer
        return sum(map(floordiv, range(2 * n + ds.start, 2 * n + ds.stop, ds.step),
                       range(2 * ds.start, 2 * ds.stop, 2 * ds.step)))
    # Hermite: floor(x + 1/2) = floor(2x) - floor(x) = (floor(2x) + 1) >> 1
    return sum(map(rshift, map(add, map(floordiv, repeat(2 * n), ds), repeat(1)), repeat(1)))


class RoundingMode(enum.Enum):
    """A rounding rule: mode.div(n, d) is n/d rounded to an integer under it, for d > 0,
    mode.sum_div(n, ds) is the sum of mode.div(n, d) over the positive divisors ds, and
    mode.level(n, v), for v >= 1, is the largest d with mode.div(n, d) >= v."""

    FLOOR = "floor"
    NEAREST_HALF_UP = "nearest"

    def __init__(self, value: str) -> None:
        # the only place a mode is turned into a division, a bulk sum of them, or their inverse
        floor = value == "floor"
        self.div = floor_div if floor else nearest_div
        self.sum_div = _floor_sum if floor else _nearest_sum
        # floor: n // d >= v iff d <= n // v; half-up: (2n + d) // (2d) >= v iff d (2v - 1) <= 2n
        self.level = floordiv if floor else lambda n, v: 2 * n // (2 * v - 1)


def ratio_round(r: Fraction, mode: RoundingMode) -> int:
    """Round an exact rational to an integer under the given mode."""
    return mode.div(r.numerator, r.denominator)


def round_enclosure(m: int, e: int | Fraction, unit: int, mode: RoundingMode) -> int | None:
    """mode.div(x, unit) if it is the same for every x in [m - e, m + e], else None."""
    if e.denominator != 1:  # e = p/q: the enclosure's ends are (m*q ∓ p) / (unit*q)
        m, e, unit = m * e.denominator, e.numerator, unit * e.denominator
    rounded = mode.div(m - e, unit)
    return rounded if not e or mode.div(m + e, unit) == rounded else None


# Digits per int<->str conversion: 640 is the smallest limit sys.set_int_max_str_digits
# accepts, so chunks this long convert under any setting without touching it.
_CHUNK = 640
_CHUNK_BOUND = 10**_CHUNK


def digits_to_int(digits: str) -> int:
    """int(digits) for a string of ASCII decimal digits of any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    low = len(digits) // 2
    return digits_to_int(digits[:-low]) * 10**low + digits_to_int(digits[-low:])


def int_to_digits(n: int) -> str:
    """str(n) for an integer n >= 0 of any size."""
    if n < _CHUNK_BOUND:
        return str(n)
    low = (n.bit_length() * 1233 >> 12) // 2  # half of a lower bound on the digit count
    high, rest = divmod(n, 10**low)
    return int_to_digits(high) + int_to_digits(rest).zfill(low)


def decimal_string(r: Fraction, places: int) -> str:
    """Exact decimal expansion of r truncated (not rounded) to `places` digits.

    Truncation is toward zero; the sign is rendered as a leading '-'.
    """
    return _truncated(r.numerator, r.denominator, places)


def _truncated(numer: int, denom: int, places: int) -> str:
    """decimal_string(Fraction(numer, denom), places) for denom > 0, in integers alone."""
    if places < 0:
        raise DomainError("places must be non-negative")
    sign = "-" if numer < 0 else ""
    int_part, frac_part = divmod(abs(numer) * 10**places // denom, 10**places)
    return f"{sign}{int_part}.{frac_part:0{places}d}" if places else f"{sign}{int_part}"


@dataclass(frozen=True, slots=True)
class ScaledValue:
    """A decimal fixed-point number with a tracked worst-case error bound.

    The represented value is mantissa / 10**scale, and the true quantity it
    stands for is guaranteed to satisfy

        |true - mantissa / 10**scale| <= error_ulps / 10**scale,

    an exact count of units in the last place (ulps): an int, or a Fraction
    once div_int leaves part of an ulp.  Combining operations propagate (and
    never shrink) the bound, so a chain of ScaledValue computations is a
    rigorous enclosure of the exact result.
    """

    mantissa: int
    scale: int
    error_ulps: int | Fraction = 0

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise DomainError("scale must be non-negative")
        if self.error_ulps < 0:
            raise DomainError("error bound must be non-negative")

    @classmethod
    def from_ratio(cls, numer: int, denom: int, scale: int) -> "ScaledValue":
        """Truncate numer/denom to `scale` fractional digits.

        Exact divisions carry no error; inexact ones at most one ulp.
        """
        if denom <= 0:
            raise DomainError("denominator must be positive")
        mantissa, rem = divmod(numer * 10**scale, denom)
        return cls(mantissa, scale, 1 if rem else 0)

    @property
    def error_bound(self) -> Fraction:
        return Fraction(self.error_ulps, 10**self.scale)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.scale)

    def _aligned(self, other: "ScaledValue") -> tuple[int, int, int | Fraction, int]:
        """Both mantissas and the summed error, in ulps of the larger scale."""
        if self.scale == other.scale:
            return self.mantissa, other.mantissa, self.error_ulps + other.error_ulps, self.scale
        # Rescaling upward is exact, so alignment never adds error.
        scale = max(self.scale, other.scale)
        up_self, up_other = 10 ** (scale - self.scale), 10 ** (scale - other.scale)
        err = self.error_ulps * up_self + other.error_ulps * up_other
        return self.mantissa * up_self, other.mantissa * up_other, err, scale

    def __add__(self, other: "ScaledValue") -> "ScaledValue":
        a, b, err, scale = self._aligned(other)
        return ScaledValue(a + b, scale, err)

    def __sub__(self, other: "ScaledValue") -> "ScaledValue":
        a, b, err, scale = self._aligned(other)
        return ScaledValue(a - b, scale, err)

    def div_int(self, d: int) -> "ScaledValue":
        """Divide by a positive integer, truncating the mantissa.

        The inherited error shrinks by d; an inexact truncation adds at
        most one unit in the last place.
        """
        if d <= 0:
            raise DomainError("divisor must be positive")
        mantissa, rem = divmod(self.mantissa, d)
        err = Fraction(self.error_ulps, d) + (1 if rem else 0)
        return ScaledValue(mantissa, self.scale, err.numerator if err.denominator == 1 else err)

    def round_checked(self, mode: RoundingMode) -> int:
        """Round to an integer, verifying the error bound cannot change it."""
        rounded = round_enclosure(self.mantissa, self.error_ulps, 10**self.scale, mode)
        if rounded is None:
            near = self.decimal(min(self.scale, 6))
            raise RoundingUndecidableError(
                f"error bound ≤ {math.ceil(self.error_ulps)} ulp at {self.scale} fractional "
                f"digits straddles a rounding boundary near {near}; increase the number of "
                "fractional digits"
            )
        return rounded

    def decimal(self, places: int | None = None) -> str:
        return _truncated(self.mantissa, 10**self.scale, self.scale if places is None else places)
