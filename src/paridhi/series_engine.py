"""The root-12 alternating series under three rounding policies.

The computation: X = sqrt(12 * diameter**2), x_k = X / 3^(k-1) and the
k-th term t_k = x_k / (2k - 1); odd- and even-position terms are summed
separately and the circumference is their difference, C = O - E.  One
loop, root12_terms, forms the terms; F1 in madhava_formulas sums them
through the formulas' reader, and build_ledger tabulates them for the
varman command.

Three policies control how the inexact square root and divisions are
handled:

* EachOp(mode)  -- every operation rounds under mode: FLOOR_EACH_OP keeps
                   the integer part, NEAREST_EACH_OP rounds half-up,
* ExactFinal    -- values stay exact until a single final rounding;
                   backed either by exact rationals (from the integer
                   floor root, first read at frac_digits = 40) or by
                   ScaledValue fixed point (root cut to frac_digits).

Each policy carries its arithmetic as policy.backend; an EachOp is its own.
root_units(radicand) is the root of 12D^2: (X, e, unit), X and its error
bound e in units of 1/unit.  Sums are read through unit (10**s on
ScaledBackend(s), else 1), split(n, d) -> (q, r), one quotient whose r is
nonzero only where a truncating division was inexact, and sum_ratios(n, ds)
-> (the sum of the q over ds in one bulk pass, how many were inexact; under
EachOp, mode.sum_div, one floordiv map for a range such as F2's divisors).
value(m, e) makes a sum in units the policy's value (an int, a Fraction, or
a ScaledValue within e ulps), and round rounds that value to an integer.
mode, the per-operation switch, is EachOp's RoundingMode, whose sums may be
counted by level, or None on the backends, whose sums need every remainder;
policy.round(value) is round_final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, repeat
from math import gcd
from typing import Iterable, Iterator, Union

from .aryabhata_sqrt import isqrt, sqrt_scaled
from .exact_arith import DomainError, RoundingMode, ScaledValue, ratio_round


@dataclass(frozen=True)
class EachOp:
    """Integer values; the root and every division are rounded under mode."""

    mode: RoundingMode
    round = staticmethod(int)
    unit = 1
    backend = property(lambda self: self)  # a per-operation policy is its own arithmetic

    def root_units(self, radicand: int) -> tuple[int, int, int]:
        # rem/(2 root + 1) rounds to the carry: under floor 0 (rem <= 2 root), half-up rem > root
        root, rem = isqrt(radicand)
        return root + self.mode.div(rem, 2 * root + 1), 0, 1

    def split(self, n: int, d: int) -> tuple[int, int]:
        return self.mode.div(n, d), 0

    def sum_ratios(self, n: int, ds: Iterable[int]) -> tuple[int, int]:
        return self.mode.sum_div(n, ds), 0

    @staticmethod
    def value(m: int, e: int = 0) -> int:
        return m

    def __str__(self) -> str:
        return self.mode.value


@dataclass(frozen=True)
class RationalBackend:
    """Exact fractions, from the integer floor root."""

    frac_digits = 40  # the digits a formula's sums are read at before the exact sum
    round = staticmethod(ratio_round)
    unit = 1
    mode = None

    @staticmethod
    def root_units(radicand: int) -> tuple[int, int, int]:
        return isqrt(radicand)[0], 0, 1

    @staticmethod
    def split(n: int, d: int) -> tuple[Fraction, int]:
        return Fraction(n, d), 0

    @staticmethod
    def sum_ratios(n: int, ds: Iterable[int]) -> tuple[Fraction, int]:
        """n * p/q, with p/q the sum of 1/d built by binary splitting (Haible & Papanikolaou)."""
        ds = tuple(ds)

        def split(lo: int, hi: int) -> tuple[int, int]:  # p/q over ds[lo:hi], q their lcm
            if hi - lo == 1:
                return 1, ds[lo]
            (p1, q1), (p2, q2) = split(lo, (lo + hi) // 2), split((lo + hi) // 2, hi)
            g = gcd(q1, q2)
            return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2

        p, q = split(0, len(ds)) if ds else (0, 1)
        return Fraction(n * p, q), 0

    @staticmethod
    def value(m: int | Fraction, e: int = 0) -> Fraction:
        return m if type(m) is Fraction else Fraction(m)  # Fraction(m) would copy m

    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class ScaledBackend:
    """ScaledValue fixed point, from the root truncated to frac_digits places."""

    frac_digits: int = 40

    def __post_init__(self) -> None:
        if self.frac_digits < 0:
            raise DomainError("frac_digits must be non-negative")

    def root_units(self, radicand: int) -> tuple[int, int, int]:
        root = sqrt_scaled(radicand, self.frac_digits)
        return root.mantissa, root.error_ulps, self.unit

    unit = property(lambda self: 10**self.frac_digits)
    split = staticmethod(divmod)
    mode = None

    @staticmethod
    def sum_ratios(n: int, ds: Iterable[int]) -> tuple[int, int]:
        """The truncated quotients' sum, and how many of the divisions were inexact."""
        mantissa = inexact = 0
        for q, r in map(divmod, repeat(n), ds):
            mantissa += q
            inexact += r != 0
        return mantissa, inexact

    def value(self, m: int, e: int | Fraction = 0) -> ScaledValue:
        return ScaledValue(m, self.frac_digits, e)

    @staticmethod
    def round(x: ScaledValue, mode: RoundingMode) -> int:
        # resolved per call, so a tracer that wraps ScaledValue.round_checked sees it
        return x.round_checked(mode)

    def __str__(self) -> str:
        return f"scaled({self.frac_digits})"


Backend = Union[RationalBackend, ScaledBackend]
Arithmetic = Union[EachOp, RationalBackend, ScaledBackend]


@dataclass(frozen=True)
class ExactFinal:
    final_mode: RoundingMode = RoundingMode.NEAREST_HALF_UP
    backend: Backend = field(default_factory=ScaledBackend)

    def round(self, value: TermValue) -> int:
        return self.backend.round(value, self.final_mode)

    def __str__(self) -> str:
        return f"final-{self.final_mode.value}"


Policy = Union[EachOp, ExactFinal]

FLOOR_EACH_OP = EachOp(RoundingMode.FLOOR)
NEAREST_EACH_OP = EachOp(RoundingMode.NEAREST_HALF_UP)

TermValue = Union[int, Fraction, ScaledValue]


@dataclass(frozen=True)
class LedgerRow:
    k: int
    x: TermValue
    sign: int  # +1 for odd k, -1 for even k
    t: TermValue


@dataclass(frozen=True)
class SeriesLedger:
    rows: tuple[LedgerRow, ...]
    odd_sum: TermValue
    even_sum: TermValue
    circumference: TermValue  # odd_sum - even_sum, exact under ExactFinal


Terms = Iterator[tuple[TermValue, TermValue, Union[int, Fraction]]]  # (x_k, t_k, c)


def root12_terms(top: tuple[int, int, int], a: Arithmetic) -> Terms:
    """Yield (x_k, t_k, c) for k = 1, 2, ...: x_k = a.split(X, 3^(k-1)) and
    t_k = a.split(X, 3^(k-1) (2k - 1)), X the root (X, e, unit) = top in units of 1/a.unit,
    and c bounds the error of t_1 - t_2 + ... ± t_k.  Nested roundings by odd divisors
    compose, so these are X divided by 3 and by 2k - 1 one rounding at a time.  Each term
    adds (r_k + e)/d_k to c, e the root's error.  From the first zero quotient with
    3^(k-1) > X on, each quotient is zero with the same r, and as each d_k is over 3 times
    the last, 3(r + e)/(2 d_k) bounds them all: that row's x_k may still be 1 under half-up,
    and every later x_k and t_k is 0."""
    root, error, unit = top
    x, e, split = root * a.unit // unit, error * a.unit // unit, a.split
    c, power = 0, 1
    for k in count(1):
        d = power * (2 * k - 1)
        t, r = split(x, d)
        tail = not t and power > x  # every later row is zeros with this row's c
        if r or e:  # nothing to add under the integer policies and rational
            c += Fraction(3 * (r + e), 2 * d) if tail else Fraction(r + e, d)
        yield split(x, power)[0], t, c
        if tail:
            yield from repeat((t, t, c))
        power *= 3


def build_ledger(
    diameter: int, policy: Policy, max_terms: int | None = None
) -> SeriesLedger:
    """The first max_terms rows of the ledger, or all of them, with their sums.

    Integer policies stop after the first row with x = 0, as every later
    term is zero; ExactFinal has no natural stopping point, so max_terms is
    required and exactly that many rows are produced.  On scaled each x_k
    and t_k lies within (r + e)/d <= e = 1 ulp of its exact value, so each
    row carries e, O and E carry e times their row counts, and the
    circumference carries root12_terms' bound c: it is F1's sum and bound.
    """
    a = policy.backend
    if max_terms is not None and max_terms < 1:
        raise DomainError("max_terms must be positive")
    if not a.mode and max_terms is None:
        raise DomainError("ExactFinal policy needs an explicit max_terms")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    top = a.root_units(12 * diameter * diameter)
    e, value, rows, sums = top[1], a.value, [], [0, 0]  # sums: odd, even positions
    ks = range(1, max_terms + 1) if max_terms else count(1)
    for k, (x, t, c) in zip(ks, root12_terms(top, a)):
        rows.append(LedgerRow(k, value(x, e), 1 if k % 2 else -1, value(t, e)))
        sums[k % 2 == 0] += t
        if a.mode and not x:
            break
    odd, even = sums
    return SeriesLedger(tuple(rows), value(odd, e * (k + 1 >> 1)), value(even, e * (k >> 1)),
                        value(odd - even, c))


def round_final(value: TermValue, policy: Policy) -> int:
    """The policy's final rounding; integer policies' values pass unchanged.

    The Scaled backend verifies its error bound clears the rounding
    boundary and raises RoundingUndecidableError otherwise.
    """
    return policy.round(value)


def varman_circumference(
    diameter: int, policy: Policy, max_terms: int | None = None
) -> int:
    """The circumference O - E of the ledger, rounded once by round_final."""
    return round_final(build_ledger(diameter, policy, max_terms).circumference, policy)
