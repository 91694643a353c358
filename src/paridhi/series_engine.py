"""The root-12 alternating series ledger under three rounding policies.

The computation: seed x1 = sqrt(12 * diameter**2), then repeatedly divide
by 3 to get x2, x3, ...; the k-th term is t_k = x_k / (2k - 1); odd- and
even-position terms are summed separately and the circumference is their
difference, C = O - E.  The ledger serves the varman command only: F1 in
madhava_formulas sums the same terms through the formulas' reader.

Three policies control how the inexact square root and divisions are
handled:

* EachOp(mode)  -- every operation rounds under mode: FLOOR_EACH_OP keeps
                   the integer part, NEAREST_EACH_OP rounds half-up,
* ExactFinal    -- values stay exact until a single final rounding;
                   backed either by exact rationals (seeded with the
                   integer floor root) or by ScaledValue fixed-point
                   (seeded with the root truncated to frac_digits
                   decimal places).

Each EachOp and each ExactFinal backend carries its own arithmetic:
seed(n) makes the exact integer n a value, root(radicand) is the ledger's
seed root, div(x, d) divides a value by an integer and round rounds a value
to an integer.  root_units(radicand) is that root as F1 reads it: (X, e,
unit), X and its error bound e in units of 1/unit.  A formula reads its sums
of quotients through unit (10**s on ScaledBackend(s), else 1), split(n, d)
-> (q, r), one quotient whose r is nonzero only where a truncating division
was inexact, and sum_ratios(n, ds) -> (the sum of the q over ds in one bulk
pass, how many were inexact; under EachOp, mode.sum_div, one floordiv map
for a range such as F2's divisors).
arithmetic(policy) picks the object; policy.round(value) is round_final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice, repeat
from math import gcd
from typing import Iterable, Iterator, Union

from .aryabhata_sqrt import isqrt, sqrt_scaled
from .exact_arith import DomainError, RoundingMode, ScaledValue, ratio_round


@dataclass(frozen=True)
class EachOp:
    """Integer values; the root and every division are rounded under mode."""

    mode: RoundingMode
    seed = round = staticmethod(int)
    unit = 1

    def div(self, n: int, d: int) -> int:
        return self.mode.div(n, d)

    def root(self, radicand: int) -> int:
        # rem/(2 root + 1) rounds to the carry: under floor 0 (rem <= 2 root), half-up rem > root
        root, rem = isqrt(radicand)
        return root + self.mode.div(rem, 2 * root + 1)

    def root_units(self, radicand: int) -> tuple[int, int, int]:
        return self.root(radicand), 0, 1

    def split(self, n: int, d: int) -> tuple[int, int]:
        return self.mode.div(n, d), 0

    def sum_ratios(self, n: int, ds: Iterable[int]) -> tuple[int, int]:
        return self.mode.sum_div(n, ds), 0

    def __str__(self) -> str:
        return self.mode.value


@dataclass(frozen=True)
class RationalBackend:
    """Exact fractions, seeded with the integer floor root."""

    frac_digits, max_digits = 40, 320  # the digits a formula's sums are read at, and their cap
    seed = staticmethod(Fraction)
    round = staticmethod(ratio_round)
    unit = 1

    def root(self, radicand: int) -> Fraction:
        return Fraction(isqrt(radicand)[0])

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
    def div(x: Fraction, d: int) -> Fraction:
        return x / d

    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class ScaledBackend:
    """ScaledValue fixed point, seeded with the root to frac_digits places."""

    frac_digits: int = 40

    def __post_init__(self) -> None:
        if self.frac_digits < 0:
            raise DomainError("frac_digits must be non-negative")

    def seed(self, n: int) -> ScaledValue:
        return ScaledValue.from_int(n, self.frac_digits)

    def root(self, radicand: int) -> ScaledValue:
        return sqrt_scaled(radicand, self.frac_digits)

    def root_units(self, radicand: int) -> tuple[int, int, int]:
        root = self.root(radicand)
        return root.mantissa, root.error_ulps, self.unit

    max_digits = property(lambda self: self.frac_digits)  # a fixed precision: never doubled
    unit = property(lambda self: 10**self.frac_digits)
    split = staticmethod(divmod)

    @staticmethod
    def sum_ratios(n: int, ds: Iterable[int]) -> tuple[int, int]:
        """The truncated quotients' sum, and how many of the divisions were inexact."""
        mantissa = inexact = 0
        for q, r in map(divmod, repeat(n), ds):
            mantissa += q
            inexact += r != 0
        return mantissa, inexact

    @staticmethod
    def div(x: ScaledValue, d: int) -> ScaledValue:
        return x.div_int(d)

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
    diameter: int
    policy: Policy
    rows: tuple[LedgerRow, ...]
    odd_sum: TermValue
    even_sum: TermValue
    circumference: TermValue  # odd_sum - even_sum, exact under ExactFinal


def arithmetic(policy: Policy) -> Arithmetic:
    """The object that seeds, divides and forms terms under the policy."""
    return policy.backend if isinstance(policy, ExactFinal) else policy


def ledger_rows(diameter: int, policy: Policy) -> Iterator[LedgerRow]:
    """Yield the ledger's rows for k = 1, 2, ...

    Integer policies stop after the first row with x = 0, as every later
    term is zero; under ExactFinal x never reaches zero and the rows go on.
    """
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    a = arithmetic(policy)
    x = a.root(12 * diameter * diameter)
    for k in count(1):
        yield LedgerRow(k, x, 1 if k % 2 else -1, a.div(x, 2 * k - 1))
        if x == 0:
            return
        x = a.div(x, 3)


def build_ledger(
    diameter: int, policy: Policy, max_terms: int | None = None
) -> SeriesLedger:
    """The first max_terms rows of the ledger, or all of them, with their sums.

    ExactFinal has no natural stopping point, so max_terms is required and
    exactly that many rows are produced.
    """
    if max_terms is not None and max_terms < 1:
        raise DomainError("max_terms must be positive")
    if isinstance(policy, ExactFinal) and max_terms is None:
        raise DomainError("ExactFinal policy needs an explicit max_terms")
    rows = tuple(islice(ledger_rows(diameter, policy), max_terms))
    zero = arithmetic(policy).seed(0)
    odd = sum((row.t for row in rows[::2]), zero)
    even = sum((row.t for row in rows[1::2]), zero)
    return SeriesLedger(diameter, policy, rows, odd, even, odd - even)


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
