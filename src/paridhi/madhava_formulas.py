"""Four attributed circumference formulas, correction terms, and convergence.

The formulas, for a circle of diameter D:

* F1 -- the root-12 series (delegated to the series ledger engine),
* F2 -- 4D/1 - 4D/3 + ... + (-1)^(n-1) 4D/(2n-1), plus an alternating-sign
        correction term 4D*F(n) appended with sign (-1)^n,
* F3 -- 3D + 4D/(3^3-3) - 4D/(5^3-5) + ...,
* F4 -- 16D/(1^5+4*1) - 16D/(3^5+4*3) + ...

Every term is produced by exactly one rounded division: the numerator is
formed exactly as an integer, divided once by the exact denominator, and
the rounded terms are summed with their signs.  Under ExactFinal policies
the terms stay exact and a single rounding is applied to each partial sum.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, count, islice, repeat
from typing import Iterator, Union

from .exact_arith import DomainError
from .series_engine import (
    Arithmetic,
    FloorEachOp,
    NearestEachOp,
    Policy,
    TermValue,
    arithmetic,
    ledger_rows,
    round_final,
)


class NoConvergenceError(RuntimeError):
    """Raised when no fixed point is detected within the term budget."""


class UnsupportedFormulaError(DomainError):
    """Raised when an operation does not apply to the given formula."""


class CorrectionId(enum.Enum):
    C1 = "c1"  # F(n) = 1/(4n)
    C2 = "c2"  # F(n) = n/(4n^2+1)
    C3 = "c3"  # F(n) = (n^2+1)/(n(4n^2+5))


@dataclass(frozen=True)
class F1:
    pass


@dataclass(frozen=True)
class F2:
    correction: CorrectionId


@dataclass(frozen=True)
class F3:
    pass


@dataclass(frozen=True)
class F4:
    pass


FormulaId = Union[F1, F2, F3, F4]


def formula_code(formula: FormulaId) -> str:
    return {F1: "f1", F2: "f2", F3: "f3", F4: "f4"}[type(formula)]


def correction_code(formula: FormulaId) -> str:
    return formula.correction.value if isinstance(formula, F2) else ""


@dataclass(frozen=True)
class ComputationResult:
    formula: FormulaId
    diameter: int
    n: int
    policy: Policy
    circumference: int

    def record(self) -> dict:
        """Flat record with exact decimal integers, for CSV/JSON output."""
        return {
            "formula": formula_code(self.formula),
            "correction": correction_code(self.formula),
            "diameter": self.diameter,
            "n": self.n,
            "policy": str(self.policy),
            "circumference": self.circumference,
        }


@dataclass(frozen=True)
class AnalyticVanish:
    def __str__(self) -> str:
        return "analytic-vanish"


@dataclass(frozen=True)
class WindowedScan:
    window: int

    def __str__(self) -> str:
        return f"windowed-scan({self.window})"


@dataclass(frozen=True)
class ConvergenceReport:
    formula: FormulaId
    diameter: int
    policy: Policy
    fixed_value: int
    onset: int
    method: AnalyticVanish | WindowedScan
    max_terms_examined: int


def correction_fraction(correction: CorrectionId, n: int) -> Fraction:
    """The correction F(n) as an exact rational."""
    if n < 1:
        raise DomainError("correction index must be positive")
    if correction is CorrectionId.C1:
        return Fraction(1, 4 * n)
    if correction is CorrectionId.C2:
        return Fraction(n, 4 * n * n + 1)
    return Fraction(n * n + 1, n * (4 * n * n + 5))


def _correction(
    correction: CorrectionId, n: int, diameter: int, a: Arithmetic
) -> TermValue:
    f = correction_fraction(correction, n)
    return a.ratio(4 * diameter * f.numerator, f.denominator)


def _numerator(formula: FormulaId, diameter: int) -> int:
    """The numerator every term of F2, F3 or F4 shares."""
    return 16 * diameter if isinstance(formula, F4) else 4 * diameter


def _denominator(formula: FormulaId, k: int) -> int:
    """Exact denominator of the k-th term of F2, F3 or F4."""
    if isinstance(formula, F3):
        b = 2 * k + 1
        return b**3 - b
    b = 2 * k - 1
    return b**5 + 4 * b if isinstance(formula, F4) else b


def _leading(formula: FormulaId, diameter: int) -> int:
    # F3's leading 3D is an exact integer product, never rounded.
    return 3 * diameter if isinstance(formula, F3) else 0


def _validate(n: int) -> None:
    if n < 1:
        raise DomainError("term count must be positive")


def _partial_sums(
    formula: FormulaId, diameter: int, policy: Policy
) -> Iterator[tuple[int, TermValue]]:
    """Yield (n, leading + t_1 - t_2 + ... ± t_n) for n = 1, 2, ...

    This is the one loop that sums terms, and it runs until its reader
    stops, except that under integer policies F1 ends with the ledger's
    last row: every later term is zero.
    """
    a = arithmetic(policy)
    if isinstance(formula, F1):
        terms = (row.t for row in ledger_rows(diameter, policy))
    else:
        if diameter <= 0:
            raise DomainError("diameter must be positive")
        # The numerator is the same for every term, so it is not recomputed.
        if isinstance(formula, F2):
            denominators = count(1, 2)
        else:
            denominators = map(partial(_denominator, formula), count(1))
        terms = map(a.ratio, repeat(_numerator(formula, diameter)), denominators)
    total = a.seed(_leading(formula, diameter))
    for n, t in enumerate(terms, 1):
        total = total + t if n % 2 else total - t
        yield n, total


def _finish(
    formula: FormulaId, diameter: int, policy: Policy, n: int, total: TermValue
) -> int:
    """Attach F2's correction for n terms to a partial sum and round it."""
    if isinstance(formula, F2):
        corr = _correction(formula.correction, n, diameter, arithmetic(policy))
        total = total + corr if n % 2 == 0 else total - corr
    return round_final(total, policy)


def _values(
    formula: FormulaId, diameter: int, policy: Policy, n_from: int, n_to: int
) -> Iterator[tuple[int, int]]:
    """Yield (n, circumference) for n = n_from..n_to; no other row is rounded."""
    sums = _partial_sums(formula, diameter, policy)
    head = deque(islice(sums, n_from), maxlen=1)  # row n_from, or F1's last row
    for n, total in chain(head, islice(sums, n_to - n_from)):
        value = _finish(formula, diameter, policy, n, total)
        if n >= n_from:
            yield n, value
    # F1 past the ledger's last row repeats its sum
    yield from zip(range(max(n + 1, n_from), n_to + 1), repeat(value))


def circumference(
    formula: FormulaId, diameter: int, n: int, policy: Policy
) -> ComputationResult:
    """Evaluate the formula with n terms under the given policy."""
    _validate(n)
    [(_, value)] = _values(formula, diameter, policy, n, n)
    return ComputationResult(formula, diameter, n, policy, value)


def scan_range(
    formula: FormulaId, diameter: int, policy: Policy, n_from: int, n_to: int
) -> list[ComputationResult]:
    """One result per n in [n_from, n_to], computed incrementally."""
    _validate(n_from)
    if n_to < n_from:
        raise DomainError("scan range must satisfy n_from <= n_to")
    return [
        ComputationResult(formula, diameter, n, policy, value)
        for n, value in _values(formula, diameter, policy, n_from, n_to)
    ]


def vanish_onset(formula: FormulaId, diameter: int, policy: Policy) -> int:
    """Smallest n whose term, rounded by the policy's own division, is zero.

    Only F3 and F4 are supported: F1 ends with its ledger, and F2's rounded
    terms vanish only past n = 2D (floor) or 4D (nearest).
    """
    if not isinstance(formula, (F3, F4)):
        raise UnsupportedFormulaError(
            f"vanish onset is only defined for f3/f4, not {formula_code(formula)}"
        )
    if not isinstance(policy, (FloorEachOp, NearestEachOp)):
        raise UnsupportedFormulaError("vanish onset needs an integer rounding policy")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    numerator = _numerator(formula, diameter)

    def vanished(n: int) -> bool:
        return policy.ratio(numerator, _denominator(formula, n)) == 0

    hi = 1
    while not vanished(hi):
        hi *= 2
    # vanished(hi // 2) is False (or hi is 1), so the onset lies in (hi // 2, hi]
    return bisect_left(range(hi + 1), True, hi // 2 + 1, hi, key=vanished)


def fixed_point(
    formula: FormulaId,
    diameter: int,
    policy: Policy,
    window: int = 50,
    max_terms: int = 10**4,
) -> ConvergenceReport:
    """Detect the value the series settles on, and from which n.

    Integer policies on F1/F3/F4 use the analytic vanish onset: every term
    from the onset on rounds to zero, so the partial sums are provably
    constant.  All other combinations scan for `window` consecutive equal
    values and report the start of the run; if no such run appears within
    max_terms, NoConvergenceError is raised.
    """
    if window < 1:
        raise DomainError("window must be positive")
    if max_terms < 1:
        raise DomainError("max_terms must be positive")
    if isinstance(policy, (FloorEachOp, NearestEachOp)) and not isinstance(formula, F2):
        if isinstance(formula, F1):  # the ledger ends at its first row with x = 0
            onset = sum(1 for _ in ledger_rows(diameter, policy))
        else:
            onset = vanish_onset(formula, diameter, policy)
        value = circumference(formula, diameter, onset, policy).circumference
        return ConvergenceReport(
            formula, diameter, policy, value, onset, AnalyticVanish(), onset
        )
    run_start = None
    prev = None
    examined = 0
    for n, value in _values(formula, diameter, policy, 1, max_terms):
        examined = n
        if value != prev:
            run_start = n
            prev = value
        elif n - run_start >= window:
            return ConvergenceReport(
                formula, diameter, policy, value, run_start, WindowedScan(window), n
            )
    raise NoConvergenceError(
        f"no convergence detected within {examined} terms "
        f"(window {window}); the value kept changing"
    )
