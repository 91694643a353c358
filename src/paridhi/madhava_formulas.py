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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Iterator, Union

from .exact_arith import DomainError
from .series_engine import (
    Arithmetic,
    ExactFinal,
    FloorEachOp,
    NearestEachOp,
    Policy,
    RationalBackend,
    TermValue,
    arithmetic,
    build_ledger,
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


def correction_value(
    correction: CorrectionId, n: int, diameter: int, policy: Policy
) -> int | Fraction:
    """4*diameter*F(n) as a single division, rounded per policy.

    Integer policies return the rounded integer; ExactFinal returns the
    exact ratio.
    """
    exact = isinstance(policy, ExactFinal)
    return _correction(correction, n, diameter, RationalBackend() if exact else policy)


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


def _validate(diameter: int, n: int) -> None:
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    if n < 1:
        raise DomainError("term count must be positive")


def _partial_sums(
    formula: FormulaId, diameter: int, policy: Policy, n_to: int
) -> Iterator[tuple[int, TermValue]]:
    """Yield (n, leading + t_1 - t_2 + ... ± t_n) for n = 1..n_to.

    This is the one loop that sums terms; F2's correction and the final
    rounding are applied per n by _finish.  Under integer policies F1 stops
    early, at the ledger's natural termination: every later term is zero.
    """
    a = arithmetic(policy)
    if isinstance(formula, F1):
        terms = (row.t for row in build_ledger(diameter, policy, max_terms=n_to).rows)
    else:
        # The numerator is the same for every term, so it is not recomputed.
        if isinstance(formula, F2):
            denominators = range(1, 2 * n_to, 2)
        else:
            denominators = map(partial(_denominator, formula), range(1, n_to + 1))
        terms = map(a.ratio, repeat(_numerator(formula, diameter), n_to), denominators)
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


def circumference(
    formula: FormulaId, diameter: int, n: int, policy: Policy
) -> ComputationResult:
    """Evaluate the formula with n terms under the given policy."""
    _validate(diameter, n)
    [(_, total)] = deque(_partial_sums(formula, diameter, policy, n), maxlen=1)
    value = _finish(formula, diameter, policy, n, total)
    return ComputationResult(formula, diameter, n, policy, value)


def _running_values(
    formula: FormulaId, diameter: int, policy: Policy, n_to: int
) -> Iterator[tuple[int, int]]:
    """Yield (n, circumference) for n = 1..n_to, reusing the partial sum."""
    for n, total in _partial_sums(formula, diameter, policy, n_to):
        value = _finish(formula, diameter, policy, n, total)
        yield n, value
    yield from zip(range(n + 1, n_to + 1), repeat(value))  # F1 past termination


def scan_range(
    formula: FormulaId, diameter: int, policy: Policy, n_from: int, n_to: int
) -> list[ComputationResult]:
    """One result per n in [n_from, n_to], computed incrementally."""
    _validate(diameter, n_from)
    if n_to < n_from:
        raise DomainError("scan range must satisfy n_from <= n_to")
    results = []
    for n, value in _running_values(formula, diameter, policy, n_to):
        if n >= n_from:
            results.append(ComputationResult(formula, diameter, n, policy, value))
    return results


def vanish_onset(formula: FormulaId, diameter: int, policy: Policy) -> int:
    """Smallest n whose rounded term is zero, by exact integer comparison.

    Only F3 and F4 have monotonically vanishing terms; F1 terminates
    naturally through its ledger and F2's correction never vanishes.
    """
    if not isinstance(formula, (F3, F4)):
        raise UnsupportedFormulaError(
            f"vanish onset is only defined for f3/f4, not {formula_code(formula)}"
        )
    if not isinstance(policy, (FloorEachOp, NearestEachOp)):
        raise UnsupportedFormulaError("vanish onset needs an integer rounding policy")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    factor = 1 if isinstance(policy, FloorEachOp) else 2
    numerator = factor * _numerator(formula, diameter)

    def vanished(n: int) -> bool:
        # term < 1 (floor) or term < 1/2 (nearest)
        return numerator < _denominator(formula, n)

    hi = 1
    while not vanished(hi):
        hi *= 2
    lo = hi // 2  # lo is known not-vanished (or 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if vanished(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    if isinstance(policy, (FloorEachOp, NearestEachOp)):
        if isinstance(formula, (F3, F4)):
            onset = vanish_onset(formula, diameter, policy)
            value = circumference(formula, diameter, onset, policy).circumference
            return ConvergenceReport(
                formula, diameter, policy, value, onset, AnalyticVanish(), onset
            )
        if isinstance(formula, F1):
            ledger = build_ledger(diameter, policy)
            onset = ledger.rows[-1].k  # first row with x = 0
            return ConvergenceReport(
                formula, diameter, policy, ledger.circumference, onset,
                AnalyticVanish(), onset,
            )
    run_start = None
    prev = None
    examined = 0
    for n, value in _running_values(formula, diameter, policy, max_terms):
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
