"""Four attributed circumference formulas, correction terms, and convergence.

Each formula class, F1-F4 for a circle of diameter D, carries its code,
its terms, the exact multiple of D they are added to and, for F2, its
correction and that correction's code.  The CLI builds formulas from the
FORMULAS code table; only vanish_onset's input check tests a formula's type.

Every F2-F4 term is the exact integer factor*D divided by its denominator,
built for a range of positions from ranges by C-level operator maps (F2's
are a range); denominator(k) is the one-position case.  Each formula's sums
yields rows (n, m, c) under any arithmetic (series_engine's unit, split and
sum_ratios): the partial sum m and a bound c on its error.  F2-F4 share
_Formula.sums, whose first row sums the odd and the even positions in one
bulk pass each and whose c counts the inexact divisions; F1 sums the terms
of series_engine.root12_terms, the loop the varman ledger reads.

Under EachOp, F2-F4 count the first row's small rounded terms by level
(Dirichlet's hyperbola switch, _Formula._levels): the terms whose rounded
quotient reaches v are the first count(mode.level(N, v)), count being the
inverse of denominators, so F3 divides only about (6D)^(1/4) of its terms
and F4 (10D)^(1/6).  ExactFinal rows need each remainder and keep the
plain passes.  One reader,
_Formula.values, rounds the rows of every formula: the per-operation
policies' m is the value; ExactFinal rounds each m, read once at the
backend's digits within c of the exact sum, or else the backend's own sum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, Union

from .exact_arith import DomainError, RoundingMode, iroot, round_enclosure
from .series_engine import (
    Arithmetic,
    EachOp,
    ExactFinal,
    Policy,
    ScaledBackend,
    TermValue,
    arithmetic,
    root12_terms,
)


Sums = Iterator[tuple[int, TermValue, Union[int, Fraction]]]  # (n, m, c): see _Formula.sums
Values = Iterator[tuple[int, int]]  # (n, the circumference from n terms)


class NoConvergenceError(RuntimeError):
    """Raised when no fixed point is detected within the term budget."""


class UnsupportedFormulaError(DomainError):
    """Raised when an operation does not apply to the given formula."""


class CorrectionId(enum.Enum):
    C1 = "c1"  # F(n) = 1/(4n)
    C2 = "c2"  # F(n) = n/(4n^2+1)
    C3 = "c3"  # F(n) = (n^2+1)/(n(4n^2+5))


def correction_fraction(correction: CorrectionId, n: int) -> Fraction:
    """The correction F(n) as an exact rational."""
    if n < 1:
        raise DomainError("correction index must be positive")
    if correction is CorrectionId.C1:
        return Fraction(1, 4 * n)
    if correction is CorrectionId.C2:
        return Fraction(n, 4 * n * n + 1)
    return Fraction(n * n + 1, n * (4 * n * n + 5))


_LEVEL_COST = 4  # bulk divisions (C-level map steps), about what one level's seeded root costs


class _Formula:
    """leading*D + factor*D/d_1 - factor*D/d_2 + ...; F1-F4 set code and override the rest."""

    correction_code = ""  # only F2 has a correction
    leading = 0  # the exact multiple of D the terms are added to
    factor = 4  # every term's numerator is factor * D

    def values(self, diameter: int, policy: Policy, n_from: int, n_to: int) -> Values:
        """Yield (n, circumference) for n = n_from..n_to; no other row is rounded."""
        if diameter <= 0:
            raise DomainError("diameter must be positive")
        top = self.top(diameter, policy)
        if not isinstance(policy, ExactFinal):  # every quotient is already rounded
            yield from ((n, m) for n, m, _ in self.sums(top, policy, n_from, n_to))
            return
        backend, mode = policy.backend, policy.final_mode
        reader = ScaledBackend(backend.frac_digits)
        unit = reader.unit
        for n, m, c in self.sums(top, reader, n_from, n_to):
            value = round_enclosure(m, c, unit, mode)
            if value is None:  # undecided: the backend's own sum, exact (c = 0) or failing loudly
                if backend != reader:  # else that sum is the (m, c) in hand
                    [(_, m, c)] = self.sums(top, backend, n, n)
                value = policy.round(backend.value(m, c))
            yield n, value

    def top(self, diameter: int, policy: Policy) -> int:  # what sums builds its terms from
        return diameter

    def sums(self, diameter: int, a: Arithmetic, n_from: int, n_to: int) -> Sums:
        """Yield (n, m, c) for n = n_from..n_to: m is leading*D + t_1 - t_2 + ... ± t_n in
        units of 1/a.unit, each t_k a quotient split by a, and c counts the inexact divisions,
        so the exact sum lies within c of m.  The first row sums the odd and the even
        positions of its head in one bulk pass each, under EachOp only the head that _levels
        leaves; later rows add a term."""
        numerator = self.factor * diameter * a.unit  # the same for every term
        k, levels = self._levels(numerator, a.mode, n_from) if a.mode else (n_from, 0)
        heads = (self.denominators(range(j, k + 1, 2)) for j in (1, 2))  # odd, even positions
        (odd, c_odd), (even, c_even) = (a.sum_ratios(numerator, ds) for ds in heads)
        m, c = self.leading * diameter * a.unit + odd - even + levels, c_odd + c_even
        yield n_from, m, c
        quotients = map(a.split, repeat(numerator), self.denominators(range(n_from + 1, n_to + 1)))
        for n, (q, r) in enumerate(quotients, n_from + 1):
            m = m + q if n % 2 else m - q
            if r:
                c += 1
            yield n, m, c

    def _levels(self, numerator: int, mode: RoundingMode, n: int) -> tuple[int, int]:
        """(k0, s) with r_1 - r_2 + ... ± r_n = head(k0) + s, r_k the rounded terms and head(k0)
        the bulk sum of the first k0.  Level v adds kappa(v) mod 2 to the alternating sum of
        the first kappa(v) = count(mode.level(N, v)) terms, those with r_k >= v, so for any
        W > r_n and k0 = kappa(W), s = r_n (n mod 2) + sum(kappa(v) mod 2, r_n < v <= W)
        - W (k0 mod 2).  The walk up from r_n + 1 stops at the first level that stands for
        fewer than _LEVEL_COST terms; level v stands for about kappa(v) / (p v) < n / v, p
        the degree of d_k in k, so none does once r_n * _LEVEL_COST > n."""
        r = mode.div(numerator, self.denominator(n))
        if r * _LEVEL_COST > n:
            return n, 0
        v, k = r + 1, self.count(mode.level(numerator, r + 1), n)
        s, width = r * (n & 1) + (k & 1), _LEVEL_COST  # the first level's width is partial
        while k and width >= _LEVEL_COST:
            v += 1
            j = self.count(mode.level(numerator, v), k)  # its root starts from the last count
            s, width, k = s + (j & 1), k - j, j
        return k, s - v * (k & 1)

    def denominator(self, k: int) -> int:  # of the term at position k
        [d] = self.denominators(range(k, k + 1))
        return d

    def analytic_fixed_point(
        self, diameter: int, policy: Policy, max_terms: int
    ) -> tuple[int, int] | None:
        """Under an integer policy, the n from which every rounded term is zero and the value;
        if that n lies past max_terms, NoConvergenceError before any term is summed."""
        onset = _within(max_terms, self.onset(diameter, policy), "term")
        return onset, circumference(self, diameter, onset, policy).circumference

    def onset(self, diameter: int, policy: EachOp) -> int:
        """The smallest n whose term, rounded by the policy's own division, is zero: one past
        the count of denominators at most the level of 1.  For F2 each correction is zero
        by then: 4D*F(n) <= D/n rounds to zero from n > D (floor) or n > 2D (half-up), and
        the term 4D/(2n - 1) only from n = 2D + 1 or 4D + 1."""
        return self.count(policy.mode.level(self.factor * diameter, 1)) + 1


@dataclass(frozen=True)
class F1(_Formula):
    """X/1 - X/(3*3) + X/(3^2*5) - ..., X the policy's root of 12D^2: the ledger's t_k."""

    code = "f1"

    @staticmethod
    def top(diameter: int, policy: Policy) -> tuple[int, int, int]:
        """(X, e, unit): the policy's root of 12D^2 and its error bound, in units of 1/unit."""
        return arithmetic(policy).root_units(12 * diameter * diameter)

    def sums(self, top: tuple[int, int, int], a: Arithmetic, n_from: int, n_to: int) -> Sums:
        """Rows as in _Formula.sums of series_engine.root12_terms' t_k and its bound c; from
        the first x_k = 0 on, every row is that one, so the rest cost no division."""
        m = 0
        for k, (x, t, c) in zip(range(1, n_to + 1), root12_terms(top, a)):
            m = m + t if k % 2 else m - t
            if not x:
                yield from zip(range(max(k, n_from), n_to + 1), repeat(m), repeat(c))
                return
            if k >= n_from:
                yield k, m, c

    def onset(self, diameter: int, policy: EachOp) -> int:
        """The first k whose x_k, X/3^(k-1) rounded, is zero, as 3^(k-1) passes the level of
        1: the ledger's last row."""
        level, k, power = policy.mode.level(self.top(diameter, policy)[0], 1), 1, 1
        while power <= level:
            k, power = k + 1, power * 3
        return k


@dataclass(frozen=True)
class F2(_Formula):
    """4D/1 - 4D/3 + ... ± 4D/(2n-1), then the correction 4D*F(n) with sign (-1)^n."""

    correction: CorrectionId
    code = "f2"

    @property
    def correction_code(self) -> str:
        return self.correction.value

    def denominators(self, ks: range) -> range:
        return range(2 * ks.start - 1, 2 * ks.stop - 1, 2 * ks.step)

    @staticmethod
    def count(x: int, most: int = 0) -> int:
        """How many denominators are at most x >= 0; most, if not 0, is at least that count."""
        return x + 1 >> 1

    def sums(self, diameter: int, a: Arithmetic, n_from: int, n_to: int) -> Sums:
        """The sums of the terms, each with the correction 4D*F(n) attached with sign (-1)^n."""
        numerator = 4 * diameter * a.unit
        for n, m, c in super().sums(diameter, a, n_from, n_to):
            f = correction_fraction(self.correction, n)
            q, r = a.split(numerator * f.numerator, f.denominator)
            yield n, m - q if n % 2 else m + q, c + 1 if r else c

    def analytic_fixed_point(self, diameter: int, policy: Policy, max_terms: int) -> None:
        return None  # the rounded terms vanish only past n = 2D (floor) or 4D (nearest)


@dataclass(frozen=True)
class F3(_Formula):
    """3D + 4D/(3^3-3) - 4D/(5^3-5) + ..."""

    code = "f3"
    leading = 3  # 3D is an exact integer product, never rounded

    @staticmethod
    def denominators(ks: range) -> Iterable[int]:  # b^3 - b = (b - 1) b (b + 1), b = 2k + 1
        lo, hi, step = 2 * ks.start, 2 * ks.stop, 2 * ks.step
        return map(mul, map(mul, range(lo, hi, step), range(lo + 1, hi + 1, step)),
                   range(lo + 2, hi + 2, step))

    @staticmethod
    def count(x: int, most: int = 0) -> int:  # as F2's: the odd b = 2k + 1 with b^3 - b <= x
        b = iroot(x, 3, most and 2 * most + 2) + 1  # the largest b with b^3 - b <= x, or one more
        return (b - 1 if b**3 - b > x else b) - 1 >> 1


@dataclass(frozen=True)
class F4(_Formula):
    """16D/(1^5+4*1) - 16D/(3^5+4*3) + ..."""

    code = "f4"
    factor = 16

    @staticmethod
    def denominators(ks: range) -> Iterable[int]:  # b^5 + 4b = b (b^4 + 4), b = 2k - 1
        bs = range(2 * ks.start - 1, 2 * ks.stop - 1, 2 * ks.step)
        return map(mul, bs, map(add, map(pow, bs, repeat(4)), repeat(4)))

    @staticmethod
    def count(x: int, most: int = 0) -> int:  # as F2's: the odd b = 2k - 1 with b^5 + 4b <= x
        b = iroot(x, 5, most and 2 * most + 1)  # the largest b with b^5 + 4b <= x, or one more
        return (b - 1 if b**5 + 4 * b > x else b) + 1 >> 1


FormulaId = Union[F1, F2, F3, F4]
FORMULAS = {formula.code: formula for formula in (F1, F2, F3, F4)}


class _Record:
    """A result whose first field is its formula."""

    def record(self) -> dict:
        """CSV/JSON record: the formula's codes, then the other fields, non-integers as text."""
        record = {"formula": self.formula.code, "correction": self.formula.correction_code}
        for name in self.__match_args__[1:]:  # the dataclass's field names, listed once per class
            value = getattr(self, name)
            record[name] = value if isinstance(value, int) else str(value)
        return record


@dataclass(frozen=True)
class ComputationResult(_Record):
    formula: FormulaId
    diameter: int
    n: int
    policy: Policy
    circumference: int


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
class ConvergenceReport(_Record):
    formula: FormulaId
    diameter: int
    policy: Policy
    fixed_value: int
    onset: int
    method: AnalyticVanish | WindowedScan
    max_terms_examined: int


def circumference(
    formula: FormulaId, diameter: int, n: int, policy: Policy
) -> ComputationResult:
    """Evaluate the formula with n terms under the given policy."""
    return scan_range(formula, diameter, policy, n, n)[0]


def scan_range(
    formula: FormulaId, diameter: int, policy: Policy, n_from: int, n_to: int
) -> list[ComputationResult]:
    """One result per n in [n_from, n_to], computed incrementally."""
    if n_from < 1:
        raise DomainError("term count must be positive")
    if n_to < n_from:
        raise DomainError("scan range must satisfy n_from <= n_to")
    return [
        ComputationResult(formula, diameter, n, policy, value)
        for n, value in formula.values(diameter, policy, n_from, n_to)
    ]


def vanish_onset(formula: FormulaId, diameter: int, policy: Policy) -> int:
    """Smallest n whose term, rounded by the policy's own division, is zero.

    Only F3 and F4 are supported: F1's fixed point is where its ledger ends,
    and F2's rounded terms vanish only past n = 2D (floor) or 4D (nearest).
    """
    if not isinstance(formula, (F3, F4)):
        raise UnsupportedFormulaError(
            f"vanish onset is only defined for f3/f4, not {formula.code}"
        )
    if not isinstance(policy, EachOp):
        raise UnsupportedFormulaError("vanish onset needs an integer rounding policy")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    return formula.onset(diameter, policy)


def _within(max_terms: int, bound: int, what: str) -> int:
    """bound, the n from which every rounded `what` is zero, if it is at most max_terms."""
    if bound > max_terms:
        raise NoConvergenceError(f"no convergence detected within {max_terms} terms; every "
                                 f"{what} rounds to zero only from n = {bound}")
    return bound


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
    values, F2's integer ones from its onset on, and report the start of
    the run.  If no run appears within max_terms, or an onset lies past it,
    NoConvergenceError is raised; so it is, before any term, for a scan
    whose window is not below max_terms.
    """
    if window < 1:
        raise DomainError("window must be positive")
    if max_terms < 1:
        raise DomainError("max_terms must be positive")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    integer = isinstance(policy, EachOp)
    if integer and (settled := formula.analytic_fixed_point(diameter, policy, max_terms)):
        onset, value = settled
        return ConvergenceReport(
            formula, diameter, policy, value, onset, AnalyticVanish(), onset
        )
    if window >= max_terms:
        raise NoConvergenceError(f"no convergence detectable within {max_terms} terms: "
                                 f"a window of {window} needs at least {window + 1}")
    bound = _within(max_terms, formula.onset(diameter, policy), "term and correction") if integer else 1
    run_start = None
    prev = None
    for n, value in formula.values(diameter, policy, 1, max_terms):
        if value != prev:
            run_start = n
            prev = value
        elif n - run_start >= window and n >= bound:
            return ConvergenceReport(
                formula, diameter, policy, value, run_start, WindowedScan(window), n
            )
    raise NoConvergenceError(
        f"no convergence detected within {max_terms} terms (window {window}); the last "
        f"value, {prev}, held from n = {run_start} for {n - run_start + 1} rows"
    )
