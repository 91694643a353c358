import math
from fractions import Fraction

import ledger_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paridhi.exact_arith import DomainError, RoundingMode, RoundingUndecidableError, ScaledValue
from paridhi.madhava_formulas import F3, AnalyticVanish, WindowedScan, fixed_point
from paridhi.series_engine import (
    FLOOR_EACH_OP,
    NEAREST_EACH_OP,
    EachOp,
    ExactFinal,
    RationalBackend,
    ScaledBackend,
    build_ledger,
    varman_circumference,
)

D17 = 10**17
FLOOR = RoundingMode.FLOOR
NEAREST = RoundingMode.NEAREST_HALF_UP


class TestFloorLedger:
    def test_row_count(self):
        ledger = build_ledger(D17, FLOOR_EACH_OP)
        assert len(ledger.rows) == 38

    def test_first_row(self):
        row = build_ledger(D17, FLOOR_EACH_OP).rows[0]
        assert row.x == row.t == 346410161513775458
        assert row.sign == 1

    def test_row_seven(self):
        row = build_ledger(D17, FLOOR_EACH_OP).rows[6]
        assert row.k == 7
        assert row.t == 36552723595417

    def test_last_row_is_zero(self):
        row = build_ledger(D17, FLOOR_EACH_OP).rows[-1]
        assert (row.k, row.x, row.t) == (38, 0, 0)

    def test_sums(self):
        ledger = build_ledger(D17, FLOOR_EACH_OP)
        assert ledger.odd_sum == 354623317218212158
        assert ledger.even_sum == 40464051859232834
        assert ledger.circumference == 314159265358979324

    def test_unit_diameter(self):
        ledger = build_ledger(1, FLOOR_EACH_OP)
        assert [(r.k, r.x, r.t) for r in ledger.rows] == [(1, 3, 3), (2, 1, 0), (3, 0, 0)]
        assert ledger.circumference == 3

    def test_recurrence_invariants(self):
        ledger = build_ledger(D17, FLOOR_EACH_OP)
        for prev, row in zip(ledger.rows, ledger.rows[1:]):
            assert row.x == prev.x // 3
        for row in ledger.rows:
            assert row.t == row.x // (2 * row.k - 1)
            assert row.sign == (1 if row.k % 2 else -1)

    def test_max_terms_truncates(self):
        ledger = build_ledger(D17, FLOOR_EACH_OP, max_terms=5)
        assert len(ledger.rows) == 5


class TestNearestLedger:
    def test_seed_and_sums(self):
        ledger = build_ledger(D17, NEAREST_EACH_OP)
        assert ledger.rows[0].x == 346410161513775459
        assert ledger.odd_sum == 354623317218212169
        assert ledger.even_sum == 40464051859232844

    def test_circumference(self):
        assert varman_circumference(D17, NEAREST_EACH_OP) == 314159265358979325


class TestExactFinal:
    def test_scaled_floor(self):
        policy = ExactFinal(FLOOR, ScaledBackend(40))
        assert varman_circumference(D17, policy, 38) == 314159265358979323

    def test_scaled_nearest(self):
        policy = ExactFinal(NEAREST, ScaledBackend(40))
        assert varman_circumference(D17, policy, 38) == 314159265358979324

    def test_scaled_nearest_at_two_digits(self):
        # F1's bound decides this row; the typed chain's bound of 39 ulp did not
        policy = ExactFinal(NEAREST, ScaledBackend(2))
        assert varman_circumference(D17, policy, 38) == 314159265358979324

    def test_rational_floor(self):
        policy = ExactFinal(FLOOR, RationalBackend())
        assert varman_circumference(D17, policy, 38) == 314159265358979323

    def test_rational_value_is_not_a_32nd(self):
        # an integer seed divided by 3 and odd numbers can never produce a
        # fraction with even denominator, so .84375 = 27/32 is unreachable
        ledger = build_ledger(D17, ExactFinal(FLOOR, RationalBackend()), 38)
        value = ledger.circumference
        assert isinstance(value, Fraction)
        assert value.denominator % 2 == 1
        assert value - (value.numerator // value.denominator) != Fraction(27, 32)

    def test_requires_max_terms(self):
        with pytest.raises(DomainError):
            build_ledger(D17, ExactFinal(FLOOR, RationalBackend()))

    def test_ledger_invariants(self):
        ledger = build_ledger(D17, ExactFinal(FLOOR, RationalBackend()), 38)
        assert ledger.circumference == ledger.odd_sum - ledger.even_sum
        for prev, row in zip(ledger.rows, ledger.rows[1:]):
            assert row.x == prev.x / 3
        for row in ledger.rows:
            assert row.t == row.x / (2 * row.k - 1)


class TestEachOp:
    def test_the_two_policies_are_one_class(self):
        assert (FLOOR_EACH_OP, NEAREST_EACH_OP) == (EachOp(FLOOR), EachOp(NEAREST))
        assert (str(FLOOR_EACH_OP), str(NEAREST_EACH_OP)) == ("floor", "nearest")

    @settings(max_examples=300)
    @given(st.one_of(
        st.integers(min_value=0, max_value=10**200),
        st.integers(min_value=1, max_value=10**100).flatmap(
            lambda k: st.sampled_from([k * k, k * k - 1, k * k + 1, k * k + k, k * k + k + 1])
        ),
    ))
    @example(0)
    @example(2)  # k*k + k at k = 1: the nearest root rounds down
    @example(3)  # k*k + k + 1 at k = 1: the nearest root rounds up
    @example(5 * 10**4299)  # 4300 digits: 4 * radicand would pass the str limit of isqrt
    def test_root_matches_math_isqrt(self, radicand):
        r0 = math.isqrt(radicand)
        assert EachOp(FLOOR).root_units(radicand) == (r0, 0, 1)
        assert EachOp(NEAREST).root_units(radicand) == (r0 + (radicand - r0 * r0 > r0), 0, 1)


SWITCH_POLICIES = [FLOOR_EACH_OP, NEAREST_EACH_OP,
                   *(ExactFinal(mode, backend) for mode in (FLOOR, NEAREST)
                     for backend in (RationalBackend(), ScaledBackend(40)))]


@pytest.mark.parametrize("policy", SWITCH_POLICIES, ids=str)
def test_the_backends_mode_is_the_per_operation_switch(policy):
    # a per-operation policy is its own arithmetic; only its arithmetic carries a mode
    each_op = isinstance(policy, EachOp)
    assert (policy.backend is policy) == each_op
    assert (policy.backend.mode is None) == (not each_op)
    if policy.backend.mode:
        assert build_ledger(7, policy).rows[-1].x == 0  # the ledger stops at its first zero x
    else:
        with pytest.raises(DomainError, match="needs an explicit max_terms"):
            build_ledger(7, policy)
    report = fixed_point(F3(), 7, policy)
    expected = {"floor": (AnalyticVanish(), 2, 22), "nearest": (AnalyticVanish(), 2, 22),
                "final-floor": (WindowedScan(50), 4, 21), "final-nearest": (WindowedScan(50), 1, 22)}
    assert (report.method, report.onset, report.fixed_value) == expected[str(policy)]


def test_diameter_must_be_positive():
    with pytest.raises(DomainError):
        build_ledger(0, FLOOR_EACH_OP)


@pytest.mark.parametrize("policy", [ExactFinal(FLOOR, RationalBackend()), ExactFinal(FLOOR, ScaledBackend(40))])
def test_exact_rows_go_on_past_the_integer_ledger(policy):
    # the floor ledger of 10**17 ends at row 38; the exact one does not end
    rows = build_ledger(D17, policy, 60).rows
    assert [row.k for row in rows] == list(range(1, 61))
    assert rows[:38] == build_ledger(D17, policy, 38).rows
    assert all(row.x != 0 for row in rows)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**24))
def test_termination_bound(diameter):
    # x strictly shrinks by ~1/3 per row, so the ledger is short
    ledger = build_ledger(diameter, FLOOR_EACH_OP)
    x1 = ledger.rows[0].x
    bound = 2
    while 3**(bound - 2) <= x1:
        bound += 1
    assert len(ledger.rows) <= bound
    assert ledger.rows[-1].x == 0


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**24))
def test_monotone_policy_bound(diameter):
    floor_rows = build_ledger(diameter, FLOOR_EACH_OP).rows
    nearest_rows = build_ledger(diameter, NEAREST_EACH_OP).rows
    for f, n in zip(floor_rows, nearest_rows):
        assert f.t <= n.t <= f.t + f.k


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=3, max_value=30),
)
def test_alternating_bracketing(diameter, terms):
    # proper prefixes ending on an odd row overshoot the full value,
    # prefixes ending on an even row undershoot it
    ledger = build_ledger(diameter, ExactFinal(FLOOR, RationalBackend()), terms)
    full = ledger.circumference
    partial = Fraction(0)
    for row in ledger.rows[:-1]:
        partial += row.sign * row.t
        if row.sign > 0:
            assert partial > full
        else:
            assert partial < full


EVERY_POLICY = [FLOOR_EACH_OP, NEAREST_EACH_OP] + [
    ExactFinal(mode, backend)
    for mode in (FLOOR, NEAREST)
    for backend in (RationalBackend(), *map(ScaledBackend, (0, 1, 2, 3, 6, 40)))
]


def _plain(value):
    """A ScaledValue's mantissa; an int or a Fraction as it is."""
    return value.mantissa if isinstance(value, ScaledValue) else value


def _table(rows, *sums):
    return [(r.k, _plain(r.x), r.sign, _plain(r.t)) for r in rows], [_plain(v) for v in sums]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(EVERY_POLICY),
    st.integers(min_value=1, max_value=10**18),
    st.integers(min_value=1, max_value=300),
)
@example(ExactFinal(NEAREST, ScaledBackend(2)), D17, 38)
@example(NEAREST_EACH_OP, D17, 300)
def test_ledger_matches_the_typed_chain(policy, diameter, n):
    ledger = build_ledger(diameter, policy, n)
    rows, odd, even, circumference = ledger_oracle.ledger(diameter, policy, n)
    assert _table(ledger.rows, ledger.odd_sum, ledger.even_sum, ledger.circumference) == (
        _table(rows, odd, even, circumference))
    values = [ledger.odd_sum, ledger.even_sum, ledger.circumference]
    assert {type(v) for v in values} == {type(circumference)}
    try:
        want = policy.round(circumference)
    except RoundingUndecidableError:
        return  # the chain's bound is wider than F1's: it may leave a row undecided
    assert policy.round(ledger.circumference) == want


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 3, 6, 40]),
    st.integers(min_value=1, max_value=10**18),
    st.integers(min_value=1, max_value=120),
)
def test_scaled_ledger_encloses_the_true_values(digits, diameter, n):
    # sqrt(12 D^2) lies in [root, root + 1] / 10**t; every row and sum must hold those ends
    t = digits + 30
    root = math.isqrt(12 * diameter**2 * 100**t)
    ledger = build_ledger(diameter, ExactFinal(FLOOR, ScaledBackend(digits)), n)
    signed = [Fraction(row.sign, 3 ** (row.k - 1) * (2 * row.k - 1)) for row in ledger.rows]
    odd = sum(s for s in signed if s > 0)
    even = -sum(s for s in signed if s < 0)
    checks = [(row.x, Fraction(1, 3 ** (row.k - 1))) for row in ledger.rows]
    checks += [(row.t, abs(s)) for row, s in zip(ledger.rows, signed)]
    checks += [(ledger.odd_sum, odd), (ledger.even_sum, even), (ledger.circumference, odd - even)]
    for value, factor in checks:
        lo, hi = sorted(Fraction(r, 10**t) * factor for r in (root, root + 1))
        assert value.as_fraction() - value.error_bound <= lo
        assert hi <= value.as_fraction() + value.error_bound
