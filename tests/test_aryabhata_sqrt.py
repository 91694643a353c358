import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paridhi.aryabhata_sqrt import (
    _G,
    SqrtStep,
    SqrtTrace,
    isqrt,
    isqrt_nearest,
    isqrt_traced,
    sqrt_scaled,
)
from paridhi.exact_arith import DomainError


def reference_trace(n: int) -> SqrtTrace:
    """Place-by-place worksheet read off str(n), one decimal digit at a time."""
    if n == 0:
        return SqrtTrace(0, (SqrtStep("odd", 0, 0, 0, 0),), 0, 0)
    s = str(n)
    split = 1 if len(s) % 2 else 2
    group, rest = int(s[:split]), s[split:]
    digit = 1
    while (digit + 1) * (digit + 1) <= group:
        digit += 1
    steps = [SqrtStep("odd", group, digit * digit, digit, digit * digit)]
    rem, root = group - digit * digit, digit
    for i in range(0, len(rest), 2):
        d_even, d_odd = int(rest[i]), int(rest[i + 1])
        w_even = rem * 10 + d_even
        divisor = 2 * root
        q = min(w_even // divisor, 9)
        while (w_even - q * divisor) * 10 + d_odd < q * q:
            q -= 1
        steps.append(SqrtStep("even", w_even, divisor, q, q * divisor))
        w_odd = (w_even - q * divisor) * 10 + d_odd
        steps.append(SqrtStep("odd", w_odd, q * q, None, q * q))
        rem, root = w_odd - q * q, root * 10 + q
    return SqrtTrace(n, tuple(steps), root, rem)


class TestSqrtStep:
    def test_fields_repr_and_equality(self):
        trace = isqrt_traced(987654321)
        assert trace == reference_trace(987654321)
        step = trace.steps[1]
        assert SqrtStep._fields == (
            "place_kind", "working_value", "divisor_or_square", "digit_emitted", "subtracted"
        )
        assert repr(step) == (
            "SqrtStep(place_kind='even', working_value=8, divisor_or_square=6, "
            "digit_emitted=1, subtracted=6)"
        )
        assert step == SqrtStep("even", 8, 6, 1, 6)

    def test_fields_cannot_be_assigned(self):
        step = isqrt_traced(987654321).steps[0]
        with pytest.raises(AttributeError):
            step.digit_emitted = 4
        with pytest.raises(AttributeError):
            step.note = "extra"


class TestIsqrt:
    def test_worked_example(self):
        assert isqrt(987654321) == (31426, 60845)

    def test_zero(self):
        assert isqrt(0) == (0, 0)

    def test_twelve_times_ten_to_34(self):
        root, rem = isqrt(12 * 10**34)
        assert root == 346410161513775458
        assert root * root + rem == 12 * 10**34

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            isqrt(-1)

    def test_small_range_against_oracle(self):
        for n in range(5000):
            root, rem = isqrt(n)
            assert root == math.isqrt(n)
            assert root * root + rem == n

    @given(st.integers(min_value=0, max_value=10**80))
    def test_oracle_agreement(self, n):
        root, rem = isqrt(n)
        assert root == math.isqrt(n)
        assert rem == n - root * root

    @given(st.integers(min_value=0, max_value=10**80))
    def test_contract(self, n):
        root, _ = isqrt(n)
        assert root * root <= n < (root + 1) * (root + 1)


# Digit counts where the head's length changes: every count up to 4g + 2,
# and either side of each multiple of 2g up to the 4300-digit str limit.
LENGTHS = sorted(
    set(range(1, 4 * _G + 3))
    | {2 * _G * k + d for k in range(1, 4300 // (2 * _G) + 1) for d in (-1, 0, 1)}
)


def with_digits(length: int):
    return st.integers(min_value=10 ** (length - 1) if length > 1 else 0,
                       max_value=10**length - 1)


def assert_isqrt(n: int):
    root = math.isqrt(n)
    assert isqrt(n) == (root, n - root * root)


class TestIsqrtInGroups:
    """isqrt steps g digit pairs at a time past its head; math.isqrt is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LENGTHS).flatmap(with_digits))
    @example(10000000884372814701777600000015)  # a head of 2g digits would overshoot q by two
    def test_every_head_length_against_math_isqrt(self, n):
        assert_isqrt(n)

    def test_the_extremes_of_every_head_length(self):
        for length in LENGTHS:
            for n in (10 ** (length - 1), 10**length - 1):
                assert_isqrt(n)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=2000))
    def test_radicands_scaled_by_an_even_power_of_ten(self, a, frac_digits):
        n = a * 10 ** (2 * frac_digits)
        assert_isqrt(n)
        assert sqrt_scaled(a, frac_digits).mantissa == math.isqrt(n)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=10**2100))
    @example(1)
    @example(10**_G - 1)
    def test_a_root_ending_in_a_full_group_of_nines(self, high):
        # the root's last group is B - 1, and r**2 + 2r is the largest radicand
        # with floor root r, so the last step's estimate is pushed hardest toward B
        root = high * 10**_G + 10**_G - 1
        for n in (root * root + 2 * root, root * root, root * root - 1):
            assert_isqrt(n)

    def test_a_radicand_at_the_str_limit_returns(self):
        n = 10**4300 - 1
        assert_isqrt(n)

    def test_a_radicand_past_the_str_limit_raises_value_error(self):
        with pytest.raises(ValueError, match="integer string conversion"):
            isqrt(10**4300)


class TestIsqrtNearest:
    @given(st.integers(min_value=0, max_value=10**60))
    def test_matches_half_up_oracle(self, n):
        # floor(sqrt(n) + 1/2) == (isqrt(4n) + 1) // 2, exactly
        assert isqrt_nearest(n) == (math.isqrt(4 * n) + 1) // 2

    @given(st.integers(min_value=0, max_value=10**60))
    def test_rounds_up_iff_remainder_exceeds_root(self, n):
        root, rem = isqrt(n)
        expected = root + 1 if rem > root else root
        assert isqrt_nearest(n) == expected

    def test_nearest_root_of_series_seed(self):
        assert isqrt_nearest(12 * 10**34) == 346410161513775459


class TestIsqrtTraced:
    def test_worked_example_digits(self):
        trace = isqrt_traced(987654321)
        assert trace.root == 31426
        assert trace.remainder == 60845
        assert trace.digits() == "31426"

    def test_worked_example_steps(self):
        steps = isqrt_traced(987654321).steps
        first = steps[0]
        assert (first.place_kind, first.working_value, first.digit_emitted) == ("odd", 9, 3)
        assert first.subtracted == 9
        second = steps[1]
        assert (second.place_kind, second.working_value) == ("even", 8)
        assert second.divisor_or_square == 6  # 2 * 3
        assert second.digit_emitted == 1
        assert second.subtracted == 6
        third = steps[2]
        assert (third.place_kind, third.working_value, third.subtracted) == ("odd", 27, 1)
        assert third.digit_emitted is None

    def test_one(self):
        trace = isqrt_traced(1)
        assert trace.digits() == "1"
        assert trace.remainder == 0
        assert len(trace.steps) == 1

    def test_two_digit_group(self):
        trace = isqrt_traced(99)
        assert trace.digits() == "9"
        assert trace.remainder == 18

    def test_zero(self):
        trace = isqrt_traced(0)
        assert trace.root == 0 and trace.remainder == 0
        assert trace.digits() == "0"

    @given(st.integers(min_value=0, max_value=10**40))
    def test_agrees_with_isqrt_and_digits_render_root(self, n):
        trace = isqrt_traced(n)
        root, rem = isqrt(n)
        assert (trace.root, trace.remainder) == (root, rem)
        assert trace.digits() == str(root)

    def test_small_range_matches_reference_steps(self):
        for n in range(3001):
            trace = isqrt_traced(n)
            assert trace == reference_trace(n)
            assert isqrt(n) == (trace.root, trace.remainder)

    @given(st.integers(min_value=0, max_value=10**200))
    def test_matches_reference_steps(self, n):
        trace = isqrt_traced(n)
        assert trace == reference_trace(n)
        assert isqrt(n) == (trace.root, trace.remainder)
        # tuple equality ignores the class: the CLI's --trace rows read SqrtStep's fields
        assert {type(step) for step in trace.steps} == {SqrtStep}
        assert [step._asdict() for step in trace.steps] == [
            step._asdict() for step in reference_trace(n).steps]

    @given(st.integers(min_value=1, max_value=10**40))
    def test_subtractions_reconcile(self, n):
        # every subtraction recorded fits its working value
        for step in isqrt_traced(n).steps:
            assert 0 <= step.subtracted <= step.working_value


class TestSqrtScaled:
    def test_zero_frac_digits(self):
        v = sqrt_scaled(12 * 10**34, 0)
        assert v.mantissa == 346410161513775458
        assert v.scale == 0

    def test_perfect_square(self):
        v = sqrt_scaled(4, 3)
        assert (v.mantissa, v.scale) == (2000, 3)

    def test_sqrt_two(self):
        v = sqrt_scaled(2, 5)
        assert v.mantissa == math.isqrt(2 * 10**10) == 141421

    def test_error_is_one_ulp(self):
        v = sqrt_scaled(2, 5)
        assert v.error_bound == Fraction(1, 10**v.scale)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sqrt_scaled(-2, 5)

    @given(
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=0, max_value=20),
    )
    def test_encloses_true_root(self, n, digits):
        v = sqrt_scaled(n, digits)
        val, ulp = v.as_fraction(), Fraction(1, 10**v.scale)
        assert val * val <= n < (val + ulp) * (val + ulp)
