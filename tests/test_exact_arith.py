import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paridhi.exact_arith import (
    DomainError,
    RoundingMode,
    RoundingUndecidableError,
    ScaledValue,
    decimal_string,
    digits_to_int,
    floor_div,
    int_to_digits,
    iroot,
    nearest_div,
    ratio_round,
)

FLOOR = RoundingMode.FLOOR
NEAREST = RoundingMode.NEAREST_HALF_UP

ints = st.integers(min_value=-(10**40), max_value=10**40)
positives = st.integers(min_value=1, max_value=10**40)


class TestFloorDiv:
    def test_ledger_row(self):
        assert floor_div(115470053837925152, 3) == 38490017945975050

    def test_zero_dividend(self):
        assert floor_div(0, 7) == 0

    def test_negative_floors_down(self):
        # q*d <= n < (q+1)*d: -4*2 = -8 <= -7 < -6
        assert floor_div(-7, 2) == -4

    @pytest.mark.parametrize("d", [0, -1, -10**20])
    def test_nonpositive_divisor(self, d):
        with pytest.raises(DomainError):
            floor_div(5, d)

    @given(ints, positives)
    def test_contract(self, n, d):
        q = floor_div(n, d)
        assert q * d <= n < (q + 1) * d


class TestNearestDiv:
    def test_tie_rounds_up(self):
        assert nearest_div(1, 2) == 1

    def test_simple(self):
        assert nearest_div(2, 3) == 1

    def test_large(self):
        # brute-force oracle: floor(n/d + 1/2) over exact rationals
        n, d = 7698003589195011, 3
        oracle = math.floor(Fraction(n, d) + Fraction(1, 2))
        assert nearest_div(n, d) == oracle == 2566001196398337

    def test_nonpositive_divisor(self):
        with pytest.raises(DomainError):
            nearest_div(5, 0)

    @given(ints, positives)
    def test_distance_at_most_half(self, n, d):
        q = nearest_div(n, d)
        assert abs(2 * (n - q * d)) <= d

    @given(ints, positives)
    def test_tie_goes_to_larger(self, n, d):
        q = nearest_div(n, d)
        if 2 * (n % d) == d:
            assert q == n // d + 1

    @given(ints, positives)
    def test_matches_rational_oracle(self, n, d):
        assert nearest_div(n, d) == math.floor(Fraction(n, d) + Fraction(1, 2))


class TestSumDiv:
    """mode.sum_div sums mode.div over its divisors; a range takes its own C-level pass."""

    @given(
        st.sampled_from([FLOOR, NEAREST]),
        ints,
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-3, max_value=60),
        st.integers(min_value=0, max_value=7),
    )
    def test_a_range_sums_like_its_divisors(self, mode, n, start, step, count, ragged):
        r = range(start, start + count * step + ragged % step, step)  # empty when count <= 0
        want = sum(mode.div(n, d) for d in r)
        assert mode.sum_div(n, r) == want
        assert mode.sum_div(n, iter(r)) == want


class TestLevel:
    @given(st.sampled_from([FLOOR, NEAREST]), st.integers(min_value=0, max_value=10**40),
           st.integers(min_value=1, max_value=10**6))
    @example(NEAREST, 5, 2)  # 5/2 rounds half-up to 3, 5/3 to 2: the level of 2 is 3
    def test_level_is_the_largest_divisor_reaching_v(self, mode, n, v):
        d = mode.level(n, v)
        assert d == 0 or mode.div(n, d) >= v
        assert mode.div(n, d + 1) < v


class TestIroot:
    @given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=10**400),
           st.integers(min_value=0, max_value=10**6))
    @example(3, 26, 0)
    @example(5, 2**5 - 1, 3)
    def test_iroot_brackets_x(self, p, x, above):
        r = iroot(x, p)
        assert r**p <= x < (r + 1) ** p
        if x >= 2:  # Newton from any integer at least the root lands on it too
            assert iroot(x, p, r + above) == r


class TestRatioCombine:
    def test_normalized_on_construction(self):
        assert Fraction(4, 6) == Fraction(2, 3)

    def test_38_term_alternating_sum(self):
        # independent rational summation of X * sum(+-1/((2k-1) 3^(k-1)))
        x = 346410161513775458
        total = Fraction(0)
        for k in range(1, 39):
            term = Fraction(x, (2 * k - 1) * 3 ** (k - 1))
            total = total + term if k % 2 == 1 else total - term
        assert ratio_round(total, FLOOR) == 314159265358979323


class TestRatioRound:
    def test_tie_up(self):
        assert ratio_round(Fraction(7, 2), NEAREST) == 4

    def test_floor_negative(self):
        assert ratio_round(Fraction(-1, 2), FLOOR) == -1

    def test_near_unit_boundary(self):
        r = Fraction(27, 32) + 314159265358979323
        assert ratio_round(r, NEAREST) == 314159265358979324

    @given(st.fractions())
    def test_floor_nearest_sandwich(self, r):
        lo = ratio_round(r, FLOOR)
        hi = ratio_round(r, NEAREST)
        assert lo <= hi <= lo + 1


class TestDecimalString:
    def test_repeating_92(self):
        assert decimal_string(Fraction(2827433388233, 900000000000), 15) == "3.141592653592222"

    def test_integer_input(self):
        assert decimal_string(Fraction(1), 3) == "1.000"

    def test_repeating_88(self):
        assert decimal_string(Fraction(2827433388230, 900000000000), 15) == "3.141592653588888"

    def test_zero_places(self):
        assert decimal_string(Fraction(7, 2), 0) == "3"

    def test_negative(self):
        assert decimal_string(Fraction(-7, 2), 2) == "-3.50"

    @given(st.fractions(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=60))
    def test_truncation_round_trip(self, r, places):
        text = decimal_string(r, places)
        parsed = Fraction(text)
        assert 0 <= r - parsed < Fraction(1, 10**places if places else 1)


class TestDigitStrings:
    """int <-> decimal string at any length, in chunks below every int/str limit."""

    @pytest.mark.parametrize("length", [1, 639, 640, 641, 1280, 1281, 4300, 4301, 10_000])
    def test_round_trip(self, length):
        rng = random.Random(length)
        text = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=length - 1))
        n = digits_to_int(text)
        assert int_to_digits(n) == text
        assert n // 10 ** (length - min(length, 600)) == int(text[:600])
        assert n % 10**600 == int(text[-600:])

    def test_leading_zeros_and_zero(self):
        assert digits_to_int("0" * 5000) == 0
        assert digits_to_int("0" * 4999 + "7") == 7
        assert int_to_digits(0) == "0"
        assert int_to_digits(10**5000) == "1" + "0" * 5000


class TestScaledValue:
    def test_exact_ratio_has_no_error(self):
        v = ScaledValue.from_ratio(7200000000000, 9, 40)
        assert v.error_bound == 0
        assert v.as_fraction() == Fraction(7200000000000, 9)

    def test_inexact_ratio_one_ulp(self):
        v = ScaledValue.from_ratio(1, 3, 5)
        assert v.mantissa == 33333
        assert v.error_bound == Fraction(1, 10**5)

    def test_error_accumulates_on_add(self):
        a = ScaledValue.from_ratio(1, 3, 5)
        b = ScaledValue.from_ratio(1, 7, 5)
        assert (a + b).error_bound >= a.error_bound + b.error_bound

    def test_div_int_propagates(self):
        v = ScaledValue.from_ratio(1, 3, 5).div_int(7)  # 33333/7 leaves a remainder
        assert v.error_bound == Fraction(1, 7 * 10**5) + Fraction(1, 10**5)

    def test_div_int_exact_adds_nothing(self):
        v = ScaledValue.from_ratio(1, 3, 5).div_int(3)  # 33333/3 is exact
        assert v.error_bound == Fraction(1, 3 * 10**5)

    def test_round_checked_decides(self):
        v = ScaledValue.from_ratio(7, 2, 10)
        assert v.round_checked(NEAREST) == 4
        assert v.round_checked(FLOOR) == 3

    def test_round_checked_raises_on_straddle(self):
        v = ScaledValue(5, 1, Fraction(1, 10))  # 0.5 +- 0.1 straddles the tie
        with pytest.raises(RoundingUndecidableError):
            v.round_checked(NEAREST)

    def test_alignment_is_exact(self):
        a = ScaledValue(100, 2)
        b = ScaledValue(200000, 5)
        assert (a + b).as_fraction() == 3

    def test_negative_scale_rejected(self):
        with pytest.raises(DomainError):
            ScaledValue(1, -1)

    @given(ints, st.integers(min_value=0, max_value=50),
           st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
    @example(-7, 1, 0)  # -0.7 truncates toward zero to "-0"
    @example(-35, 1, 3)  # more places than the scale: "-3.500"
    @example(-1, 40, None)
    @example(10**45 + 1, 40, 6)
    def test_decimal_is_the_fraction_expansion(self, m, scale, places):
        text = ScaledValue(m, scale).decimal(places)
        places = scale if places is None else places
        assert text == decimal_string(Fraction(m, 10**scale), places)
        # and, independently of the shared integer core, a truncation toward zero
        sign, digits = text[:1] == "-", text.lstrip("-")
        assert sign == (m < 0) and len(digits.partition(".")[2]) == places
        assert 0 <= abs(Fraction(m, 10**scale)) - Fraction(digits) < Fraction(1, 10**places)

    def test_decimal_rejects_negative_places(self):
        with pytest.raises(DomainError, match="places must be non-negative"):
            ScaledValue(1, 2).decimal(-1)


scales = st.integers(min_value=0, max_value=50)
leaves = st.tuples(
    st.sampled_from(["int", "ratio"]),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=1, max_value=10**6),
    scales,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), leaves),
        st.tuples(st.just("div"), st.integers(min_value=1, max_value=1000)),
    ),
    max_size=12,
)


def _leaf(kind, n, d, scale):
    """A ScaledValue leaf, its error bound as a Fraction, and its exact value."""
    if kind == "int":
        return ScaledValue(n * 10**scale, scale), Fraction(0), Fraction(n)
    bound = Fraction(1 if n * 10**scale % d else 0, 10**scale)
    return ScaledValue.from_ratio(n, d, scale), bound, Fraction(n, d)


class TestScaledErrorAccounting:
    """Counting the error in ulps matches Fraction error bounds step by step."""

    @given(leaves, steps)
    def test_chain_matches_fraction_bounds(self, first, chain):
        v, bound, exact = _leaf(*first)
        divided = False
        for op, arg in chain:
            if op == "div":
                bound = bound / arg + Fraction(1 if v.mantissa % arg else 0, 10**v.scale)
                v, exact, divided = v.div_int(arg), exact / arg, True
            else:
                w, w_bound, w_exact = _leaf(*arg)
                v = v + w if op == "+" else v - w
                bound += w_bound
                exact = exact + w_exact if op == "+" else exact - w_exact
            assert v.error_bound == bound
            assert v.as_fraction() - v.error_bound <= exact <= v.as_fraction() + v.error_bound
            if not divided:
                assert type(v.error_ulps) is int

    @staticmethod
    def _check_round(mantissa, scale, err):
        v = ScaledValue(mantissa, scale, err)
        bound = Fraction(err) / 10**scale
        for mode in (FLOOR, NEAREST):
            lo = ratio_round(v.as_fraction() - bound, mode)
            hi = ratio_round(v.as_fraction() + bound, mode)
            if lo == hi:
                assert v.round_checked(mode) == lo
            else:
                with pytest.raises(RoundingUndecidableError):
                    v.round_checked(mode)

    @given(
        st.integers(min_value=-(10**30), max_value=10**30),
        scales,
        st.one_of(
            st.integers(min_value=0, max_value=10**6),
            st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
        ),
    )
    def test_round_checked_matches_fraction_rounding(self, mantissa, scale, err):
        self._check_round(mantissa, scale, err)

    @given(
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([-1, 1]),
    )
    def test_round_checked_at_exact_boundaries(self, twice_boundary, scale, err, side):
        # One end of the enclosure lies exactly on an integer or a tie.
        mantissa = twice_boundary * 10**scale // 2 + side * err
        self._check_round(mantissa, scale, err)
