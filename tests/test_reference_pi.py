import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paridhi.exact_arith import DomainError, RoundingMode
from paridhi.reference_pi import (
    PI_DIGIT_STRING,
    InsufficientPrecisionError,
    matching_decimal_places,
    true_circumference,
)

FLOOR = RoundingMode.FLOOR
NEAREST = RoundingMode.NEAREST_HALF_UP
D = 9 * 10**11
REF = Fraction(PI_DIGIT_STRING)


def rounded_ref(k):
    """The reference rounded half-up at k places, as an integer count of 10**-k."""
    return math.floor(REF * 10**k + Fraction(1, 2))


def oracle_places(candidate, diameter):
    """matching_decimal_places read off its docstring, over exact Fractions."""
    ratio = Fraction(candidate, diameter)
    if math.floor(ratio) != 3:
        return 0
    truncated = [k for k in range(21) if math.floor(ratio * 10**k) == math.floor(REF * 10**k)]
    rounded = [k for k in range(20) if ratio == Fraction(rounded_ref(k), 10**k)]
    return max(truncated + rounded)


@st.composite
def near_pi_d(draw):
    """Candidates within 10**e of pi*D, so every score from 0 to 20 turns up."""
    diameter = draw(st.integers(min_value=1, max_value=10**30))
    spread = 10 ** draw(st.integers(min_value=0, max_value=30))
    offset = draw(st.integers(min_value=-spread, max_value=spread))
    return max(math.floor(REF * diameter) + offset, 0), diameter


@st.composite
def rounded_hits(draw):
    """c/D on, or one 10**-k step beside, the reference rounded at k places."""
    k = draw(st.integers(min_value=0, max_value=19))
    scale = draw(st.integers(min_value=1, max_value=10**10))
    delta = draw(st.sampled_from((-1, 0, 1)))
    return scale * (rounded_ref(k) + delta), scale * 10**k


ANY_PAIR = st.tuples(
    st.integers(min_value=0, max_value=10**31), st.integers(min_value=1, max_value=10**30)
)


def test_digit_string():
    assert PI_DIGIT_STRING == "3.14159265358979323846"


class TestTrueCircumference:
    def test_madhava_circle(self):
        assert true_circumference(D, NEAREST) == 2827433388231
        assert true_circumference(D, FLOOR) == 2827433388230

    def test_parardha_circle(self):
        assert true_circumference(10**17, NEAREST) == 314159265358979324

    def test_too_large(self):
        with pytest.raises(InsufficientPrecisionError):
            true_circumference(10**18 + 1, NEAREST)

    def test_cap_is_inclusive(self):
        assert true_circumference(10**18, FLOOR) == 3141592653589793238
        assert true_circumference(10**18, NEAREST) == 3141592653589793238
        message = f"diameter {10**18 + 1} exceeds the reference precision cap {10**18}"
        with pytest.raises(InsufficientPrecisionError) as excinfo:
            true_circumference(10**18 + 1, FLOOR)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "mode, diameter", [(FLOOR, 934298973468971824), (NEAREST, 780637752552188865)]
    )
    def test_undecided_rounding_refused(self, mode, diameter):
        # the product's enclosure [ref*D, ref*D + D/10**20] straddles a rounding boundary
        low, high = REF * diameter, (REF + Fraction(1, 10**20)) * diameter
        shift = Fraction(1, 2) if mode is NEAREST else 0
        assert math.floor(low + shift) != math.floor(high + shift)
        with pytest.raises(InsufficientPrecisionError) as excinfo:
            true_circumference(diameter, mode)
        assert str(excinfo.value) == "reference digits cannot decide the rounding for this diameter"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**18), st.sampled_from((FLOOR, NEAREST)))
    @example(934298973468971824, FLOOR)
    @example(780637752552188865, NEAREST)
    @example(10**18, NEAREST)
    def test_agrees_with_the_enclosure_oracle(self, diameter, mode):
        # the true pi*D lies in [ref*D, ref*D + D/10**20]; both ends must round alike
        shift = Fraction(1, 2) if mode is NEAREST else 0
        low = math.floor(REF * diameter + shift)
        high = math.floor((REF + Fraction(1, 10**20)) * diameter + shift)
        if low == high:
            assert true_circumference(diameter, mode) == low
        else:
            with pytest.raises(InsufficientPrecisionError):
                true_circumference(diameter, mode)

    def test_nonpositive(self):
        with pytest.raises(DomainError):
            true_circumference(0, FLOOR)

    def test_floor_nearest_sandwich(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(500):
            d = rng.randrange(1, 10**18)
            try:
                lo = true_circumference(d, FLOOR)
                hi = true_circumference(d, NEAREST)
            except InsufficientPrecisionError:
                continue  # guard legitimately refuses borderline diameters
            assert lo <= hi <= lo + 1
            checked += 1
        assert checked > 400


class TestMatchingDecimalPlaces:
    def test_madhava_value(self):
        assert matching_decimal_places(2827433388233, D) == 10

    def test_varman_value(self):
        # exactly the reference rounded at 17 places, so all 17 count
        assert matching_decimal_places(314159265358979324, 10**17) == 17

    def test_floor_value_still_17(self):
        # ...323 matches the truncated reference digit-for-digit through 17
        assert matching_decimal_places(314159265358979323, 10**17) == 17

    def test_off_by_one_up_scores_16(self):
        assert matching_decimal_places(314159265358979325, 10**17) == 16

    @pytest.mark.parametrize("k", range(20))
    def test_reference_cut_at_k_places(self, k):
        # no fractional digit of the reference is 0, so a truncation at k agrees at no k + 1;
        # rounded at 11 places, 3.14159265359 is also the reference rounded at 12
        assert matching_decimal_places(math.floor(REF * 10**k), 10**k) == k
        assert matching_decimal_places(rounded_ref(k), 10**k) == (12 if k == 11 else k)

    def test_integer_part_only(self):
        assert matching_decimal_places(3, 1) == 0

    def test_wrong_integer_part(self):
        assert matching_decimal_places(4, 1) == 0
        assert matching_decimal_places(0, 1) == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            matching_decimal_places(-1, 1)

    def test_monotone_moving_away_from_exact_value(self):
        # walking away from the exact pi*D on either side never raises the
        # score (anchoring at the rounded integer instead admits one-unit
        # counterexamples whenever it falls on the far side of a digit
        # boundary from pi*D)
        for d in (10**17, 9 * 10**11):
            product = REF * d
            above = -(-product.numerator // product.denominator)  # ceil
            below = product.numerator // product.denominator
            for anchor, direction in ((above, 1), (below, -1)):
                prev = 21
                for delta in (0, 1, 3, 10, 100, 10**4):
                    score = matching_decimal_places(max(anchor + direction * delta, 0), d)
                    assert score <= prev
                    prev = score

    def test_monotone_random_diameters(self):
        rng = random.Random(11)
        for _ in range(100):
            d = rng.randrange(10**6, 10**15)
            product = REF * d
            above = -(-product.numerator // product.denominator)
            below = product.numerator // product.denominator
            for anchor, direction in ((above, 1), (below, -1)):
                prev = 21
                for delta in (0, 1, 3, 10, 100, 10**4):
                    score = matching_decimal_places(max(anchor + direction * delta, 0), d)
                    assert score <= prev
                    prev = score

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(near_pi_d(), rounded_hits(), ANY_PAIR))
    @example((0, 1))
    @example((314159265358979324, 10**17))  # the reference rounded at 17 places
    @example((31415926535897932385, 10**19))  # rounded at 19; truncation scores 18
    @example((314159265358979323846, 10**20))  # all 20 places, truncated
    @example((3 * 10**30, 10**30))
    def test_agrees_with_the_docstring_oracle(self, pair):
        assert matching_decimal_places(*pair) == oracle_places(*pair)
