import random
from fractions import Fraction

import pytest

from paridhi.exact_arith import DomainError, RoundingMode, ratio_round
from paridhi.reference_pi import (
    PI,
    PI_DIGIT_STRING,
    InsufficientPrecisionError,
    PiReference,
    matching_decimal_places,
    true_circumference,
)

FLOOR = RoundingMode.FLOOR
NEAREST = RoundingMode.NEAREST_HALF_UP
D = 9 * 10**11


class TestPiReference:
    def test_digit_string(self):
        assert PI.digits == "3.14159265358979323846"

    def test_digits_cannot_be_replaced(self):
        # every method reads the stored 20-place value, so another digit
        # string would be silently ignored
        with pytest.raises(TypeError):
            PiReference("3.0")

    def test_full_ratio(self):
        assert PI.as_ratio(20) == Fraction(314159265358979323846, 10**20)

    def test_truncations(self):
        assert PI.as_ratio(0) == 3
        assert PI.as_ratio(2) == Fraction(314, 100)
        assert PI.truncated_int(10) == 31415926535

    def test_rounding_at_tenth_place(self):
        # the 11th digit is 8, so rounding at 10 bumps the last digit
        assert PI.rounded_int(10) == 31415926536

    def test_places_out_of_range(self):
        with pytest.raises(DomainError):
            PI.as_ratio(21)

    @pytest.mark.parametrize("places", range(20))
    def test_truncated_and_rounded_match_ratio_round(self, places):
        scaled = Fraction(int(PI_DIGIT_STRING.replace(".", "")), 10 ** (20 - places))
        assert PI.truncated_int(places) == ratio_round(scaled, FLOOR)
        assert PI.rounded_int(places) == ratio_round(scaled, NEAREST)

    def test_integer_places_out_of_range(self):
        assert PI.truncated_int(20) == 314159265358979323846
        with pytest.raises(DomainError):
            PI.truncated_int(21)
        with pytest.raises(DomainError):
            PI.rounded_int(20)


class TestTrueCircumference:
    def test_madhava_circle(self):
        assert true_circumference(D, NEAREST) == 2827433388231
        assert true_circumference(D, FLOOR) == 2827433388230

    def test_parardha_circle(self):
        assert true_circumference(10**17, NEAREST) == 314159265358979324

    def test_too_large(self):
        with pytest.raises(InsufficientPrecisionError):
            true_circumference(10**18 + 1, NEAREST)

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
            product = PI.as_ratio(20) * d
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
            product = PI.as_ratio(20) * d
            above = -(-product.numerator // product.denominator)
            below = product.numerator // product.denominator
            for anchor, direction in ((above, 1), (below, -1)):
                prev = 21
                for delta in (0, 1, 3, 10, 100, 10**4):
                    score = matching_decimal_places(max(anchor + direction * delta, 0), d)
                    assert score <= prev
                    prev = score
