"""Each input guard raises its own exception type with its own message."""

import re
from fractions import Fraction

import pytest

from paridhi.aryabhata_sqrt import sqrt_scaled
from paridhi.exact_arith import DomainError, ScaledValue, decimal_string
from paridhi.madhava_formulas import (
    F3,
    CorrectionId,
    correction_fraction,
    fixed_point,
    scan_range,
    vanish_onset,
)
from paridhi.numerals import DecodeError, decode_bhutasamkhya
from paridhi.reference_pi import matching_decimal_places
from paridhi.series_engine import FLOOR_EACH_OP, RationalBackend, ScaledBackend, build_ledger


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: sqrt_scaled(2, -1), DomainError, "frac_digits must be non-negative"),
        (lambda: decimal_string(Fraction(1, 3), -1), DomainError, "places must be non-negative"),
        (lambda: ScaledValue(1, 0, -1), DomainError, "error bound must be non-negative"),
        (lambda: ScaledValue.from_ratio(1, 0, 2), DomainError, "denominator must be positive"),
        (lambda: ScaledValue(1, 0).div_int(0), DomainError, "divisor must be positive"),
        (lambda: correction_fraction(CorrectionId.C1, 0), DomainError,
         "correction index must be positive"),
        (lambda: scan_range(F3(), 1000, FLOOR_EACH_OP, 0, 2), DomainError,
         "term count must be positive"),
        (lambda: vanish_onset(F3(), 0, FLOOR_EACH_OP), DomainError, "diameter must be positive"),
        (lambda: fixed_point(F3(), 1000, FLOOR_EACH_OP, window=0), DomainError,
         "window must be positive"),
        (lambda: fixed_point(F3(), 1000, FLOOR_EACH_OP, max_terms=0), DomainError,
         "max_terms must be positive"),
        (lambda: decode_bhutasamkhya(["nikharva", "nikharva"]), DecodeError,
         "magnitude word 'nikharva' cannot carry digits"),
        (lambda: matching_decimal_places(3, 0), DomainError, "diameter must be positive"),
        (lambda: build_ledger(100, FLOOR_EACH_OP, 0), DomainError, "max_terms must be positive"),
    ],
)
def test_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert raised.type is error


def test_backend_names():
    assert (str(RationalBackend()), str(ScaledBackend(7))) == ("rational", "scaled(7)")
