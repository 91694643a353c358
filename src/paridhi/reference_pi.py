"""Ground-truth circumferences from a fixed 20-place reference value of pi.

The reference is the stored digit string, not a computed constant; a guard
check verifies on every use that its truncation error cannot change the
requested rounding.
"""

from __future__ import annotations

from os.path import commonprefix

from .exact_arith import DomainError, RoundingMode, nearest_div, round_enclosure

PI_DIGIT_STRING = "3.14159265358979323846"
_PI_DIGITS = PI_DIGIT_STRING.replace(".", "")
_PI_INT = int(_PI_DIGITS)  # pi * 10**20, truncated
_PLACES = 20

MAX_DIAMETER = 10**18


class InsufficientPrecisionError(DomainError):
    """The stored reference digits cannot decide the requested result."""


def true_circumference(diameter: int, mode: RoundingMode) -> int:
    """pi * diameter rounded per mode, using the 20-place reference.

    The true product lies in [ref*D, ref*D + D/10**20], or (2P + 1) D ± D in units of
    1/(2*10**20) for P = ref*10**20; both ends must round alike, else the digits cannot decide.
    """
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    if diameter > MAX_DIAMETER:
        raise InsufficientPrecisionError(
            f"diameter {diameter} exceeds the reference precision cap {MAX_DIAMETER}"
        )
    rounded = round_enclosure(2 * _PI_INT * diameter + diameter, diameter, 2 * 10**_PLACES, mode)
    if rounded is None:
        raise InsufficientPrecisionError(
            "reference digits cannot decide the rounding for this diameter"
        )
    return rounded


def matching_decimal_places(candidate: int, diameter: int) -> int:
    """How many decimal places of candidate/diameter agree with the reference.

    The score is the largest k <= 20 such that either both expansions
    truncate to the same k fractional digits, or candidate/diameter equals
    the reference rounded at exactly k digits.  A candidate whose integer
    part is not 3 scores 0.
    """
    if candidate < 0:
        raise DomainError("candidate must be non-negative")
    if diameter <= 0:
        raise DomainError("diameter must be positive")
    if candidate // diameter != 3:
        return 0
    # floor(c * 10**k / D) is the first k + 1 of the 21 digits of floor(c * 10**20 / D)
    best = len(commonprefix((str(candidate * 10**_PLACES // diameter), _PI_DIGITS))) - 1
    for k in range(_PLACES - 1, best, -1):
        if candidate * 10**k == nearest_div(_PI_INT, 10 ** (_PLACES - k)) * diameter:
            return k
    return best
