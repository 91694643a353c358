"""Integer square roots by the digit-pair (long-division) method.

The algorithm works on the decimal digits of the radicand, alternating
between "even places", where the working figure is divided by twice the
root accumulated so far, and "odd places", where the square of the newest
root digit is subtracted.  Each quotient digit is the largest one whose
odd-place subtraction stays non-negative.

One step generator, ``_steps``, runs the method pair-at-a-time.  ``isqrt``
keeps only its last step; ``isqrt_traced`` records every place-by-place
step so the computation can be rendered as a worksheet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .exact_arith import DomainError, ScaledValue


class SqrtStep(NamedTuple):
    """One place of the worksheet.

    For an even place the digit-bearing division happens:
    divisor_or_square is 2*root_so_far and digit_emitted is the quotient
    digit.  For an odd place the square of the previous digit is
    subtracted: divisor_or_square is that square and no digit is emitted.
    The leading group counts as an odd place and emits the first digit.
    """

    place_kind: str  # "odd" | "even"
    working_value: int
    divisor_or_square: int
    digit_emitted: int | None
    subtracted: int


@dataclass(frozen=True)
class SqrtTrace:
    input: int
    steps: tuple[SqrtStep, ...]
    root: int
    remainder: int

    def digits(self) -> str:
        """Concatenation of emitted digits; equals the decimal root."""
        return "".join(
            str(s.digit_emitted) for s in self.steps if s.digit_emitted is not None
        )


def _steps(n: int):
    """Yield (w, root, q) for each decimal digit pair of n, left to right.

    w is 100 * (remainder so far) + the pair, root is the root so far and q
    is the largest digit with q * (20 * root + q) <= w.
    """
    if n < 0:
        raise DomainError("square root of a negative integer")
    digits = str(n).encode()
    if len(digits) % 2:
        digits = b"0" + digits
    rem = root = 0
    for i in range(0, len(digits), 2):
        w = 100 * rem + 10 * digits[i] + digits[i + 1] - 528  # 528 = 11 * ord("0")
        divisor = 20 * root
        # A digit q >= 1 with q * (divisor + q) <= w has q <= w // (divisor + 1).
        q = min(w // (divisor + 1), 9)
        while q * (divisor + q) > w:
            q -= 1
        yield w, root, q
        rem = w - q * (divisor + q)
        root = 10 * root + q


def isqrt(n: int) -> tuple[int, int]:
    """(root, remainder) with root = floor(sqrt(n)) and remainder = n - root**2.

    Implemented by the digit-pair schoolbook method, processing decimal
    digit pairs left to right.
    """
    for w, root, q in _steps(n):
        pass
    return 10 * root + q, w - q * (20 * root + q)


def isqrt_nearest(n: int) -> int:
    """floor(sqrt(n) + 1/2), via the remainder test: round up iff rem > root."""
    root, rem = isqrt(n)
    return root + 1 if rem > root else root


def isqrt_traced(n: int) -> SqrtTrace:
    """Digit-pair square root with a full place-by-place step trace."""
    steps = []
    for w, root, q in _steps(n):
        if not steps:  # the leading pair
            steps.append(SqrtStep("odd", w, q * q, q, q * q))
            continue
        divisor = 2 * root
        steps.append(SqrtStep("even", w // 10, divisor, q, q * divisor))
        steps.append(SqrtStep("odd", w - 10 * q * divisor, q * q, None, q * q))
    return SqrtTrace(n, tuple(steps), 10 * root + q, w - q * (20 * root + q))


def sqrt_scaled(n: int, frac_digits: int) -> ScaledValue:
    """sqrt(n) truncated to frac_digits decimal places, as a ScaledValue.

    The mantissa is the floor root of n * 10**(2*frac_digits), so the
    truncation error is below one unit in the last place.
    """
    if n < 0:
        raise DomainError("square root of a negative integer")
    if frac_digits < 0:
        raise DomainError("frac_digits must be non-negative")
    root, _ = isqrt(n * 10 ** (2 * frac_digits))
    return ScaledValue(root, frac_digits, 1)
