"""Integer square roots by the digit-pair (long-division) method.

The algorithm works on the decimal digits of the radicand, alternating
between "even places", where the working figure is divided by twice the
root accumulated so far, and "odd places", where the square of the newest
root digit is subtracted.  Each quotient digit is capped at 9 and
decremented until the following odd-place subtraction stays non-negative.

``isqrt`` runs the method pair-at-a-time; ``isqrt_traced`` additionally
records every place-by-place step so the computation can be rendered as a
worksheet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import DomainError, ScaledValue


@dataclass(frozen=True)
class SqrtStep:
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


def _leading_group(n: int) -> tuple[int, str]:
    s = str(n)
    split = 1 if len(s) % 2 else 2
    return int(s[:split]), s[split:]


def isqrt(n: int) -> tuple[int, int]:
    """(root, remainder) with root = floor(sqrt(n)) and remainder = n - root**2.

    Implemented by the digit-pair schoolbook method, processing decimal
    digit pairs left to right.
    """
    if n < 0:
        raise DomainError("square root of a negative integer")
    if n == 0:
        return 0, 0
    group, rest = _leading_group(n)
    root = 1
    while (root + 1) * (root + 1) <= group:
        root += 1
    rem = group - root * root
    for i in range(0, len(rest), 2):
        w = rem * 100 + int(rest[i : i + 2])
        q = min(w // (20 * root), 9)
        while q * (20 * root + q) > w:
            q -= 1
        rem = w - q * (20 * root + q)
        root = root * 10 + q
    return root, rem


def isqrt_nearest(n: int) -> int:
    """floor(sqrt(n) + 1/2), via the remainder test: round up iff rem > root."""
    root, rem = isqrt(n)
    return root + 1 if rem > root else root


def isqrt_traced(n: int) -> SqrtTrace:
    """Digit-pair square root with a full place-by-place step trace."""
    if n < 0:
        raise DomainError("square root of a negative integer")
    if n == 0:
        step = SqrtStep("odd", 0, 0, 0, 0)
        return SqrtTrace(0, (step,), 0, 0)
    group, rest = _leading_group(n)
    digit = 1
    while (digit + 1) * (digit + 1) <= group:
        digit += 1
    steps = [SqrtStep("odd", group, digit * digit, digit, digit * digit)]
    rem = group - digit * digit
    root = digit
    for i in range(0, len(rest), 2):
        d_even, d_odd = int(rest[i]), int(rest[i + 1])
        w_even = rem * 10 + d_even
        divisor = 2 * root
        q = min(w_even // divisor, 9)
        # Cap and decrement until the odd-place square subtraction fits.
        while (w_even - q * divisor) * 10 + d_odd < q * q:
            q -= 1
        steps.append(SqrtStep("even", w_even, divisor, q, q * divisor))
        w_odd = (w_even - q * divisor) * 10 + d_odd
        steps.append(SqrtStep("odd", w_odd, q * q, None, q * q))
        rem = w_odd - q * q
        root = root * 10 + q
    return SqrtTrace(n, tuple(steps), root, rem)


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
