"""Integer square roots by the digit-pair (long-division) method.

The algorithm works on the decimal digits of the radicand, alternating
between "even places", where the working figure is divided by twice the
root accumulated so far, and "odd places", where the square of the newest
root digit is subtracted.  Each quotient digit is the largest one whose
odd-place subtraction stays non-negative.

One step generator, ``_steps``, runs the method pair-at-a-time.
``isqrt_traced`` records each of its steps, one pair per step, so the
computation can be rendered as a worksheet; ``isqrt`` takes it over a
head and then steps g = 8 pairs at a time (see ``isqrt``).
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


_G = 8  # digit pairs per long-division step of isqrt past its head
_B = 10**_G


def _digits(n: int) -> bytes:
    """The decimal digits of n, with a leading zero if their count is odd."""
    if n < 0:
        raise DomainError("square root of a negative integer")
    digits = str(n).encode()
    return b"0" + digits if len(digits) % 2 else digits


def _steps(digits: bytes, stop: int):
    """Yield (w, root, q) for each decimal digit pair of digits[:stop], left to right.

    w is 100 * (remainder so far) + the pair, root is the root so far and q
    is the largest digit with q * (20 * root + q) <= w.
    """
    rem = root = 0
    for i in range(0, stop, 2):
        w = 100 * rem + 10 * digits[i] + digits[i + 1] - 528  # 528 = 11 * ord("0")
        divisor = 20 * root
        # A digit q >= 1 with q * (divisor + q) <= w has q <= w // (divisor + 1).
        q = w // (divisor + 1)
        if q > 9:
            q = 9
        while q * (divisor + q) > w:
            q -= 1
        yield w, root, q
        rem = w - q * (divisor + q)
        root = 10 * root + q


def isqrt(n: int) -> tuple[int, int]:
    """(root, remainder) with root = floor(sqrt(n)) and remainder = n - root**2.

    ``_steps`` takes the head pair by pair: all of a radicand of at most 4g
    digits, else the first 2g+1 + (len - 2g - 1) mod 2g, so root >= B = 10**g
    after it.  Each later group of 2g digits is one step in radix B:
    w = B**2 * rem + group, and q is the largest with q * (2*B*root + q) <= w.
    The estimate w // (2*B*root + 1) exceeds q by at most one: rem <= 2*root
    gives w < B * (2*B*root + B), so q < B, and w < (q + 1) * (2*B*root + q + 1)
    gives w / (2*B*root + 1) < q + 1 + q*(q + 1) / (2*B*root + 1) < q + 1.5,
    as root >= B.  (A head of 2g digits only gives root >= 0.31*B, and there
    the estimate can exceed q by two.)
    """
    digits = _digits(n)
    i = len(digits)  # the head's length, then where the next group starts
    if i > 4 * _G:  # counted with _digits' leading zero, which keeps the split
        i = 2 * _G + 2 + (i - 2 * _G - 2) % (2 * _G)
    for w, root, q in _steps(digits, i):
        pass
    root, rem = 10 * root + q, w - q * (20 * root + q)
    while i < len(digits):
        w = _B * _B * rem + int(digits[i : i + 2 * _G])
        divisor = 2 * _B * root
        q = w // (divisor + 1)
        while q * (divisor + q) > w:
            q -= 1
        rem = w - q * (divisor + q)
        root = _B * root + q
        i += 2 * _G
    return root, rem


def isqrt_nearest(n: int) -> int:
    """floor(sqrt(n) + 1/2), via the remainder test: round up iff rem > root."""
    root, rem = isqrt(n)
    return root + 1 if rem > root else root


def isqrt_traced(n: int) -> SqrtTrace:
    """Digit-pair square root with a full place-by-place step trace."""
    step = tuple.__new__  # SqrtStep's fields in order, without its Python-level __new__
    digits = _digits(n)
    pairs = _steps(digits, len(digits))
    w, root, q = next(pairs)  # the leading pair
    steps = [step(SqrtStep, ("odd", w, q * q, q, q * q))]
    for w, root, q in pairs:
        divisor, qq = 2 * root, q * q
        steps += (step(SqrtStep, ("even", w // 10, divisor, q, q * divisor)),
                  step(SqrtStep, ("odd", w - 10 * q * divisor, qq, None, qq)))
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
