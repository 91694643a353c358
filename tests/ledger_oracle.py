"""The root-12 ledger as a typed chain: a reference independent of series_engine's loop.

x_1 is the policy's root of 12 D^2 as a typed value, from math.isqrt: the rounded
integer root, the floor root as a Fraction, or the root to s places as a ScaledValue
within 1 ulp.  Then t_k = x_k / (2k - 1) and x_{k+1} = x_k / 3, each division in the
policy's own arithmetic: mode.div, Fraction division, or ScaledValue.div_int, which
adds up its own error bound.  Integer ledgers end after the first row with x = 0.
"""

import math
from fractions import Fraction
from itertools import count, islice

from paridhi.exact_arith import RoundingMode, ScaledValue
from paridhi.series_engine import EachOp, LedgerRow, RationalBackend


def zero(policy):
    """0 in the policy's arithmetic."""
    if isinstance(policy, EachOp):
        return 0
    if isinstance(policy.backend, RationalBackend):
        return Fraction(0)
    return ScaledValue(0, policy.backend.frac_digits)


def _root(diameter, policy):
    radicand = 12 * diameter * diameter
    floor = math.isqrt(radicand)
    if isinstance(policy, EachOp):
        up = policy.mode is RoundingMode.NEAREST_HALF_UP and radicand - floor * floor > floor
        return floor + up
    if isinstance(policy.backend, RationalBackend):
        return Fraction(floor)
    digits = policy.backend.frac_digits
    return ScaledValue(math.isqrt(radicand * 100**digits), digits, 1)


def _div(policy, x, d):
    if isinstance(policy, EachOp):
        return policy.mode.div(x, d)
    return x / d if isinstance(x, Fraction) else x.div_int(d)


def rows(diameter, policy):
    """The ledger's rows for k = 1, 2, ..., one division at a time."""
    x = _root(diameter, policy)
    for k in count(1):
        yield LedgerRow(k, x, 1 if k % 2 else -1, _div(policy, x, 2 * k - 1))
        if x == 0:  # never on ExactFinal: a ScaledValue is not 0, and a Fraction x never is
            return
        x = _div(policy, x, 3)


def ledger(diameter, policy, n):
    """(rows, O, E, O - E) of the first n rows, summed in the policy's arithmetic."""
    prefix = list(islice(rows(diameter, policy), n))
    odd = sum((row.t for row in prefix[::2]), zero(policy))
    even = sum((row.t for row in prefix[1::2]), zero(policy))
    return prefix, odd, even, odd - even
