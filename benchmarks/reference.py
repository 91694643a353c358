"""Expected outputs for the benchmark, computed without calling paridhi.

Three sources, in order of preference:

* the golden tables under ``tests/golden/`` (read-only, compared byte for
  byte where the benchmark reproduces them);
* figures the paper and the acceptance suite pin (constants below);
* small independent reference computations: integer series sums, the
  root-12 ledger, ``math.isqrt``, the katapayadi consonant table and the
  bhutasamkhya lexicon file read directly.

Nothing here imports paridhi, so a defect in the library cannot hide in
its own expected values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

D12 = 9 * 10**11
D17 = 10**17

PHRASE = "bha drā mbu dhi si ddha ja nma ga ṇi ta śra dhā sma ya d bhū pa gīḥ".split()
WORDS = "vibudha netra gaja ahi hutāśana tri guna veda bha vārana bāhavāḥ".split()
PHRASE_VALUE = 314159265358979324
WORDS_VALUE = 2827433388233

# F2+C3 and F3 figures pinned by the paper (source arXiv 2405.11144).
MILLION_FLOOR = 2827433387851
MILLION_NEAREST = 2827433388364
FINAL_NEAREST_D12 = 2827433388231
F3_FIXED = {"floor": (2827433388211, 7663), "nearest": (2827433388236, 9655),
            "final-nearest": (2827433388231, 8949)}
F4_STABLE_FROM = 235  # final-nearest scaled(40) F4 equals FINAL_NEAREST_D12 from here on
# D = 10**17 ledger circumferences: integer policies run to natural
# termination, ExactFinal policies use 38 rows.
VARMAN_C = {"floor": 314159265358979324, "nearest": 314159265358979325,
            "final-floor": 314159265358979323, "final-nearest": 314159265358979324}

PI_DIGITS = "314159265358979323846"  # pi to 20 places, digits only

GOLDEN_FILES = {
    "varman-ledger": "varman_ledger.txt",
    "table2": "table2.txt",
    "table3": "table3.txt",
    "table-f4": "table_f4.txt",
    "f3-fixed-points": "f3_fixed_points.txt",
}
# (formula, correction, first n, last n, final rounding) of each scan table.
SCAN_TABLES = {
    "table2": ("f1", "", 18, 27, "floor"),
    "table3": ("f2", "c3", 35, 65, "floor"),
    "table-f4": ("f4", "", 210, 250, "nearest"),
}

CANONICAL_SYLLABLE = ["ña", "ka", "kha", "ga", "gha", "ṅa", "ca", "cha", "ja", "jha"]


def load_golden(golden_dir: Path) -> dict[str, str]:
    return {name: (golden_dir / fname).read_text(encoding="utf-8")
            for name, fname in GOLDEN_FILES.items()}


def parse_aligned(text: str) -> list[dict[str, str]]:
    """Rows of a ' | '-aligned table as dicts of stripped cells."""
    lines = text.splitlines()
    headers = [h.strip() for h in lines[0].split("|")]
    return [{h: c.strip() for h, c in zip(headers, line.split("|"))} for line in lines[1:]]


def scan_columns(golden: dict[str, str], table: str) -> dict[str, dict[int, int]]:
    """{column: {n: circumference}} for one golden scan table."""
    columns: dict[str, dict[int, int]] = {}
    for row in parse_aligned(golden[table]):
        n = int(row.pop("n"))
        for name, cell in row.items():
            columns.setdefault(name, {})[n] = int(cell)
    return columns


# ---------------------------------------------------------------------------
# integer arithmetic references


def _div(a: int, b: int, mode: str) -> int:
    return a // b if mode == "floor" else (2 * a + b) // (2 * b)


def _term(formula: str, d: int, k: int) -> tuple[int, int]:
    if formula == "f2":
        return 4 * d, 2 * k - 1
    if formula == "f3":
        b = 2 * k + 1
        return 4 * d, b**3 - b
    b = 2 * k - 1
    return 16 * d, b**5 + 4 * b


def int_circumference(formula: str, d: int, n: int, mode: str) -> int:
    """F2+C3/F3/F4 with every division rounded by `mode` ("floor"/"nearest")."""
    total = 3 * d if formula == "f3" else 0
    for k in range(1, n + 1):
        nu, de = _term(formula, d, k)
        t = _div(nu, de, mode)
        total += t if k % 2 else -t
    if formula == "f2":
        corr = _div(4 * d * (n * n + 1), n * (4 * n * n + 5), mode)
        total += corr if n % 2 == 0 else -corr
    return total


def onset(formula: str, d: int, mode: str) -> int:
    """Smallest n whose rounded F3/F4 term is zero (terms shrink monotonically)."""
    factor = 1 if mode == "floor" else 2
    n = 1
    while factor * _term(formula, d, n)[0] >= _term(formula, d, n)[1]:
        n += 1
    return n


def isqrt_rem(n: int) -> tuple[int, int]:
    r = math.isqrt(n)
    return r, n - r * r


def sqrt_worksheet(n: int) -> list[tuple]:
    """Digit-pair worksheet rows (place, working, divisor or square, digit,
    subtracted) for n > 0, replayed from the digits of math.isqrt(n)."""
    text = str(n)
    split = 1 if len(text) % 2 else 2
    group, rest = int(text[:split]), text[split:]
    digits = [int(ch) for ch in str(math.isqrt(n))]
    root = digits[0]
    rows = [("odd", group, root * root, root, root * root)]
    rem = group - root * root
    for i, q in zip(range(0, len(rest), 2), digits[1:]):
        working = rem * 10 + int(rest[i])
        rows.append(("even", working, 2 * root, q, q * 2 * root))
        working = (working - q * 2 * root) * 10 + int(rest[i + 1])
        rows.append(("odd", working, q * q, "", q * q))
        rem = working - q * q
        root = root * 10 + q
    return rows


def _trunc6(value: Fraction) -> str:
    q = value.numerator * 10**6 // value.denominator
    return f"{q // 10**6}.{q % 10**6:06d}"


def _round(value: Fraction, mode: str) -> int:
    if mode == "nearest":
        value += Fraction(1, 2)
    return value.numerator // value.denominator


def varman_ledger(policy: str, backend: str = "scaled", terms: int | None = None,
                  frac_digits: int = 40) -> tuple[list[tuple], str, str, int]:
    """The D = 10**17 root-12 ledger: (rows, O cell, E cell, C).

    Each row is (k, x cell, divisor, sign, t cell) with cells as the CLI
    renders them: integers for integer policies, six truncated places for
    ExactFinal backends.
    """
    radicand = 12 * D17 * D17
    rows = []
    if policy in ("floor", "nearest"):
        root, rem = isqrt_rem(radicand)
        x = root + 1 if policy == "nearest" and rem > root else root
        odd = even = 0
        k = 1
        while terms is None or k <= terms:
            t = _div(x, 2 * k - 1, policy)
            rows.append((k, str(x), 2 * k - 1, 1 if k % 2 else -1, str(t)))
            if k % 2:
                odd += t
            else:
                even += t
            if x == 0:
                break
            x = _div(x, 3, policy)
            k += 1
        return rows, str(odd), str(even), odd - even
    mode = policy.removeprefix("final-")
    if backend == "rational":
        x1 = Fraction(math.isqrt(radicand))
        odd = even = Fraction(0)
        for k in range(1, terms + 1):
            x = x1 / 3 ** (k - 1)
            t = x / (2 * k - 1)
            rows.append((k, _trunc6(x), 2 * k - 1, 1 if k % 2 else -1, _trunc6(t)))
            if k % 2:
                odd += t
            else:
                even += t
        return rows, _trunc6(odd), _trunc6(even), _round(odd - even, mode)
    # Scaled backend: mantissas at 10**-frac_digits, every division truncated.
    unit = 10**frac_digits
    x = math.isqrt(radicand * unit * unit)
    odd = even = 0
    cell = lambda m: _trunc6(Fraction(m, unit))  # noqa: E731
    for k in range(1, terms + 1):
        t = x // (2 * k - 1)
        rows.append((k, cell(x), 2 * k - 1, 1 if k % 2 else -1, cell(t)))
        if k % 2:
            odd += t
        else:
            even += t
        x //= 3
    return rows, cell(odd), cell(even), _exact_root12(terms, mode)


def _exact_root12(terms: int, mode: str) -> int:
    """Final rounding of the exact ledger value sqrt(12)*D*sum(...), decided
    from a 60-digit enclosure of the root."""
    unit = 10**60
    lo = Fraction(math.isqrt(12 * D17 * D17 * unit * unit), unit)
    s = sum(Fraction(1 if k % 2 else -1, 3 ** (k - 1) * (2 * k - 1))
            for k in range(1, terms + 1))
    a, b = _round(lo * s, mode), _round((lo + Fraction(1, unit)) * s, mode)
    if a != b:
        raise ArithmeticError("reference enclosure cannot decide the rounding")
    return a


# ---------------------------------------------------------------------------
# reference pi and numerals


def true_circumference(d: int, mode: str) -> int:
    """pi*d rounded, for d small enough that 20 places decide it."""
    lo = Fraction(int(PI_DIGITS) * d, 10**20)
    hi = lo + Fraction(d, 10**20)
    a, b = _round(lo, mode), _round(hi, mode)
    if a != b:
        raise ArithmeticError("20 places cannot decide the rounding")
    return a


def matching_places(c: int, d: int) -> int:
    """Places of c/d agreeing with pi: by truncation, or by rounding at k."""
    if c // d != 3:
        return 0
    pi = int(PI_DIGITS)
    best = 0
    for k in range(1, 21):
        if c * 10**k // d != pi // 10 ** (20 - k):
            break
        best = k
    for k in range(19, best, -1):
        trunc = pi // 10 ** (20 - k)
        rounded = trunc + (1 if pi // 10 ** (19 - k) % 10 >= 5 else 0)
        if c * 10**k == rounded * d:
            return k
    return best


def katapayadi_encoding(n: int) -> list[str]:
    """Canonical syllables, units digit first (digits taken arithmetically)."""
    syllables = []
    while True:
        n, digit = divmod(n, 10)
        syllables.append(CANONICAL_SYLLABLE[digit])
        if n == 0:
            return syllables


def load_lexicon_file(path: Path) -> tuple[dict[str, str], dict[str, int]]:
    digit_words: dict[str, str] = {}
    magnitude_words: dict[str, int] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, value = line.split("\t")
        if value.startswith("E"):
            magnitude_words[word] = int(value[1:])
        else:
            digit_words[word] = value
    return digit_words, magnitude_words
