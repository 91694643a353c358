"""Katapayadi letter-numerals and bhutasamkhya word-numerals.

Both systems write numbers units-first: the first syllable or word carries
the units digit, so the extracted digit sequence is reversed before it is
read as an integer.

Katapayadi: consonants carry digit values; in a consonant cluster only the
final consonant before the vowel counts, and a syllable-final consonant
with no vowel counts nothing.  Input is romanized IAST, pre-split into
syllables.

Bhutasamkhya: whole words name digit groups ("eyes" = 2, "gods" = 33); a
two-word [digit-word, magnitude-word] phrase multiplies instead.  The
word list lives in a TSV lexicon that can be extended without code
changes.  A word is looked up as written first, among the lexicon's words
already in normal form (stripped, lower-case, NFC), and is normalised and
looked up again only on a miss.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .exact_arith import DomainError, digits_to_int


class DecodeError(DomainError):
    """A token or word could not be decoded."""


MAX_MAGNITUDE = 1000  # cap on a lexicon's E<k>: k sets a decode's time (the packaged top is E11)


# Classical consonant table: ka..jha = 1..9, nya = 0; .ta..dha = 1..9,
# na = 0; pa..ma = 1..5; ya..ha = 1..8.
KATAPAYADI_VALUES: Mapping[str, int] = {
    "k": 1, "kh": 2, "g": 3, "gh": 4, "ṅ": 5,
    "c": 6, "ch": 7, "j": 8, "jh": 9, "ñ": 0,
    "ṭ": 1, "ṭh": 2, "ḍ": 3, "ḍh": 4, "ṇ": 5,
    "t": 6, "th": 7, "d": 8, "dh": 9, "n": 0,
    "p": 1, "ph": 2, "b": 3, "bh": 4, "m": 5,
    "y": 1, "r": 2, "l": 3, "v": 4, "ś": 5, "ṣ": 6, "s": 7, "h": 8,
}

# First varga consonant per digit, used for canonical encoding.
_CANONICAL_SYLLABLE = dict(zip("1234567890", "ka kha ga gha ṅa ca cha ja jha ña".split()))

_DIGITS = {consonant: str(value) for consonant, value in KATAPAYADI_VALUES.items()}
_VOWELS = frozenset(("ai", "au", "a", "ā", "i", "ī", "u", "ū", "e", "o", "ṛ", "ṝ"))
_FINALS = "ḥṃ"  # visarga, anusvara


@dataclass(frozen=True)
class SyllableToken:
    text: str
    consonant_cluster: tuple[str, ...]
    vowel: str | None


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text.strip().lower())


def parse_syllable(text: str) -> SyllableToken:
    """Split one romanized syllable into its consonant cluster and vowel.

    Accepted shape: zero or more consonants, then at most one vowel, then
    an optional visarga/anusvara.  Anything else is a decode error.
    """
    norm = _nfc(text)
    if not norm:
        raise DecodeError("empty syllable token")
    cluster: list[str] = []
    vowel: str | None = None
    pos = 0
    while pos < len(norm):  # every digraph is two letters: look up the pair, then one letter
        pair, letter = norm[pos:pos + 2], norm[pos]
        consonant = pair if pair in KATAPAYADI_VALUES else letter
        if consonant in KATAPAYADI_VALUES:
            cluster.append(consonant)
            pos += len(consonant)
            continue
        vowel = pair if pair in _VOWELS else letter
        if vowel not in _VOWELS:
            raise DecodeError(f"unknown letter {letter!r} in token {text!r}")
        if norm[pos + len(vowel):].lstrip(_FINALS):
            raise DecodeError(f"unexpected text after vowel in token {text!r}")
        break
    return SyllableToken(norm, tuple(cluster), vowel)


def katapayadi_digits(tokens: Sequence[SyllableToken | str]) -> str:
    """Digit string in written (units-first) order, one digit per valued token.

    A standalone vowel counts as 0.
    """
    digits = []
    for token in [t if isinstance(t, SyllableToken) else parse_syllable(t) for t in tokens]:
        if token.vowel is None:
            continue  # syllable-final consonants carry no value
        cluster = token.consonant_cluster
        digit = _DIGITS.get(cluster[-1]) if cluster else "0"
        if digit is None:  # only a hand-built token can carry an unlisted consonant
            raise DecodeError(f"consonant {cluster[-1]!r} has no value")
        digits.append(digit)
    if not digits:
        raise DecodeError("no digit-bearing syllables in input")
    return "".join(digits)


def decode_katapayadi(tokens: Sequence[SyllableToken | str]) -> int:
    """Decode syllables to an integer (digit order reversed, units first)."""
    return digits_to_int(katapayadi_digits(tokens)[::-1])


def encode_katapayadi(n: int) -> list[SyllableToken]:
    """Canonical encoding: first varga consonant per digit, units digit first.

    decode_katapayadi(encode_katapayadi(n)) == n for every n >= 0.
    """
    if n < 0:
        raise DomainError("cannot encode a negative integer")
    return [parse_syllable(_CANONICAL_SYLLABLE[d]) for d in reversed(str(n))]


@dataclass(frozen=True)
class BhutasamkhyaLexicon:
    digit_words: Mapping[str, str]  # word -> decimal digit string
    magnitude_words: Mapping[str, int]  # word -> power of ten

    def __post_init__(self) -> None:  # read-only copies, so the word table below stays true
        for name in ("digit_words", "magnitude_words"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @cached_property
    def _words(self) -> dict[str, tuple[str, str | int]]:
        """word -> (kind, value) for the words already in normal form; digit words win."""
        table = {w: ("magnitude", v) for w, v in self.magnitude_words.items() if _nfc(w) == w}
        table.update((w, ("digits", v)) for w, v in self.digit_words.items() if _nfc(w) == w)
        return table

    def classify(self, word: str) -> tuple[str, str | int]:
        hit = self._words.get(word) or self._words.get(_nfc(word))  # _nfc is idempotent
        if hit is None:
            raise DecodeError(f"unknown word {word!r}")
        return hit


def load_lexicon(path: str | Path | None = None) -> BhutasamkhyaLexicon:
    """Load a word lexicon from a TSV file (default: the packaged one).

    Each line is `word<TAB>digits` or `word<TAB>E<k>` for magnitude 10**k, k at
    most MAX_MAGNITUDE.  A byte-order mark, blank lines and '#' lines are skipped.
    """
    if path is None:
        text = resources.files("paridhi").joinpath("data/bhutasamkhya.tsv").read_text("utf-8-sig")
    else:
        try:
            text = Path(path).read_text("utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise DecodeError(f"cannot read lexicon {str(path)!r}: {exc}") from None
    digit_words: dict[str, str] = {}
    magnitude_words: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word, value = line.split("\t")
        except ValueError:
            raise DecodeError(f"malformed lexicon line {lineno}: {line!r}") from None
        word = _nfc(word)
        if re.fullmatch(r"E[0-9]+", value):
            magnitude = digits_to_int(value[1:])
            if magnitude > MAX_MAGNITUDE:
                raise DecodeError(f"magnitude {value} on lexicon line {lineno} is above "
                                  f"E{MAX_MAGNITUDE}")
            magnitude_words[word] = magnitude
        elif re.fullmatch(r"[0-9]+", value):
            digit_words[word] = value
        else:
            raise DecodeError(f"malformed lexicon value on line {lineno}: {value!r}")
    return BhutasamkhyaLexicon(digit_words, magnitude_words)


@cache
def default_lexicon() -> BhutasamkhyaLexicon:
    return load_lexicon()


def decode_bhutasamkhya(words: Sequence[str], lexicon: BhutasamkhyaLexicon | None = None) -> int:
    """Decode a word-numeral phrase to an integer.

    A plain digit-word sequence is read units-first: the word order is
    reversed and the digit groups concatenated.  A two-word
    [digit-word, magnitude-word] phrase decodes multiplicatively.
    Magnitude words anywhere else are an error.
    """
    if not words:
        raise DecodeError("empty word list")
    lex = lexicon if lexicon is not None else default_lexicon()
    get, classify = lex._words.get, lex.classify
    classified = [get(w) or classify(w) for w in words]  # all before any magnitude check
    if len(classified) == 2 and classified[1][0] == "magnitude":
        kind, digits = classified[0]
        if kind != "digits":
            raise DecodeError(f"magnitude word {words[0]!r} cannot carry digits")
        return digits_to_int(digits) * 10 ** classified[1][1]
    parts = [value for kind, value in classified if kind == "digits"]
    if len(parts) < len(classified):
        word = next(w for w, (kind, _) in zip(words, classified) if kind != "digits")
        raise DecodeError(f"magnitude word {word!r} mixed into a digit sequence")
    return digits_to_int("".join(reversed(parts)))
