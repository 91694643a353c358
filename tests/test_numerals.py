import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paridhi.numerals import (
    KATAPAYADI_VALUES,
    MAX_MAGNITUDE,
    DecodeError,
    SyllableToken,
    decode_bhutasamkhya,
    decode_katapayadi,
    default_lexicon,
    encode_katapayadi,
    katapayadi_digits,
    load_lexicon,
    parse_syllable,
)

# verse 2, chapter 4: the circumference of the parardha-diameter circle
PHRASE = "bha drā mbu dhi si ddha ja nma ga ṇi ta śra dhā sma ya d bhū pa gīḥ".split()

# the word-numeral phrase for the 9*10**11 circle
WORDS = "vibudha netra gaja ahi hutāśana tri guna veda bha vārana bāhavāḥ".split()


class TestParseSyllable:
    def test_cluster_and_long_vowel(self):
        token = parse_syllable("drā")
        assert token.consonant_cluster == ("d", "r")
        assert token.vowel == "ā"

    def test_aspirate_is_one_consonant(self):
        assert parse_syllable("dhā").consonant_cluster == ("dh",)

    def test_visarga_ignored(self):
        token = parse_syllable("gīḥ")
        assert token.consonant_cluster == ("g",)
        assert token.vowel == "ī"

    def test_bare_consonant(self):
        token = parse_syllable("d")
        assert token.vowel is None
        assert not token.bears_digit

    def test_consonant_after_vowel_rejected(self):
        with pytest.raises(DecodeError):
            parse_syllable("yad")

    def test_unknown_letter_names_token(self):
        with pytest.raises(DecodeError, match="ḷa"):
            parse_syllable("ḷa")

    def test_empty(self):
        with pytest.raises(DecodeError):
            parse_syllable("  ")


_SCAN_CONSONANTS = sorted(KATAPAYADI_VALUES, key=len, reverse=True)
_SCAN_VOWELS = ("ai", "au", "a", "ā", "i", "ī", "u", "ū", "e", "o", "ṛ", "ṝ")
_STRAYS = ["x", "q", "ḷ", "ṁ", "-", "1", "\u0301", "\u0304", "aa", "Kh", "Ā", "Ṭh", " "]


def scan_syllable(text: str) -> SyllableToken:
    """Reference parser: at each position, the first letter of a longest-first list
    that the text starts with."""
    norm = unicodedata.normalize("NFC", text.strip().lower())
    if not norm:
        raise DecodeError("empty syllable token")
    cluster: list[str] = []
    vowel = None
    pos = 0
    while pos < len(norm):
        if vowel is None:
            hit = next((c for c in _SCAN_CONSONANTS if norm.startswith(c, pos)), None)
            if hit:
                cluster.append(hit)
                pos += len(hit)
                continue
            hit = next((v for v in _SCAN_VOWELS if norm.startswith(v, pos)), None)
            if hit:
                vowel = hit
                pos += len(hit)
                continue
            raise DecodeError(f"unknown letter {norm[pos]!r} in token {text!r}")
        if norm.startswith(("ḥ", "ṃ"), pos):
            pos += 1
            continue
        raise DecodeError(f"unexpected text after vowel in token {text!r}")
    return SyllableToken(norm, tuple(cluster), vowel)


def _parsed(parse, text):
    try:
        return parse(text)
    except DecodeError as exc:
        return str(exc)


_letters = st.sampled_from([*KATAPAYADI_VALUES, *_SCAN_VOWELS, "ḥ", "ṃ", *_STRAYS])


@st.composite
def _syllable_texts(draw):
    text = "".join(draw(st.lists(_letters, max_size=6)))
    if draw(st.booleans()):
        text = text.upper()
    if draw(st.booleans()):
        text = unicodedata.normalize("NFD", text)
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "  "]))


class TestParseSyllableMatchesTheScan:
    @settings(max_examples=2000)
    @given(_syllable_texts())
    def test_same_token_or_message(self, text):
        assert _parsed(parse_syllable, text) == _parsed(scan_syllable, text)

    @pytest.mark.parametrize("text", ["kha", "kh", "k", "ṭhā", "bhai", "au", "ddhaḥṃ", "kaiḥx",
                                      "ḍha", "Gau", "nma", "a", "ai", "kṣ", "x", "kax", "\u0301"])
    def test_digraph_edges(self, text):
        assert _parsed(parse_syllable, text) == _parsed(scan_syllable, text)


class TestDecodeKatapayadi:
    def test_verse_digit_string(self):
        assert katapayadi_digits(PHRASE) == "423979853562951413"

    def test_verse_value(self):
        assert decode_katapayadi(PHRASE) == 314159265358979324

    def test_single_token(self):
        assert decode_katapayadi(["ka"]) == 1

    def test_reversal(self):
        assert decode_katapayadi(["ra", "ka"]) == 12

    def test_standalone_vowel_is_zero(self):
        assert decode_katapayadi(["a", "ka"]) == 10

    def test_no_digits(self):
        with pytest.raises(DecodeError):
            decode_katapayadi(["d"])

    def test_prebuilt_token_without_value(self):
        with pytest.raises(DecodeError, match="has no value"):
            decode_katapayadi([SyllableToken("qa", ("q",), "a")])


class TestEncodeKatapayadi:
    def test_zero(self):
        assert [t.text for t in encode_katapayadi(0)] == ["ña"]

    def test_twelve(self):
        assert [t.text for t in encode_katapayadi(12)] == ["kha", "ka"]

    def test_verse_value_round_trip(self):
        n = 314159265358979324
        tokens = encode_katapayadi(n)
        assert len(tokens) == 18
        assert decode_katapayadi(tokens) == n

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            encode_katapayadi(-1)

    @given(st.integers(min_value=0, max_value=10**20))
    def test_round_trip(self, n):
        assert decode_katapayadi(encode_katapayadi(n)) == n

    @given(st.integers(min_value=1, max_value=10**20))
    def test_reversal_involution(self, n):
        tokens = encode_katapayadi(n)
        forward = katapayadi_digits(tokens)
        backward = katapayadi_digits(list(reversed(tokens)))
        assert backward == forward[::-1]


class TestBhutasamkhya:
    def test_verse_value(self):
        assert decode_bhutasamkhya(WORDS) == 2827433388233

    def test_magnitude_phrase(self):
        assert decode_bhutasamkhya(["nava", "nikharva"]) == 900000000000

    def test_single_word(self):
        assert decode_bhutasamkhya(["netra"]) == 2

    def test_unknown_word(self):
        with pytest.raises(DecodeError, match="chakra"):
            decode_bhutasamkhya(["chakra"])

    def test_magnitude_in_digit_sequence(self):
        with pytest.raises(DecodeError):
            decode_bhutasamkhya(["netra", "nikharva", "gaja"])

    def test_magnitude_cannot_lead(self):
        with pytest.raises(DecodeError):
            decode_bhutasamkhya(["nikharva", "nava"])

    def test_empty(self):
        with pytest.raises(DecodeError):
            decode_bhutasamkhya([])

    def test_lexicon_covers_both_verses(self):
        lex = default_lexicon()
        for word in WORDS + ["nava", "nikharva"]:
            assert lex.classify(word)

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("cakra\t6\nlakṣa\tE5\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert decode_bhutasamkhya(["cakra"], lex) == 6
        assert decode_bhutasamkhya(["cakra", "lakṣa"], lex) == 600000

    def test_malformed_lexicon_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word-without-tab\n", encoding="utf-8")
        with pytest.raises(DecodeError):
            load_lexicon(path)

    def test_magnitude_cap(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(f"eka\t1\nmaha\tE{MAX_MAGNITUDE}\n", encoding="utf-8")
        assert decode_bhutasamkhya(["eka", "maha"], load_lexicon(path)) == 10**MAX_MAGNITUDE
        path.write_text(f"eka\t1\nmaha\tE{MAX_MAGNITUDE + 1}\n", encoding="utf-8")
        with pytest.raises(DecodeError, match=f"magnitude E{MAX_MAGNITUDE + 1} on lexicon line 2"):
            load_lexicon(path)
        path.write_text("maha\tE" + "9" * 5000 + "\n", encoding="utf-8")  # past the int/str limit
        with pytest.raises(DecodeError, match="on lexicon line 1 is above"):
            load_lexicon(path)

    @pytest.mark.parametrize("value", ["Ex", "E-3", "E+6", "E", "\u00b2"])
    def test_malformed_lexicon_value(self, tmp_path, value):
        path = tmp_path / "bad.tsv"
        path.write_text(f"word\t{value}\n", encoding="utf-8")
        with pytest.raises(DecodeError, match="malformed lexicon value"):
            load_lexicon(path)
