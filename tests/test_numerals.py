import unicodedata
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paridhi.numerals import (
    KATAPAYADI_VALUES,
    MAX_MAGNITUDE,
    BhutasamkhyaLexicon,
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

    def test_strings_and_tokens_mixed(self):
        mixed = [parse_syllable(t) if i % 2 else t for i, t in enumerate(PHRASE)]
        assert decode_katapayadi(mixed) == 314159265358979324
        assert decode_katapayadi([*encode_katapayadi(12), "ga", parse_syllable("a")]) == 312

    def test_every_string_is_parsed_before_any_digit_is_read(self):
        with pytest.raises(DecodeError, match="^unknown letter 'x' in token 'x'$"):
            decode_katapayadi([SyllableToken("qa", ("q",), "a"), "x"])


# the canonical syllable of each digit 0..9: its first varga consonant with "a"
CANONICAL = "ña ka kha ga gha ṅa ca cha ja jha".split()


class TestEncodeKatapayadi:
    def test_zero(self):
        assert [t.text for t in encode_katapayadi(0)] == ["ña"]

    def test_tokens_are_the_parsed_canonical_syllables(self):
        assert encode_katapayadi(0) == [parse_syllable("ña")]
        assert encode_katapayadi(9876543210) == [parse_syllable(s) for s in CANONICAL]  # units first

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


def reference_classify(lex: BhutasamkhyaLexicon, word: str) -> tuple[str, str | int]:
    """Normalise first, then probe the digit words and then the magnitude words."""
    norm = unicodedata.normalize("NFC", word.strip().lower())
    if norm in lex.digit_words:
        return "digits", lex.digit_words[norm]
    if norm in lex.magnitude_words:
        return "magnitude", lex.magnitude_words[norm]
    raise DecodeError(f"unknown word {word!r}")


def reference_decode(words: list[str], lex: BhutasamkhyaLexicon) -> int:
    """Every word classified by reference_classify, then the phrase rules in order."""
    if not words:
        raise DecodeError("empty word list")
    classified = [reference_classify(lex, w) for w in words]
    if len(classified) == 2 and classified[1][0] == "magnitude":
        kind, digits = classified[0]
        if kind != "digits":
            raise DecodeError(f"magnitude word {words[0]!r} cannot carry digits")
        return int(digits) * 10 ** classified[1][1]
    parts = []
    for word, (kind, value) in zip(words, classified):
        if kind != "digits":
            raise DecodeError(f"magnitude word {word!r} mixed into a digit sequence")
        parts.append(value)
    return int("".join(reversed(parts)))


# A lexicon built by hand, not loaded: some keys are not in normal form, which
# no lookup may reach, and two normal-form words are both digits and magnitudes.
HAND_BUILT = BhutasamkhyaLexicon(
    digit_words={"eka": "1", "Dvi": "2", " tri": "3", unicodedata.normalize("NFD", "vārana"): "8",
                 "ṣaṭ": "6", "koṭi": "0"},
    magnitude_words={"koṭi": 7, "Śata": 2, "sahasra": 3, "ṣaṭ": 9},
)
_LEXICONS = [default_lexicon(), HAND_BUILT]
_KEYS = sorted({w for lex in _LEXICONS for w in (*lex.digit_words, *lex.magnitude_words)})


@st.composite
def _word_texts(draw):
    word = draw(st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)))
    if draw(st.booleans()):
        word = draw(st.sampled_from([str.upper, str.title, str.lower]))(word)
    if draw(st.booleans()):
        word = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), word)
    return draw(st.sampled_from(["", " ", "\t"])) + word + draw(st.sampled_from(["", "  "]))


class TestWordLookup:
    """The raw-first word table finds what normalising first finds, or fails alike."""

    @settings(max_examples=1000)
    @given(st.sampled_from(_LEXICONS), _word_texts())
    def test_classify_matches_normalising_first(self, lex, word):
        assert _parsed(lex.classify, word) == _parsed(partial(reference_classify, lex), word)

    @settings(max_examples=300)
    @given(st.sampled_from(_LEXICONS), st.lists(_word_texts(), max_size=4))
    def test_decode_matches_normalising_first(self, lex, words):
        assert (_parsed(partial(decode_bhutasamkhya, lexicon=lex), words)
                == _parsed(partial(reference_decode, lex=lex), words))

    @pytest.mark.parametrize("word, outcome", [
        ("Dvi", "unknown word 'Dvi'"), ("dvi", "unknown word 'dvi'"),
        (" tri", "unknown word ' tri'"), ("tri", "unknown word 'tri'"),
        ("vārana", "unknown word 'vārana'"), ("Śata", "unknown word 'Śata'"),
        ("śata", "unknown word 'śata'"), ("eka", ("digits", "1")), (" EKA\t", ("digits", "1")),
        ("koṭi", ("digits", "0")), ("KOṬI", ("digits", "0")), ("ṣaṭ", ("digits", "6")),
        ("sahasra", ("magnitude", 3)),
    ])
    def test_hand_built_keys(self, word, outcome):
        assert _parsed(HAND_BUILT.classify, word) == outcome

    @pytest.mark.parametrize("lex", _LEXICONS, ids=["packaged", "hand-built"])
    def test_word_maps_are_read_only(self, lex):
        # the table is built from the maps once, so a later edit must be impossible
        with pytest.raises(TypeError):
            lex.digit_words["cakra"] = "1"
        with pytest.raises(TypeError):
            del lex.magnitude_words[next(iter(lex.magnitude_words))]

    def test_a_lexicon_keeps_its_own_copy(self):
        digit_words, magnitude_words = {"eka": "1"}, {"śata": 2}
        lex = BhutasamkhyaLexicon(digit_words, magnitude_words)
        assert lex.classify("eka") == ("digits", "1")
        digit_words["dvi"], magnitude_words["śata"] = "2", 3
        del digit_words["eka"]
        assert (lex.digit_words, lex.magnitude_words) == ({"eka": "1"}, {"śata": 2})
        assert lex.classify("eka") == ("digits", "1")
        assert lex.classify("śata") == ("magnitude", 2)
        with pytest.raises(DecodeError, match="^unknown word 'dvi'$"):
            lex.classify("dvi")


class TestDecodeErrorPrecedence:
    @pytest.mark.parametrize("words, message", [
        (["netra", "nikharva", "chakra"], "unknown word 'chakra'"),
        (["nikharva", "chakra"], "unknown word 'chakra'"),
        (["chakra", "nikharva"], "unknown word 'chakra'"),
        (["nikharva", "nikharva"], "magnitude word 'nikharva' cannot carry digits"),
        ([" Nikharva", "NIKHARVA"], "magnitude word ' Nikharva' cannot carry digits"),
        (["netra", "nikharva", "gaja"], "magnitude word 'nikharva' mixed into a digit sequence"),
        (["nikharva", "nava"], "magnitude word 'nikharva' mixed into a digit sequence"),
        (["netra", "gaja", "Nikharva\t", "nikharva"],
         "magnitude word 'Nikharva\\t' mixed into a digit sequence"),
        (["nikharva"], "magnitude word 'nikharva' mixed into a digit sequence"),
        ([], "empty word list"),
    ])
    def test_first_failing_rule_names_its_word(self, words, message):
        with pytest.raises(DecodeError) as caught:
            decode_bhutasamkhya(words)
        assert str(caught.value) == message

    def test_padded_and_upper_case_words_decode(self):
        assert decode_bhutasamkhya(["NETRA", " Gaja"]) == 82
        assert decode_bhutasamkhya([" Nava", "NIKHARVA "]) == 900000000000
