import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legal_sbd.features import (
    FEATURE_FINGERPRINT,
    MAX_RADIUS,
    PATTERN_SIDE,
    TEMPLATES,
    format_features,
    padded_layout,
    pattern_codes,
    sequence_features,
    signature,
    special_category,
    token_features,
)
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import Token, tokenize
from oracles import keyed_layout

# Reference feature map for the token "en" in "C'est en outre": categories,
# shapes, lengths, window truncation at both sequence edges, and the
# 'numeric' (center) vs 'number' (neighbor) key asymmetry.
GOLDEN = {
    "bias": 1.0, "0:lowercase": "en", "0:lower": True, "0:upper": False,
    "0:numeric": False, "0:special": "No", "0:sign": "cc", "0:length": 2,
    "0:BOS": False, "0:EOS": False, "-1:BOS": False, "-1:special": "S",
    "-1:lowercase": " ", "-1:length": 1, "-1:sign": "S", "-1:lower": False,
    "-1:upper": False, "-1:number": False, "-1:space": True, "-2:BOS": False,
    "-2:special": "No", "-2:lowercase": "est", "-2:length": 3,
    "-2:sign": "ccc", "-2:lower": True, "-2:upper": False, "-2:number": False,
    "-2:space": False, "-3:BOS": False, "-3:special": "Abbr",
    "-3:lowercase": "'", "-3:length": 1, "-3:sign": "S", "-3:lower": False,
    "-3:upper": False, "-3:number": False, "-3:space": False, "-4:BOS": True,
    "-4:special": "No", "-4:lowercase": "c", "-4:length": 1, "-4:sign": "C",
    "+1:EOS": False, "+1:special": "S", "+1:lowercase": " ", "+1:length": 1,
    "+1:sign": "S", "+1:lower": False, "+1:upper": False, "+1:number": False,
    "+1:space": True, "+2:EOS": True, "+2:special": "No",
    "+2:lowercase": "outre", "+2:length": 5, "+2:sign": "ccccc",
    "+2:lower": True, "+2:upper": False, "+2:number": False, "+2:space": False,
}


def tok(text, kind=None):
    seq = tokenize(text)
    assert len(seq) == 1
    return seq[0]


def test_golden_vector_exact():
    seq = tokenize("C'est en outre")
    i = next(idx for idx, t in enumerate(seq) if t.text == "en")
    feats = token_features(seq, i)
    assert feats == GOLDEN
    assert format_features(feats) == format_features(GOLDEN)
    # value types match too (True is not 1, 2 is not 2.0 except for bias)
    for key, value in GOLDEN.items():
        assert type(feats[key]) is type(value), key


def test_special_categories():
    assert special_category(tok(".")) == "End"
    assert special_category(tok("!")) == "End"
    assert special_category(tok("?")) == "End"
    assert special_category(tok("(")) == "Open"
    assert special_category(tok("]")) == "Close"
    assert special_category(tok("\n")) == "Newline"
    assert special_category(tok("'")) == "Abbr"
    assert special_category(tok("’")) == "Abbr"
    assert special_category(tok("est")) == "No"
    assert special_category(tok("1979")) == "No"
    assert special_category(tok(" ")) == "S"
    assert special_category(tok(",")) == "S"
    assert special_category(tok("…")) == "S"  # ellipsis is not End by default


def test_signature():
    assert signature("en") == "cc"
    assert signature("C") == "C"
    assert signature("Abc12!") == "CccNNS"
    assert signature("école") == "ccccc"
    assert signature(" ") == "S"


# a feminine ordinal (lowercase, not a letter case pair), Arabic-Indic and
# Extended Arabic-Indic digits, combining marks, lone surrogates, a
# titlecase letter and a superscript digit (a digit, not decimal)
SHAPE_CHARACTERS = st.sampled_from(
    ["ª", "٣", "۷", "\u0301", "\u0651", "\ud800", "\udfff", "ǅ", "²", "ß", "Σ"]
)


def shape_of(ch: str) -> str:
    return "N" if ch.isdecimal() else "C" if ch.isupper() else "c" if ch.islower() else "S"


@given(st.lists(st.text(alphabet=SHAPE_CHARACTERS | st.characters(), max_size=12), max_size=8))
@example(["ª٣\u0301\ud800", "ǅ²ß", "", "Abc12!"])
@settings(max_examples=200, deadline=None)
def test_layout_signatures_are_per_character(texts):
    """The layout shapes every distinct text with one translate table per
    call; each must be the per-character code, as ``signature`` gives it."""
    tokens = [tok for text in texts for tok in tokenize(text)]
    attrs, which = padded_layout([tok.text for tok in tokens], [len(tokens)])
    column = [name for name, _ in TEMPLATES].index("sign")
    for tok, k in zip(tokens, which[MAX_RADIUS:]):
        assert attrs[k][column] == "".join(map(shape_of, tok.text))
    for text in texts:
        assert signature(text) == "".join(map(shape_of, text))


def test_single_token_sequence_has_only_center_keys():
    seq = tokenize("Mot")
    feats = token_features(seq, 0)
    assert set(feats) == {
        "bias", "0:lowercase", "0:lower", "0:upper", "0:numeric",
        "0:special", "0:sign", "0:length", "0:BOS", "0:EOS",
    }
    assert feats["0:BOS"] is True
    assert feats["0:EOS"] is True


def expected_offsets(i, n):
    """Independent enumeration of the window keys position i must emit."""
    keys = set()
    for d in range(-10, 11):
        j = i + d
        if d == 0 or not 0 <= j < n:
            continue
        keys.add((d, "special"))
        keys.add((d, "BOS" if d < 0 else "EOS"))
        if abs(d) <= 7:
            keys.add((d, "lowercase"))
            keys.add((d, "length"))
        if abs(d) <= 5:
            keys.add((d, "sign"))
        if abs(d) <= 3:
            keys.add((d, "lower"))
            keys.add((d, "upper"))
            keys.add((d, "number"))
            keys.add((d, "space"))
    return keys


@pytest.mark.parametrize("position", [0, 1, 7, 14, 29])
def test_window_truncation_matches_enumeration(position):
    text = " ".join(f"mot{i}" for i in range(15)) + "."
    seq = tokenize(text)
    n = len(seq)
    feats = token_features(seq, position)
    got = set()
    for key in feats:
        if key == "bias" or key.startswith("0:"):
            continue
        offset, name = key.split(":", 1)
        got.add((int(offset), name))
    assert got == expected_offsets(position, n)


def test_position_zero_has_no_negative_offsets():
    seq = tokenize(" ".join(["mot"] * 30))
    feats = token_features(seq, 0)
    offsets = {int(k.split(":")[0]) for k in feats if k not in ("bias",)}
    assert min(offsets) == 0
    assert max(offsets) == 10


def test_locality_within_ten_tokens():
    words = ["aaa"] * 41
    base = tokenize(" ".join(words))
    center = 40  # token index of the center word = 20 words in
    feats_before = token_features(base, center)
    # mutate a word 11 word-positions away (22 token positions): outside
    words_far = list(words)
    words_far[9] = "ZZZZ"
    far = tokenize(" ".join(words_far))
    assert token_features(far, center) == feats_before
    # mutate inside the window: must change the features
    words_near = list(words)
    words_near[18] = "ZZZZ"
    near = tokenize(" ".join(words_near))
    assert token_features(near, center) != feats_before


def test_sequence_features_match_per_position():
    docs = make_corpus(3, seed=9, abbreviation_rate=0.5, newline_rate=0.3)
    for doc in docs:
        seq = tokenize(doc.text)
        rows = sequence_features(seq)
        assert len(rows) == len(seq)
        rng = random.Random(1)
        for i in rng.sample(range(len(seq)), min(10, len(seq))):
            assert rows[i] == token_features(seq, i)


def test_sequence_features_view_behaves_as_the_list():
    # the layout-backed view against the list of per-position maps it
    # replaces, on a sequence longer than two windows and on tiny ones
    (doc,) = make_corpus(1, seed=13, abbreviation_rate=0.5, newline_rate=0.3)
    for text in (doc.text, "Mot.", "a b", ""):
        tokens = tokenize(text)
        view = sequence_features(tokens)
        want = [token_features(tokens, i) for i in range(len(tokens))]
        n = len(want)
        assert len(view) == n
        assert list(view) == want
        assert [fv for fv in view] == want
        assert view == want and want == view
        assert not view != want
        if not n:
            continue
        assert view != want[:-1] and view != [*want[:-1], {}]
        assert [view[i] for i in range(n)] == want
        assert [view[i] for i in range(-n, 0)] == want[-n:]
        for part in (slice(None), slice(2, 9), slice(-4, None), slice(None, None, 3),
                     slice(9, 2, -2), slice(None, None, -1), slice(n + 5, n + 9)):
            assert view[part] == want[part]
            assert type(view[part]) is list
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        with pytest.raises(TypeError):
            view[0] = {}


@pytest.mark.parametrize("other", [None, 3, "Mot.", {"0:bias": 1.0}])
def test_sequence_features_view_is_unequal_to_a_non_sequence(other):
    view = sequence_features(tokenize("Mot."))
    assert view.__eq__(other) is NotImplemented  # the other operand decides, then identity
    assert view != other and not view == other


# the tokens a window reaches, its edge-flag tokens included
WINDOW = 2 * MAX_RADIUS + 3
WINDOW_CHARACTERS = st.sampled_from(["\u0301", "a", "٣", ".", "(", "'", "\ud800", "\r", "\n", " "])


@given(st.lists(st.text(alphabet=WINDOW_CHARACTERS | st.characters(), max_size=4), max_size=24)
       .map(" ".join))
@example("")
@example("\r\n")
@example("e\u0301 \u0301x")
@example("\ud800x")
@example("a." * (WINDOW // 2))  # WINDOW - 1 tokens
@example("a." * (WINDOW // 2) + "a")  # WINDOW tokens
@example("a." * (WINDOW // 2 + 1))  # WINDOW + 1 tokens
@example("Art. 5\r\n(1) l'école" * 8)
@settings(max_examples=200, deadline=None)
def test_windowed_maps_equal_whole_sequence_maps(text):
    """token_features reads a window of the tokens, whose capped position
    pattern must be the whole sequence's at every position."""
    tokens = tokenize(text)
    whole = sequence_features(tokens)
    assert [token_features(tokens, i) for i in range(len(tokens))] == list(whole)


def test_sequence_features_of_texts_equal_those_of_tokens():
    tokens = tokenize("Art. 5 ZGB.\n(1) Die Frist.")
    texts = [tok.text for tok in tokens]
    assert sequence_features(texts).texts == sequence_features(tokens).texts == tuple(texts)
    assert sequence_features(texts) == sequence_features(tokens)


@pytest.mark.parametrize("items", [["a", " ", ""], [""], [Token("", 0, 0, "other")]])
def test_an_empty_token_text_is_a_value_error(items):
    with pytest.raises(ValueError, match="empty"):
        sequence_features(items)


def test_out_of_range_position_rejected():
    seq = tokenize("a b")
    with pytest.raises(IndexError):
        token_features(seq, 3)


def test_feature_fingerprint_is_pinned():
    # every saved model records it and load_model rejects any other, so a
    # change to it makes every existing model file fail to load
    assert FEATURE_FINGERPRINT == "2761c0eb23a5cd19"


def test_template_radii_never_grow():
    # a neighbour's keys are the prefix of TEMPLATES whose radius covers it
    radii = [radius for _, radius in TEMPLATES]
    assert radii == sorted(radii, reverse=True)


# synthetic documents, then a leading mark, non-decimal digits, a lone
# CR and an empty text, with repeats of each across texts
BATCH = [
    *(doc.text for doc in make_corpus(6, seed=11, abbreviation_rate=0.5, newline_rate=0.3)),
    "\u0301a\u0301 1 ٣²\r x\n", "", "a\u0301\u0301 ٣ \u0301\r", "x",
]


@given(st.lists(st.text(alphabet="a\u0301 1٣²\r\n.(", max_size=30), min_size=1, max_size=4))
@example(BATCH)
@settings(max_examples=150, deadline=None)
def test_text_keyed_layout_matches_text_and_kind_layout(texts):
    """Per row, the layout interned on text gives the attributes and the
    padding of one interned on (text, kind), with as many entries."""
    seqs = [seq for seq in map(tokenize, texts) if seq]
    tokens = [tok for seq in seqs for tok in seq]
    lengths = [len(seq) for seq in seqs]
    attrs, which = padded_layout([tok.text for tok in tokens], lengths)
    ref_attrs, ref_which = keyed_layout(tokens, lengths)
    assert [k == 0 for k in which] == [k == 0 for k in ref_which]
    assert [attrs[k] for k in which] == [ref_attrs[k] for k in ref_which]
    assert len(attrs) == len(ref_attrs)


def loop_pattern_codes(lengths):
    return [
        min(t, MAX_RADIUS + 1) * PATTERN_SIDE + min(n - 1 - t, MAX_RADIUS + 1)
        for n in lengths
        for t in range(n)
    ]


def test_pattern_codes_match_a_plain_loop():
    # the two edges meet around 2 * (MAX_RADIUS + 1) positions
    lengths = list(range(1, 2 * PATTERN_SIDE + 2))
    for n in lengths:
        assert pattern_codes([n]).tolist() == loop_pattern_codes([n])
    rng = random.Random(19)
    # every length once in shuffled order, then batches with repeats
    batches = [rng.sample(lengths, len(lengths)) for _ in range(5)]
    batches += [rng.choices(lengths, k=rng.randint(2, 12)) for _ in range(20)]
    for batch in batches:
        assert pattern_codes(np.array(batch)).tolist() == loop_pattern_codes(batch)
