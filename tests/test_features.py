import random

import pytest

from legal_sbd.features import (
    TEMPLATES,
    format_features,
    sequence_features,
    signature,
    special_category,
    token_features,
)
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize

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


def test_out_of_range_position_rejected():
    seq = tokenize("a b")
    with pytest.raises(IndexError):
        token_features(seq, 3)


def test_template_radii_never_grow():
    # a neighbour's keys are the prefix of TEMPLATES whose radius covers it
    radii = [radius for _, radius in TEMPLATES]
    assert radii == sorted(radii, reverse=True)
