"""Windowed sparse feature extraction for CRF sequence labeling.

Every token position yields a flat map from feature-key strings to
values.  Keys are prefixed with the signed window offset they describe
("-3:", "+1:", "0:" for the center token) and each feature has its own
window radius, declared once in the ``TEMPLATES`` table that both
:func:`token_features` and :func:`sequence_features` build from:

===========  ======  =======================================================
feature      window  value
===========  ======  =======================================================
special      10      category: End / Open / Close / Newline / Abbr / No / S
BOS, EOS     10      first / last position of the sequence (bool)
lowercase    7       token text lowercased
length       7       token length in characters
sign         5       per-character shape code (c / C / N / S)
lower        3       first character is lowercase (bool)
upper        3       first character is uppercase (bool)
number       3       token is a number (bool)
space        3       token is whitespace (bool); neighbors only
===========  ======  =======================================================

The center position additionally carries ``bias`` (1.0) and uses the key
``0:numeric`` for the number flag; neighbors use ``<d>:number``.  Offsets
that fall outside the sequence emit nothing.  The feature set is fixed,
the character sets behind ``special`` included, so prediction always
computes the features a model was trained on.

The dict maps are the reference and training form: training, the
``features`` CLI and the oracle tests build them.  Prediction does not;
:func:`legal_sbd.crf.compile_model` reads ``KEY_SOURCES`` and
``NUMERIC_ATTRIBUTES`` to score tokens straight from their
``_token_attrs`` columns, to the same scores.
"""

from __future__ import annotations

from operator import itemgetter

from .tokenizer import NEWLINE, NUMBER, Token, WORD

CATEGORY_END = "End"
CATEGORY_OPEN = "Open"
CATEGORY_CLOSE = "Close"
CATEGORY_NEWLINE = "Newline"
CATEGORY_ABBR = "Abbr"
CATEGORY_NONE = "No"
CATEGORY_SPECIAL = "S"

# (attribute, window radius) in the order of ``_token_attrs``, which is
# also the order a neighbour emits its keys after BOS/EOS.  Radii never
# grow down the table, so the attributes a neighbour at offset d carries
# are the prefix whose radius is at least |d|.
TEMPLATES = (
    ("special", 10),
    ("lowercase", 7),
    ("length", 7),
    ("sign", 5),
    ("lower", 3),
    ("upper", 3),
    ("number", 3),
    ("space", 3),
)
MAX_RADIUS = TEMPLATES[0][1]  # also the BOS/EOS window
# the column of ``_token_attrs`` that holds each attribute
ATTRIBUTE_COLUMNS = {name: c for c, (name, _) in enumerate(TEMPLATES)}
# attributes whose value is a number, kept as the feature value; every
# other attribute is a category string or a flag
NUMERIC_ATTRIBUTES = frozenset({"length"})


# the character sets behind the ``special`` category
END_CHARS = frozenset({".", "!", "?"})
OPEN_CHARS = frozenset({"(", "[", "{"})
CLOSE_CHARS = frozenset({")", "]", "}"})
ABBR_CHARS = frozenset({"'", "’"})


def special_category(token: Token) -> str:
    """Classify a token into its ``special`` feature category.

    Sentence terminators map to End, brackets to Open/Close, line breaks
    to Newline, apostrophes to Abbr; words and numbers map to No, and any
    remaining special character (whitespace included) to the shape code S.
    """
    if token.kind == NEWLINE:
        return CATEGORY_NEWLINE
    text = token.text
    if text in END_CHARS:
        return CATEGORY_END
    if text in OPEN_CHARS:
        return CATEGORY_OPEN
    if text in CLOSE_CHARS:
        return CATEGORY_CLOSE
    if text in ABBR_CHARS:
        return CATEGORY_ABBR
    if token.kind in (WORD, NUMBER):
        return CATEGORY_NONE
    return CATEGORY_SPECIAL


def signature(text: str) -> str:
    """Per-character shape code: c/C for lower/upper case letters, N for
    digits, S for everything else ("école" -> "ccccc", "Abc12!" -> "CccNNS")."""
    out = []
    for ch in text:
        if ch.isdecimal():
            out.append("N")
        elif ch.isupper():
            out.append("C")
        elif ch.islower():
            out.append("c")
        else:
            out.append("S")
    return "".join(out)


def _token_attrs(token: Token):
    text = token.text
    return (
        special_category(token),
        text.lower(),
        len(text),
        signature(text),
        text[0].islower(),
        text[0].isupper(),
        token.kind == NUMBER,
        text.isspace(),
    )


def _neighbour_keys(d: int) -> tuple[int, str, tuple[str, ...]]:
    p = f"{d:+d}"
    edge = f"{p}:BOS" if d < 0 else f"{p}:EOS"
    return d, edge, tuple(f"{p}:{name}" for name, radius in TEMPLATES if radius >= abs(d))


# offsets -MAX_RADIUS..-1, then 1..MAX_RADIUS, each with its key strings
_NEIGHBOURS = tuple(
    _neighbour_keys(d) for d in range(-MAX_RADIUS, MAX_RADIUS + 1) if d != 0
)

# the centre's attribute keys in the order it emits them after ``bias``;
# its number flag is ``0:numeric``, and it has no ``space`` key
_CENTRE_KEYS = (
    ("0:lowercase", "lowercase"),
    ("0:lower", "lower"),
    ("0:upper", "upper"),
    ("0:numeric", "number"),
    ("0:special", "special"),
    ("0:sign", "sign"),
    ("0:length", "length"),
)
_centre_keys = tuple(key for key, _ in _CENTRE_KEYS)
_centre_values = itemgetter(*(ATTRIBUTE_COLUMNS[name] for _, name in _CENTRE_KEYS))


def _key_sources() -> dict[str, tuple[int, str]]:
    sources = {"bias": (0, "bias"), "0:BOS": (0, "BOS"), "0:EOS": (0, "EOS")}
    sources.update((key, (0, name)) for key, name in _CENTRE_KEYS)
    for d, edge, keys in _NEIGHBOURS:
        sources[edge] = (d, "BOS" if d < 0 else "EOS")
        sources.update((key, (d, name)) for key, (name, _) in zip(keys, TEMPLATES))
    return sources


# every key a feature map can hold -> (offset, source): the key describes
# the token at that offset from the position, through the ``TEMPLATES``
# attribute named by source, or it is that token's "BOS" / "EOS" flag, or
# the constant "bias"
KEY_SOURCES = _key_sources()


def _position_features(attrs, i: int, last: int) -> dict:
    """Feature map for position *i*; ``attrs[j]`` holds the attributes of
    token *j* for every *j* in the window, and *last* is the final index."""
    feats = {"bias": 1.0}
    feats.update(zip(_centre_keys, _centre_values(attrs[i])))
    feats["0:BOS"] = i == 0
    feats["0:EOS"] = i == last
    # the offsets max(-MAX_RADIUS, -i) .. min(MAX_RADIUS, last - i), without 0
    in_range = _NEIGHBOURS[max(0, MAX_RADIUS - i) : MAX_RADIUS + min(MAX_RADIUS, last - i)]
    for d, edge, keys in in_range:
        j = i + d
        feats[edge] = j == 0 if d < 0 else j == last
        feats.update(zip(keys, attrs[j]))
    return feats


def token_features(tokens: list[Token], i: int) -> dict:
    """Feature map for position *i* of *tokens*; see the module table."""
    if not 0 <= i < len(tokens):
        raise IndexError(f"position {i} out of range for sequence of {len(tokens)} tokens")
    window = range(max(0, i - MAX_RADIUS), min(len(tokens), i + MAX_RADIUS + 1))
    attrs = {j: _token_attrs(tokens[j]) for j in window}
    return _position_features(attrs, i, len(tokens) - 1)


def sequence_features(tokens: list[Token]) -> list[dict]:
    """Feature maps for every position, sharing per-token attribute work."""
    attrs = [_token_attrs(tok) for tok in tokens]
    last = len(attrs) - 1
    return [_position_features(attrs, i, last) for i in range(len(attrs))]


def format_features(feats: dict) -> str:
    """Key-sorted, one entry per line, with Python-literal values."""
    return "\n".join(f"{key!r}: {feats[key]!r}" for key in sorted(feats))
