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
``0:numeric`` for the number flag; neighbors use ``<d>:number``.  Every
offset, the center included, lists the keys it takes from a token in
table order.  Offsets that fall outside the sequence emit nothing.  The
feature set is fixed, the character sets behind ``special`` included, so
prediction always computes the features a model was trained on.

Every feature map is built one way: :func:`factored_features` splits the
maps of a batch into fragments that many positions share -- the keys one
offset takes from one token text, and the keys set by the position's
place in its sequence (its pattern, coded by :func:`pattern_codes`;
:func:`_pattern_features` alone defines the edge flags) -- and a map is
the merge of its position's fragments.  The fragments read one layout,
built by :func:`padded_layout` from token texts alone: a batch of token
sequences laid end to end with ``MAX_RADIUS`` padding rows before,
between and after them, each row mapped to an entry of a table of
``_token_attrs`` tuples, one per distinct text (which alone decides the
entry, its kind included), entry 0 being padding.
:func:`sequence_features` returns a read-only :class:`SequenceFeatures`
that merges a position's map only when it is read, and
:func:`token_features` reads one position of the window around it.
Training and prediction build no maps: ``legal_sbd.crf`` encodes each
fragment once, or folds one weight table per offset over the layout's
entries and one over the pattern codes, to the same scores bit for bit.
A trained model records ``FEATURE_FINGERPRINT``, a hash of the definition.

Feature maps meet a model as the string indicators of :func:`indicators`:
a boolean gives ``key=true`` / ``key=false``, a category ``key=value``,
and a number keeps its key and multiplies its weight row by its value.
A key is ``bias`` or ``<offset>:<name>`` and never holds ``=``, so an
indicator splits into key and value at its first ``=``; the value may
hold ``=`` or ``:`` itself (the token ``=`` gives ``0:lowercase==``).
:func:`parse_indicator` is the typed inverse for the indicators a token
text gives, their offset, column of ``COLUMNS`` and value, and gives None
for any other, such as those of a position pattern (``PATTERN_SLOTS``)."""

from __future__ import annotations

import hashlib
import json
from collections import abc
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .tokenizer import NEWLINE, NUMBER, CharTable, Token, WORD, token_kind

# (attribute, window radius) in the order of ``_token_attrs``, which is
# also the order every offset emits its keys in.  Radii never grow down
# the table, so the attributes a neighbour at offset d carries are the
# prefix whose radius is at least |d|.
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
# the columns a token text gives: those of ``_token_attrs``, in TEMPLATES order
COLUMNS = tuple(name for name, _ in TEMPLATES)
# columns whose value is a number, kept as the feature value, and columns
# whose value is a flag; every other column holds a category string
NUMERIC_ATTRIBUTES = frozenset({"length"})
FLAGS = frozenset({"lower", "upper", "number", "space"})


# the ``special`` category by kind, S for any other; a text listed in
# _SPECIAL_TEXTS decides it first, unless the token is a line break
_SPECIAL_KINDS = {NEWLINE: "Newline", WORD: "No", NUMBER: "No"}
_SPECIAL_TEXTS = {
    **dict.fromkeys(".!?", "End"),
    **dict.fromkeys("([{", "Open"),
    **dict.fromkeys(")]}", "Close"),
    **dict.fromkeys("'’", "Abbr"),
}


def special_category(token: Token) -> str:
    """Classify a token into its ``special`` feature category.

    Sentence terminators map to End, brackets to Open/Close, line breaks
    to Newline, apostrophes to Abbr; words and numbers map to No, and any
    remaining special character (whitespace included) to the shape code S.
    The token's text decides it (see :func:`_text_category`).
    """
    text = token.text
    return _text_category(text, token_kind(text))


def _text_category(text: str, kind: str) -> str:
    """The ``special`` category of a token with this *text* and *kind*."""
    category = _SPECIAL_KINDS.get(kind, "S")
    return category if category == "Newline" else _SPECIAL_TEXTS.get(text, category)


def _shape(ch: str) -> str:
    return "N" if ch.isdecimal() else "C" if ch.isupper() else "c" if ch.islower() else "S"


_SHAPES = CharTable(_shape)


def signature(text: str) -> str:
    """Per-character shape code: c/C for lower/upper case letters, N for
    digits, S for everything else ("école" -> "ccccc", "Abc12!" -> "CccNNS");
    one ``str.translate`` through the process-wide ``_SHAPES`` table."""
    return text.translate(_SHAPES)


def _token_attrs(text: str):
    """The ``TEMPLATES`` columns of a token whose text is *text*."""
    kind = token_kind(text)
    return (
        _text_category(text, kind),
        text.lower(),
        len(text),
        signature(text),
        text[0].islower(),
        text[0].isupper(),
        kind == NUMBER,
        text.isspace(),
    )


def _text_keys(d: int) -> tuple[str, ...]:
    if d == 0:  # no ``space``, the last column; ``0:numeric`` for the number flag
        return tuple("0:" + ("numeric" if n == "number" else n) for n, _ in TEMPLATES[:-1])
    return tuple(f"{d:+d}:{name}" for name, radius in TEMPLATES if radius >= abs(d))


# offset d -> the keys a position takes from the token at d: key c for
# column c of ``_token_attrs``, for the prefix of the table that d keeps
_TEXT_KEYS = {d: _text_keys(d) for d in range(-MAX_RADIUS, MAX_RADIUS + 1)}
# offsets -MAX_RADIUS..-1, then 1..MAX_RADIUS, each with its edge flag's key
_NEIGHBOURS = tuple(
    (d, f"{d:+d}:BOS" if d < 0 else f"{d:+d}:EOS") for d in range(-MAX_RADIUS, MAX_RADIUS + 1) if d
)


def padded_layout(texts: Sequence[str], lengths: Sequence[int]) -> tuple[list, np.ndarray]:
    """Consecutive sequences of the token *texts* of the given *lengths*,
    laid end to end with ``MAX_RADIUS`` padding rows before, between and
    after them.

    Returns (attrs, which): ``attrs[k]`` is the ``_token_attrs`` tuple of
    the k-th distinct text of *texts*, and ``attrs[0]`` None, for
    padding; ``which[r]``, an array, is the entry of padded row r."""
    distinct = dict.fromkeys(texts)  # texts in order of first appearance
    ids = dict(zip(distinct, range(1, len(distinct) + 1)))
    attrs = [None, *map(_token_attrs, distinct)]
    entries = np.fromiter(map(ids.__getitem__, texts), dtype=np.intp, count=len(texts))
    return attrs, padded_rows(entries, lengths)


def padded_rows(entries: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """The *entries* of consecutive sequences of the given *lengths*, one
    per token, laid out as :func:`padded_layout` lays their texts: the
    entry of every padded row, 0 for a padding row."""
    which = np.zeros(len(entries) + MAX_RADIUS * (len(lengths) + 1), dtype=np.intp)
    row = pos = 0
    for n in lengths:
        row += MAX_RADIUS
        which[row : row + n] = entries[pos : pos + n]
        row += n
        pos += n
    return which


def _merged_features(fragments: list[dict], row) -> dict:
    """The map merging the fragments that a :func:`factored_features` parts row lists."""
    feats = {}
    for j in row:
        if j >= 0:
            feats.update(fragments[j])
    return feats


def token_features(tokens: list[Token], i: int) -> dict:
    """Feature map for position *i* of *tokens*; see the module table."""
    if not 0 <= i < len(tokens):
        raise IndexError(f"position {i} out of range for sequence of {len(tokens)} tokens")
    # the window and one token more on each side, so its capped pattern is the sequence's
    lo = max(0, i - MAX_RADIUS - 1)
    return sequence_features(tokens[lo : i + MAX_RADIUS + 2])[i - lo]


class SequenceFeatures(abc.Sequence):
    """The feature maps of a token sequence, as a read-only sequence of
    dicts that equals the list of :func:`token_features` at every
    position.  It holds the token texts, which alone decide the maps, and
    merges a position's map from their :func:`factored_features` only
    when that position is indexed or iterated; a slice is a list of maps.
    Training reads the texts and builds no map."""

    __slots__ = ("texts", "_factored")

    def __init__(self, texts: Sequence[str]):
        self.texts = tuple(texts)
        self._factored = None

    def __len__(self) -> int:
        return len(self.texts)

    def _rows(self, positions: Iterable[int]):
        if self._factored is None:
            self._factored = factored_features([self])
        fragments, parts = self._factored
        return (_merged_features(fragments, parts[i].tolist()) for i in positions)

    def __getitem__(self, i):
        n = len(self.texts)
        if isinstance(i, slice):
            return list(self._rows(range(*i.indices(n))))
        i = index(i)
        if not -n <= i < n:
            raise IndexError(f"position {i} out of range for sequence of {n} tokens")
        return next(self._rows((i % n,)))

    def __iter__(self):
        return self._rows(range(len(self.texts)))

    def __eq__(self, other):
        if isinstance(other, (list, SequenceFeatures)):
            return list(self) == list(other)
        return NotImplemented


def sequence_features(tokens: Sequence[Token | str]) -> SequenceFeatures:
    """The feature map of every position of *tokens* (or token texts), built on access."""
    texts = tuple(t if isinstance(t, str) else t.text for t in tokens)
    if "" in texts:
        raise ValueError("a token's text is empty")
    return SequenceFeatures(texts)


def _text_features(d: int, attrs: tuple) -> dict:
    """The keys a position takes from the token at offset *d*."""
    return dict(zip(_TEXT_KEYS[d], attrs))


def _pattern_features(before: int, after: int) -> dict:
    """The keys a position takes from its place in its sequence: ``bias``,
    its own edge flags and those of its in-range neighbours, with *before*
    and *after* the steps to the sequence's first and last position, each
    capped at ``MAX_RADIUS + 1``."""
    feats = {"bias": 1.0, "0:BOS": before == 0, "0:EOS": after == 0}
    for d, edge in _NEIGHBOURS:
        if -before <= d <= after:
            feats[edge] = d == (-before if d < 0 else after)
    return feats


_PARTS = 2 * MAX_RADIUS + 2  # a text fragment per offset, then the pattern
PATTERN_SIDE = MAX_RADIUS + 2  # a pattern's code is before * PATTERN_SIDE + after
# the keys of a position pattern after ``bias``, in the order that
# :func:`_pattern_features` lists them
PATTERN_KEYS = ("0:BOS", "0:EOS", *(edge for _, edge in _NEIGHBOURS))


def indicators(features: dict) -> list[tuple[str, float]]:
    """Binarize one feature map into (indicator, value) pairs."""
    out = []
    for key, value in features.items():
        if value is True:
            out.append((key + "=true", 1.0))
        elif value is False:
            out.append((key + "=false", 1.0))
        elif isinstance(value, str):
            out.append((key + "=" + value, 1.0))
        else:
            out.append((key, float(value)))
    return out


def _pattern_slots() -> tuple[dict[str, int], np.ndarray]:
    slots: dict[str, int] = {}
    table = np.zeros((1 + len(PATTERN_KEYS), PATTERN_SIDE**2), dtype=np.intp)
    for code in range(PATTERN_SIDE**2):
        feats = _pattern_features(*divmod(code, PATTERN_SIDE))
        for j, key in enumerate(("bias", *PATTERN_KEYS)):
            if key in feats:
                ((ind, _),) = indicators({key: feats[key]})
                table[j, code] = slots.setdefault(ind, len(slots) + 1)
    return slots, table


# PATTERN_SLOTS: every indicator that a position pattern gives -> its
# slot, from 1; PATTERN_SLOT_ROWS[j, code]: the slot of the indicator
# that key j, ``bias`` and then those of PATTERN_KEYS, gives in the
# pattern of that code, 0 if the pattern has no key j
PATTERN_SLOTS, PATTERN_SLOT_ROWS = _pattern_slots()


# a hash of the templates, the ``special`` categories (S for a kind not
# listed) and the pattern keys, which a trained model records and loading checks
FEATURE_FINGERPRINT = hashlib.sha256(json.dumps(
    [TEMPLATES, MAX_RADIUS, _SPECIAL_KINDS, _SPECIAL_TEXTS, "S", PATTERN_KEYS], sort_keys=True
).encode()).hexdigest()[:16]


def pattern_codes(lengths: Sequence[int]) -> np.ndarray:
    """The position-pattern code of every position of consecutive
    sequences of the given *lengths*: ``before * PATTERN_SIDE + after``,
    with *before* and *after* the steps to the position's sequence start
    and end, each capped at ``MAX_RADIUS + 1``."""
    n = np.asarray(lengths, dtype=np.intp)
    ends = n.cumsum()
    at = np.arange(n.sum())
    before = at - (ends - n).repeat(n)
    after = (ends - 1).repeat(n) - at
    np.minimum(before, MAX_RADIUS + 1, out=before)
    np.minimum(after, MAX_RADIUS + 1, out=after)
    before *= PATTERN_SIDE
    before += after
    return before


def factored_features(sequences: Sequence[Sequence[dict]]) -> tuple[list[dict], np.ndarray]:
    """The feature maps of *sequences* as (fragments, parts): row j of
    parts holds the indices of the fragments whose keys, merged, are the
    map of the j-th position, the positions taken sequence by sequence;
    -1 marks an empty slot.  No two fragments of a row share a key.

    The :class:`SequenceFeatures` among *sequences* are laid out together
    by one :func:`padded_layout` call and no map of theirs is built.  Each
    of their positions has a fragment per in-range offset d, the keys it
    takes from the token text at d, and one for its position pattern, see
    :func:`_pattern_features`; each distinct fragment is listed once.
    Any other sequence is a sequence of maps, and each map is a fragment
    of its own, the only one of its row."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    laid = [s for s, seq in enumerate(sequences) if isinstance(seq, SequenceFeatures)]
    plain = [s for s, seq in enumerate(sequences) if not isinstance(seq, SequenceFeatures)]
    parts = np.full((int(lengths.sum()), _PARTS), -1, dtype=np.int32)
    fragments: list[dict] = []
    if laid:
        n = lengths[laid]
        texts = [t for s in laid for t in sequences[s].texts]
        attrs, which = padded_layout(texts, n.tolist())
        entries = which[np.flatnonzero(which)[:, None] + np.arange(-MAX_RADIUS, MAX_RADIUS + 1)]
        # a text fragment's code is (offset slot, entry); the patterns' follow
        patterns = (_PARTS - 1) * len(attrs)
        codes = np.empty((len(entries), _PARTS), dtype=np.int32)
        codes[:, :-1] = np.where(entries, np.arange(_PARTS - 1) * len(attrs) + entries, -1)
        codes[:, -1] = patterns + pattern_codes(n)
        present = codes >= 0
        distinct, ids = np.unique(codes[present], return_inverse=True)
        codes[present] = ids  # now fragment indices
        for code in distinct.tolist():
            if code < patterns:
                slot, k = divmod(code, len(attrs))
                fragments.append(_text_features(slot - MAX_RADIUS, attrs[k]))
            else:
                fragments.append(_pattern_features(*divmod(code - patterns, PATTERN_SIDE)))
        parts[np.concatenate([np.arange(starts[s], starts[s] + lengths[s]) for s in laid])] = codes
    for s in plain:
        parts[starts[s] : starts[s] + lengths[s], 0] = np.arange(lengths[s]) + len(fragments)
        fragments += sequences[s]
    return fragments, parts


# every key a token's text gives a position -> (offset, column): the key
# describes that column of the token at that offset from the position
_KEY_COLUMNS = {key: (d, c) for d, names in _TEXT_KEYS.items() for c, key in enumerate(names)}


def parse_indicator(indicator: str) -> tuple[int, int, object] | None:
    """The (offset, column, value) that :func:`indicators` wrote
    *indicator* from, or None if no token text gives it: a position
    pattern's indicators, ``bias`` among them, parse to None.

    The value is a flag's ``True`` / ``False`` or a category string; for
    a numeric column it is None, as the token supplies it."""
    key, eq, text = indicator.partition("=")  # a key never holds "="
    source = _KEY_COLUMNS.get(key)
    if source is None:
        return None
    d, c = source
    if COLUMNS[c] in NUMERIC_ATTRIBUTES:
        return None if eq else (d, c, None)
    if COLUMNS[c] in FLAGS:
        value = {"true": True, "false": False}.get(text)  # "" if there is no "="
        return None if value is None else (d, c, value)
    return (d, c, text) if eq else None


def format_features(feats: dict) -> str:
    """Key-sorted, one entry per line, with Python-literal values."""
    return "\n".join(f"{key!r}: {feats[key]!r}" for key in sorted(feats))
