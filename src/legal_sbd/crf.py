"""Linear-chain conditional random field over BILOU labels.

Scoring, exact log-partition and marginals via forward-backward, Viterbi
decoding, and maximum-likelihood training with elastic-net regularization
(L1 handled by the orthant-wise optimizer, L2 inside the smooth
objective).  Forward-backward runs in probability space with a scale per
step (Rabiner 1989), so a sequence thousands of tokens long does not
underflow and a step needs no exp or log.  Log Z comes off the forward
pass alone; the backward pass reuses its scales, so the marginals and
the expected transition counts come off the scaled values directly.
Where extreme weights push a scaled value out of the normal doubles, the
call falls back to the log-space recursions, which are also the oracle
of the scaled ones.  Viterbi runs in log space (max-plus).

Training evaluates the objective over the whole batch with one forward
pass, and its gradient with one backward pass over the kept forward
state, which the optimizer asks for only at a point it accepts: a
rejected line-search trial runs the forward pass alone.  The sequences
are stably sorted longest first and laid out time-major, like a packed
sequence: step t holds one row for each sequence longer than t, and row
i of step t continues row i of step t - 1, so each step of every
training recursion is one array operation over contiguous rows, which
:func:`_pack` lists once.  The packing (:class:`_Packing`) also holds
the state of the scaled passes, allocated once per batch: the buffers
the passes fill in place and each step's views of them, so an evaluation
allocates no pass buffer and a step slices nothing.  Nothing is padded,
so memory grows with the number of tokens, not with the batch size times
the longest sequence.  A single sequence is the packed case with one row
per step; :func:`log_partition` runs the forward pass alone on it.

Feature maps (see :mod:`legal_sbd.features`, which states the grammar of
their string indicators) are merges of the fragments of
``features.factored_features`` and meet a model through
``features.indicators``; indicators unknown to a model score zero.
Scoring feature maps against a :class:`CrfModel` is the reference path;
:func:`score`, :func:`log_partition`, :func:`marginals` and the oracle
tests use it.  It scores through training's own factoring (see below):
the fragments encoded by :func:`_encode_rows` against the model's
indicators, and then ``B @ (W @ weights)``.

Prediction compiles the model instead (:func:`compile_model`): each live
indicator is parsed by ``features.parse_indicator`` into the row of a
weight array over (window offset, value of its column), plane p holding
offset p - MAX_RADIUS, or, if a position pattern gives it, looked up by
its string in ``features.PATTERN_SLOTS`` for the table of patterns.  The
parse of the model compiled last is reused by the next prediction run
while the model's state weights are the read-only mapping it parsed (new
weights are a new mapping), so a run on an unchanged model parses
nothing and a changed model is parsed anew.  No feature map or indicator
string is built.  Per offset d, a call folds one table over its distinct
token texts (:func:`_offset_tables`): a text's row sums, from zero, the
weight rows of the keys it gives at d, column by column in
``features.TEMPLATES`` order, which is the order every fragment, the
centre's included, lists its keys, as ``W @ state`` sums that
fragment's row.  The parse keeps these rows across calls in its memo,
:class:`_TextMemo` (its bound, reset rule and lock are stated there), so
a call folds rows only for the texts the memo lacks, and the first call
after a model is parsed folds all of its own.

This is where bit identity is anchored.  On the same tokens, the
compiled scores, the reference path's scores of a ``SequenceFeatures``
and training's ``U = B @ (W @ state)`` are the same doubles, because all
three add the same rows in the same order: within a fragment, its keys
in the order it lists them; within a position, its fragments from offset
-MAX_RADIUS to MAX_RADIUS and then its pattern, each sum starting from
zero.  A weight the model lacks adds an exact zero.  For a sequence of
plain maps B is the identity, so the reference path sums each map's
indicators in the order it lists them.

A prediction run scores and decodes all of its texts as one batch.  Their
token texts are laid out as ``features.padded_layout`` lays them
(``features.padded_rows``), each row holding its text's memo row, and
each offset is one slice gather from its table over the padded rows of
the whole batch: a padding row has entry 0, whose row of every table is
zero, so no offset reaches from one text into the next.  The padding
rows between texts are scored too and then dropped, which measured
faster than gathering the token rows alone, and the token rows then add
their patterns, coded by ``features.pattern_codes`` as training codes
them, in one more gather.  :func:`viterbi` then decodes every text at
once, with max-plus steps only.  A text of T tokens is cut into blocks of
about sqrt(T / 3) tokens from its own first token and decoded by a
blocked scan, in about 3 * sqrt(T) steps instead of one per token; a
text shorter than ``_MIN_CUT`` tokens is one block.  The texts cut into
blocks of one length share a zero-padded grid, and so do the one-block
texts, and every max-plus operation runs over a grid's blocks, with them
innermost, since numpy pays its loop overhead per element of the outer
axes.  The back pointers are taken after the scan from the stored
scores, by the same sums, so ties still go to the lowest label index.
Whether and where a text is cut depends on its own length only, and no
sum mixes two texts, so a text's labels do not depend on the other
texts of the run.

Training encodes the same indicators without merging a map per
position.  Its indicator matrix X, one row per position and one column
per vocabulary indicator, is the product ``X = B @ W``.  A row of W is a
fragment encoded by :func:`_encode_rows`, or, for a sequence of plain
dicts, a whole map.  B is 0/1 and picks each position's fragments, at
most 22 of them, which share no key, so ``B @ W`` holds X's values
exactly.  A fragment occurs at many positions, so W is encoded once per
distinct fragment, and the objective's products ``U = B @ (W @ state)``
and ``W.T @ (B.T @ m)`` touch far fewer entries than X has.  The latter
reads B and W through their transposed (CSC) views, which add up each
output row in the order a stored CSR transpose would, so none is stored.

The label set is ``spans.LABELS``, and every weight row, matrix and
vector of a :class:`CrfModel` is indexed in its order; a model file
records the list, and loading rejects any other.  Training flattens a
model into one vector for the optimizer (see :func:`_unpack`), and
:func:`nll_and_gradient` returns its gradient as a ``CrfModel`` of the
same shape.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import compress, islice, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

try:  # the compiled function np.einsum wraps, imported as numpy's einsumfunc does
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .corpus import check_int, json_int, json_number, json_str, read_json_object, write_file
from .errors import DataError, TrainingError
from .features import (
    FEATURE_FINGERPRINT, MAX_RADIUS, NUMERIC_ATTRIBUTES, PATTERN_SIDE, PATTERN_SLOT_ROWS,
    PATTERN_SLOTS, TEMPLATES, _token_attrs, factored_features, indicators, padded_rows,
    parse_indicator, pattern_codes,
)
from .optim import dot, minimize_lbfgs
from .spans import LABELS

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# the one label set: weight rows and matrices are indexed in this order
_LABEL_INDEX = {label: k for k, label in enumerate(LABELS)}
N_LABELS = len(LABELS)


@dataclass(frozen=True)
class TrainingConfig:
    """Training knobs, checked when made or replaced (see ``__post_init__``), then frozen."""

    c1: float = 1.0  # L1 coefficient
    c2: float = 0.001  # L2 coefficient
    max_iterations: int = 100
    lbfgs_memory: int = 10
    convergence_tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("max_iterations", "lbfgs_memory"):
            check_int(name, getattr(self, name), 1)
        for name in ("c1", "c2", "convergence_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DataError(f"{name} must be a finite number, got {value!r}")
        if self.c1 < 0 or self.c2 < 0:
            raise DataError(f"regularizers must be >= 0 (c1={self.c1}, c2={self.c2})")


@dataclass
class LabeledSequence:
    """Per-position feature maps paired with gold BILOU labels; the maps
    are a ``features.SequenceFeatures``, read through its token texts, or
    any sequence of dicts."""

    features: Sequence[dict]
    labels: list[str]


@dataclass
class CrfModel:
    """Weights over the labels of ``spans.LABELS``, in that order.  A mapping
    assigned to ``state_weights`` is copied into one read-only (n, L) matrix
    and stored as a new read-only mapping whose rows are views of it."""

    state_weights: Mapping[str, np.ndarray]  # indicator -> per-label weight row
    transitions: np.ndarray  # dense (L, L), row = from, column = to
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)
    metadata: dict = field(default_factory=dict)

    def __setattr__(self, name, value):
        if name == "state_weights":
            rows = np.array(list(value.values()), dtype=np.float64).reshape(len(value), N_LABELS)
            rows.flags.writeable = False
            super().__setattr__("_state_matrix", rows)
            value = MappingProxyType(dict(zip(value, rows)))
        super().__setattr__(name, value)

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied
        fields = dict(self.state_weights), self.transitions, self.start, self.end, self.metadata
        return type(self), fields


_ENCODE_CHUNK = 512  # rows whose hits are gathered in Python lists at a time


def _encode_rows(feature_maps: Iterable[dict], index: dict[str, int]):
    """One sparse CSR row per feature map holding the values of its
    indicators known to *index*, in feature-map order; unknown indicators
    are dropped.

    The maps are read once, one chunk at a time, and each chunk's hits are
    gathered in Python lists and then kept as arrays, so a long input
    never holds a Python list entry per hit, and a lazy sequence of maps
    never holds them all.  scipy is imported here, so that prediction
    never loads it."""
    from scipy.sparse import csr_matrix

    data, cols, indptr = [np.empty(0)], [np.empty(0, dtype=np.int32)], [0]
    filled = 0
    get = index.get
    maps = iter(feature_maps)
    while chunk := list(islice(maps, _ENCODE_CHUNK)):
        idx: list[int] = []
        vals: list[float] = []
        for fv in chunk:
            for ind, val in indicators(fv):
                k = get(ind)
                if k is not None:
                    idx.append(k)
                    vals.append(val)
            indptr.append(filled + len(idx))
        filled += len(idx)
        data.append(np.array(vals, dtype=np.float64))
        cols.append(np.array(idx, dtype=np.int32))
    return csr_matrix(
        (np.concatenate(data), np.concatenate(cols), np.array(indptr, dtype=np.int32)),
        shape=(len(indptr) - 1, len(index)),
    )


# the most token texts, and characters of them, that a memo holds, unless
# one call alone brings more: a text's rows are 2 * MAX_RADIUS + 1 planes
# of N_LABELS doubles, 840 bytes, so the tables stay under 13.8 MB, and
# the index's keys hold at most 2 ** 18 characters (1 MB even at 4 bytes
# a character) plus about 150 bytes of string header and dict slot per
# text (2.5 MB)
_MEMO_TEXTS = 16_384
_MEMO_CHARS = 2**18


class _TextMemo:
    """The offset-table rows (see :func:`_offset_tables`) of every token
    text scored under one parse, kept from call to call, so that a call
    folds rows only for the texts new to the memo.

    A new parse starts an empty memo, so the first call after a model is
    parsed folds rows for all of its texts.  ``tables`` is (planes,
    capacity, L): row 0 is the zero padding row, and row ``index[text]``
    is that text's row at every plane.  Rows once written never change.
    Growing copies them into a new array, and a call whose new texts
    would take the memo past ``_MEMO_TEXTS`` texts or ``_MEMO_CHARS``
    characters of them starts a new index and array that hold its own
    texts only.  So the memo holds at most max(_MEMO_TEXTS, one call's
    distinct texts) rows, at most 13.8 MB, and keys of at most
    max(_MEMO_CHARS, one call's distinct characters) characters, at most
    3.5 MB more (see ``_MEMO_CHARS``).  A row depends on its own text
    alone, so scores do not depend on what the memo holds.  Callers read
    and extend the index and the tables under ``lock``, then gather from
    the array they were handed without it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.index: dict[str, int] = {}
        self.chars = 0  # the characters of the texts in index
        self.tables = np.zeros((2 * MAX_RADIUS + 1, 1, N_LABELS))

    def rows(self, compiled: CompiledModel, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(tables, the row of each of *texts*), with the rows of the
        texts the memo lacks folded in first."""
        with self.lock:
            index = self.index
            # 0 is the padding row, which no text maps to
            entries = np.fromiter(map(index.get, texts, repeat(0)), dtype=np.intp, count=len(texts))
            if not entries.all():
                new = [text for text in dict.fromkeys(texts) if text not in index]
                chars = self.chars + sum(map(len, new))
                if len(index) + len(new) > _MEMO_TEXTS or chars > _MEMO_CHARS:
                    index = self.index = {}
                    self.tables = np.zeros((len(self.tables), 1, N_LABELS))
                    new = list(dict.fromkeys(texts))
                    chars = sum(map(len, new))
                tables, held = self.tables, 1 + len(index)
                filled = held + len(new)
                if filled > tables.shape[1]:
                    capacity = max(filled, min(2 * filled, _MEMO_TEXTS + 1))
                    tables = np.zeros((len(tables), capacity, N_LABELS))
                    tables[:, :held] = self.tables[:, :held]
                    self.tables = tables
                tables[:, held:filled] = _offset_tables(compiled, list(map(_token_attrs, new)))
                index.update(zip(new, range(held, filled)))
                self.chars = chars
                entries = np.fromiter(map(index.__getitem__, texts), dtype=np.intp, count=len(texts))
            return self.tables, entries


class CompiledModel(NamedTuple):
    """The live state weights of a :class:`CrfModel`, parsed once to score
    tokens without feature maps; built by :func:`compile_model`.

    A call scores its tokens through one table per window offset, whose
    rows, one per token text, ``memo`` (:class:`_TextMemo`) keeps across
    calls under this parse, and through ``pattern``.  Plane p of
    ``weights`` and of the tables holds offset p - MAX_RADIUS, so the
    offsets within a radius r are planes MAX_RADIUS - r to
    MAX_RADIUS + r."""

    transitions: np.ndarray
    start: np.ndarray
    end: np.ndarray
    # per column with a weight, the ids of its values in ``weights``; 0 is
    # every other value, and a numeric column's one id, that of None, holds
    # its rows per unit
    categories: dict[int, dict[object, int]]
    weights: np.ndarray  # (planes, ids, L): the row an id adds at a plane
    # (PATTERN_SIDE ** 2, L): the row each position pattern adds, bias included
    pattern: np.ndarray
    memo: _TextMemo  # the parse's table rows of the texts scored so far


# (state weights, categories, weights, pattern, memo) of the model parsed
# last, whose state weights it holds, so no other object takes their id.  It
# is replaced by one assignment and read once into a local, so concurrent
# callers each see one model's whole parse; a new parse has an empty memo.
_last_parse: tuple | None = None


def compile_model(model: CrfModel) -> CompiledModel:
    """Parse every nonzero state weight of *model* into its row of
    ``weights``, or look it up in ``features.PATTERN_SLOTS``.

    The result shares *model*'s transitions, start and end arrays and is
    never stored on it.  The parse of the model compiled last is kept and
    reused while ``model.state_weights`` is the mapping it parsed, without
    reading a row: state weights are read-only, and new ones are a new
    mapping (see :class:`CrfModel`), so a model changed between calls
    compiles its new weights, and a parse made anew starts an empty ``memo``
    (:class:`_TextMemo`).  Its ``weights`` and ``pattern`` are read-only.
    Indicators the feature set cannot emit, such as ``0:space=true``,
    ``0:length=5`` or ``-3:EOS=true``, score zero on the reference path and
    are dropped.  A pattern's row sums the slot rows of
    ``features.PATTERN_SLOT_ROWS`` from zero, ``bias`` and then
    ``PATTERN_KEYS``, in the order its fragment lists its keys."""
    global _last_parse
    state = model.state_weights
    last = _last_parse
    if last is not None and last[0] is state:
        return CompiledModel(model.transitions, model.start, model.end, *last[1:])
    rows = model._state_matrix
    slots = np.zeros((len(PATTERN_SLOTS) + 1, N_LABELS))  # slot 0: a key the pattern lacks
    categories: dict[int, dict[object, int]] = {}
    planes, ids, picked = [], [], []  # the plane, id and row of each text weight
    for k, ind in compress(enumerate(state), rows.any(axis=1).tolist()):
        parsed = parse_indicator(ind)
        if parsed is not None:
            d, c, value = parsed
            planes.append(MAX_RADIUS + d)
            ids.append(categories.setdefault(c, {}).setdefault(value, len(ids) + 1))
            picked.append(k)
        elif ind in PATTERN_SLOTS:
            slots[PATTERN_SLOTS[ind]] = rows[k]
    weights = np.zeros((2 * MAX_RADIUS + 1, len(ids) + 1, N_LABELS))
    weights[planes, ids] = rows[picked]
    pattern = np.zeros((PATTERN_SIDE**2, N_LABELS))
    for term in np.take(slots, PATTERN_SLOT_ROWS, axis=0):
        pattern += term
    weights.flags.writeable = pattern.flags.writeable = False
    _last_parse = (state, categories, weights, pattern, _TextMemo())
    return CompiledModel(model.transitions, model.start, model.end, *_last_parse[1:])


_TABLE_CHUNK = 4096  # entries whose rows a column folds at a time


def _offset_tables(compiled: CompiledModel, attrs: Sequence) -> np.ndarray:
    """(planes, len(attrs), L) tables over the ``_token_attrs`` tuples
    *attrs*: row k of plane p sums, from zero, the weight rows of the keys
    that entry k gives at offset p - MAX_RADIUS, column by column in
    ``TEMPLATES`` order, the order its text fragment lists them.  A column
    folds over the planes its radius reaches, and over _TABLE_CHUNK
    entries at a time, so its scratch stays that size however many entries
    there are; the centre's holds no ``space`` weight, as ``0:space``
    parses to None."""
    values = list(zip(*attrs))  # column c -> its value for each entry
    tables = np.zeros((len(compiled.weights), len(attrs), N_LABELS))
    for c, (name, radius) in enumerate(TEMPLATES):
        lookup = compiled.categories.get(c)
        if lookup is None:
            continue
        reach = slice(MAX_RADIUS - radius, MAX_RADIUS + radius + 1)
        planes = compiled.weights[reach]
        numeric = name in NUMERIC_ATTRIBUTES
        if numeric:
            per_unit = planes[:, lookup[None], None, :]
            column = np.array(values[c], dtype=np.float64)
        else:
            column = np.array(list(map(lookup.get, values[c], repeat(0))), dtype=np.intp)
        for lo in range(0, len(attrs), _TABLE_CHUNK):
            part = column[lo : lo + _TABLE_CHUNK]
            folded = tables[reach, lo : lo + _TABLE_CHUNK]
            folded += part[:, None] * per_unit if numeric else np.take(planes, part, axis=1)
    return tables


def _token_unary(
    compiled: CompiledModel, texts: Sequence[str], lengths: Sequence[int]
) -> np.ndarray:
    """Unary scores of consecutive sequences of the token *texts* of the
    given *lengths*: training's ``B @ (W @ state)``, the fragments' rows
    summed from zero from offset -MAX_RADIUS to MAX_RADIUS and then the
    pattern's."""
    tables, entries = compiled.memo.rows(compiled, texts)
    which = padded_rows(entries, lengths)
    # U row j is padded row MAX_RADIUS + j, from the first token to the
    # last, so table p, offset p - MAX_RADIUS, reads padded row p + j
    rows = len(which) - 2 * MAX_RADIUS
    U = np.zeros((rows, N_LABELS))
    term = np.empty_like(U)
    # every id is in range, so "clip" changes none; it spares take() the
    # copy of *out* that the default mode makes.  The method, not np.take,
    # whose Python wrapper took about 30 us of a 105-token text's 22
    # gathers on a 2-core x86_64 box
    for p, table in enumerate(tables):
        U += table.take(which[p : p + rows], axis=0, out=term, mode="clip")
    if rows > len(texts):
        # the token rows, gathered into the scratch rows that U is done with
        live = np.flatnonzero(which[MAX_RADIUS : MAX_RADIUS + rows])
        U, term = U.take(live, axis=0, out=term[: len(texts)], mode="clip"), U[: len(texts)]
    U += compiled.pattern.take(pattern_codes(lengths), axis=0, out=term, mode="clip")
    return U


def _factored(fragments: list, parts: np.ndarray, index: dict[str, int]):
    """(B, W), with ``B @ W`` the indicator matrix of the positions of
    *parts* (see ``features.factored_features``), in its row order: B is
    CSR of 0/1 and picks each row's fragments in the order *parts* lists
    them, and W is ``_encode_rows(fragments, index)``."""
    from scipy.sparse import csr_matrix

    present = parts >= 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(present, axis=1))))
    cols = parts[present]
    B = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(len(parts), len(fragments)))
    return B, _encode_rows(fragments, index)


def _unary_matrix(
    model: CrfModel | CompiledModel, features: Sequence, lengths: Sequence[int] | None = None
) -> np.ndarray:
    """Unary scores, shape (T, L): of a list of feature maps under a
    :class:`CrfModel` (the reference path), or of a list of token texts
    under the :class:`CompiledModel` of one, read as consecutive sequences
    of the given *lengths* (default: one sequence).  Both are training's product
    ``B @ (W @ state)`` bit for bit, the reference path through training's
    own factoring."""
    if not features:
        raise ValueError("empty sequence")
    if isinstance(model, CompiledModel):
        return _token_unary(model, features, [len(features)] if lengths is None else lengths)
    index = {ind: k for k, ind in enumerate(model.state_weights)}
    B, W = _factored(*factored_features([features]), index)
    return B @ (W @ model._state_matrix)


_TINY = np.finfo(float).tiny  # the smallest normal double


def _row_max(V: np.ndarray) -> np.ndarray:
    """The max of each row of a (rows, L) array, taken column by column:
    numpy reduces so short an axis row by row, over ten times slower."""
    m = V[:, 0].copy()
    for k in range(1, V.shape[1]):
        np.maximum(m, V[:, k], out=m)
    return m


# Forward-backward runs in probability space, with one set of scales for
# both passes (Rabiner 1989, sec. V.A; Sutton & McCallum 2012, sec. 4.3).
# P = exp(U - row max) and E = exp(trans - max trans) are taken once per
# call, so no exp or log runs in the time loop.  The products are einsums,
# never BLAS, whose sums would depend on the thread count.  The step loops
# call ``c_einsum``, the compiled function that np.einsum wraps, directly:
# it runs the same kernel, so the bits are the same, without the wrapper's
# dispatch, which costs about as much as a product of at most a few dozen
# rows by 5 labels.  (np.matmul is faster still, but sums in another order
# and gives other bits.)  Each step only iterates the views of the
# packing's buffers (:class:`_Packing`), built once per batch, and its
# ufuncs write through positional ``out``; a pass fills the buffers in
# place and returns none of them.  If a scaled value or a scale is not a
# normal double, underflow may have lost exact values, and log Z
# (:func:`_log_z`) or the marginals (:func:`_marginals`), whichever read
# it, fall back to the log-space recursions.


def _forward(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward recursion over packed rows (see :func:`_pack`) into
    the packing's a, s and P, which the next forward pass on it
    overwrites: returns (E, shift).

    A step is a row-by-E product, a product with P, a row sum s and a
    divide by it, so a[r] sums to 1.  exp of :func:`_log_forward` at row r
    is a[r] times the product of s * exp(shift) over r and the rows before
    it in its sequence; shift[r] is the row's max, start included at a
    first row, plus max trans at a row with a predecessor."""
    packing.generation += 1
    P = packing.P
    P0, s0, s0_col, a0 = packing.first
    np.copyto(P, U)
    P0 += start
    shift = _row_max(P)
    np.subtract(P, shift[:, None], P)
    np.exp(P, P)
    trans_shift = trans.max()
    E = np.exp(trans - trans_shift)
    add_rows, multiply, divide = np.add.reduce, np.multiply, np.divide
    add_rows(P0, 1, None, s0)
    divide(P0, s0_col, a0)
    for before, rows, P_rows, s_rows, s_col in packing.forward:
        c_einsum("ri,ij->rj", before, E, out=rows)
        multiply(rows, P_rows, rows)
        add_rows(rows, 1, None, s_rows)
        divide(rows, s_col, rows)
    shift[packing.batch_sizes[0] :] += trans_shift
    return E, shift


def _backward(E: np.ndarray, end: np.ndarray, packing: _Packing) -> None:
    """Scaled backward recursion over packed rows into the packing's b,
    which the next backward pass on it overwrites, from the P and s that
    :func:`_forward` left in the packing and its E: b is exp(end - max
    end) at a sequence's last row, and b[r] = E @ (P * b)[next] / s[next]
    before it, with next the row after r in its sequence.  Dividing by the
    forward pass's scales keeps a[r] @ b[r] the same on every row of a
    sequence."""
    # every row starts as a last row; each step, last first, sets the rows before it
    packing.b[...] = np.exp(end - end.max())
    multiply, divide = np.multiply, np.divide
    for P_rows, rows, after, before, s_col in packing.backward:
        multiply(P_rows, rows, after)
        c_einsum("rj,ij->ri", after, E, out=before)
        divide(before, s_col, before)


def _log_z(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, object]:
    """(log Z of each sequence in the caller's order, the scaled (E, z) or
    log-space alpha that :func:`_marginals` reads with the packing), from
    the forward pass alone: b is exp(end - max end) at every last row, so
    z = a[last] @ b[last], and log Z sums log z, max end and the log
    scales."""
    seq, last, a, s = packing.seq, packing.last, packing.a, packing.s
    n0 = packing.batch_sizes[0]  # the number of sequences
    with np.errstate(all="ignore"):
        E, shift = _forward(U, trans, start, packing)
        b_last = np.tile(np.exp(end - end.max()), (n0, 1))
        # a NaN fails every comparison, so it falls back too
        if a.min() >= _TINY and s.min() >= _TINY and b_last.min() >= _TINY:
            z = np.einsum("rk,rk->r", a[last], b_last)
            scales = np.bincount(seq, weights=np.log(s) + shift, minlength=n0)
            return np.log(z) + end.max() + scales, (E, z)
    alpha = _log_forward(U, trans, start, packing)
    return _logsumexp(alpha[last] + end), alpha


def _marginals(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray, packing: _Packing, forward
) -> tuple[np.ndarray, np.ndarray]:
    """(the marginals of the packed rows, the expected transition counts
    summed over the batch), from the *forward* state of :func:`_log_z` and
    the a, s and P its forward pass left in the packing.  Once b is
    divided by z, a[r] @ b[r] is 1 on every row: the marginals are a * b,
    and the posterior of label i at row prev[j] and k at row n0 + j is
    a[prev[j], i] * E[i, k] * (P * b / s)[n0 + j, k]."""
    seq, prev, last = packing.seq, packing.prev, packing.last
    n0 = packing.batch_sizes[0]  # rows n0: have a predecessor
    if isinstance(forward, tuple):
        E, z = forward
        a, s, P, b = packing.a, packing.s, packing.P, packing.b
        with np.errstate(all="ignore"):
            _backward(E, end, packing)
            if b.min() >= _TINY:
                b /= np.take(z, seq)[:, None]
                m = a * b
                after = b[n0:]
                after *= P[n0:]
                after /= s[n0:, None]
                # np.take gathers rows several times faster than a[prev]
                e_trans = E * np.einsum("ta,tb->ab", np.take(a, prev, 0), after)
                if np.isfinite(m).all() and np.isfinite(e_trans).all():
                    return m, e_trans
        forward = _log_forward(U, trans, start, packing)
    alpha = forward
    beta = _log_backward(U, trans, end, packing)
    log_z = _logsumexp(alpha[last] + end)
    m = np.exp(alpha + beta - log_z[seq, None])
    # one (tokens, L, L) array of log posteriors, built in place
    p = alpha[prev][:, :, None] + trans
    p += (U + beta)[n0:, None, :] - log_z[seq[n0:], None, None]
    return m, np.exp(p, out=p).sum(axis=0)


def _posteriors(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_log_z`'s log Z, then :func:`_marginals`' two arrays."""
    log_z, forward = _log_z(U, trans, start, end, packing)
    return (log_z, *_marginals(U, trans, start, end, packing, forward))


def _log_forward(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, packing: _Packing
) -> np.ndarray:
    """Forward recursion in log space, the oracle and fallback of the
    scaled one: alpha[r, k] is the log of the summed exp-scores of the
    paths that end in label k at row r, U[r, k] included.  An exp and a
    log over a (rows, L, L) block per step."""
    alpha = np.empty_like(U)
    n0 = packing.batch_sizes[0]
    alpha[:n0] = start + U[:n0]
    for before, lo, n in packing.steps:
        b = alpha[before : before + n, :, None] + trans
        m = b.max(axis=1)
        alpha[lo : lo + n] = U[lo : lo + n] + m + np.log(np.exp(b - m[:, None, :]).sum(axis=1))
    return alpha


def _log_backward(
    U: np.ndarray, trans: np.ndarray, end: np.ndarray, packing: _Packing
) -> np.ndarray:
    """Backward recursion in log space, the oracle and fallback of the
    scaled one: beta[r, k] is the log of the summed exp-scores of the
    paths from label k at row r to the end of its sequence, U[r, k]
    excluded; it is ``end`` at a sequence's last row."""
    # every row starts as a last row; each step, last first, sets the rows before it
    beta = np.empty_like(U)
    beta[:] = end
    for before, lo, n in reversed(packing.steps):
        b = trans + (U[lo : lo + n] + beta[lo : lo + n])[:, None, :]
        m = b.max(axis=2)
        beta[before : before + n] = m + np.log(np.exp(b - m[:, :, None]).sum(axis=2))
    return beta


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis."""
    m = v.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(v - m).sum(axis=-1, keepdims=True)))[..., 0]


def score(model: CrfModel, features: Sequence[dict], labels: Sequence[str]) -> float:
    """Unnormalized log score of one label sequence."""
    if len(features) != len(labels):
        raise ValueError(
            f"length mismatch: {len(features)} positions, {len(labels)} labels"
        )
    try:
        y = np.array([_LABEL_INDEX[l] for l in labels], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"unknown label {exc}") from None
    U = _unary_matrix(model, features)
    s = float(model.start[y[0]] + model.end[y[-1]] + U[np.arange(len(y)), y].sum())
    return s + float(model.transitions[y[:-1], y[1:]].sum())


def log_partition(model: CrfModel, features: Sequence[dict]) -> float:
    """Log of the summed exp-scores of all label sequences: :func:`_log_z`
    on a packed batch of one, the forward pass alone."""
    U = _unary_matrix(model, features)
    return float(_log_z(U, model.transitions, model.start, model.end, _pack(np.array([len(U)])))[0][0])


def marginals(model: CrfModel, features: Sequence[dict]) -> np.ndarray:
    """Posterior label probabilities per position, shape (T, L): the rows
    of a packed batch of one are in position order.

    No CLI command uses it; it serves the public API and the oracle tests."""
    U = _unary_matrix(model, features)
    return _posteriors(U, model.transitions, model.start, model.end, _pack(np.array([len(U)])))[1]


_BACK_CHUNK = 4096  # rows of back pointers, or blocks of phase 1, that a step takes at a time
# the lengths a sequence's blocks can have, 1, 2, 3, 4, 6, 8, 12, 16, ...:
# each at most 1.5 times the one before, so one call meets few of them
_LADDER = np.array(sorted({1 << k for k in range(31)} | {3 << k for k in range(30)}))
_LADDER_SQUARES = 3 * _LADDER * _LADDER
# a sequence shorter than this is not cut: below it, one step per position
# measured faster than the blocked scan with its setup
_MIN_CUT = 40
# viterbi starts a new grid at a sequence of at most half the rows of the
# grid's first if that spares the rest of its group this many padding rows
_CUT_ROWS = 4096


def _block_lengths(lengths: np.ndarray) -> np.ndarray:
    """The length of the blocks that each sequence of the given *lengths*
    is cut into, from its own length T alone: T itself, one piece, below
    ``_MIN_CUT``, else the least value b of ``_LADDER`` with 3 * b * b >= T.
    A transfer step works on L times the scores of a chain step, so blocks
    near sqrt(T / 3), shorter than sqrt(T), measured fastest.  The cut
    sequences of one block length share a grid of :func:`viterbi`, so these
    lengths also decide how many grids a call decodes."""
    cut = _LADDER[np.searchsorted(_LADDER_SQUARES, lengths)]
    return np.where(lengths < _MIN_CUT, lengths, cut)


def _back_pointers(before: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """back[r, j]: the lowest label i with the max of before[r, i] +
    trans[i, j], as argmax would pick it, taken _BACK_CHUNK rows at a time
    on transposed views, so each operation runs over the rows of one
    destination label."""
    back = np.zeros((len(before), N_LABELS), dtype=np.uint8)
    to = trans[:, :, None]  # to[i, j]: trans[i, j] as a column over rows
    for lo in range(0, len(before), _BACK_CHUNK):
        rows = before[lo : lo + _BACK_CHUNK].T
        arg = back[lo : lo + rows.shape[1]].T
        best = rows[0] + to[0]
        term = np.empty_like(best)
        for i in range(1, N_LABELS):
            np.add(rows[i], to[i], out=term)
            np.copyto(arg, i, where=term > best)  # a tie keeps the lower label
            np.maximum(best, term, out=best)
    return back


def _chain(G: np.ndarray, model) -> np.ndarray:
    """Phases 1 and 2 of :func:`viterbi` on a grid G of sequences of more
    than one block: E[j, :, s], the best scores at the last position of
    block j < B - 1 of sequence s.  Where block j + 1 is padding, E is
    finite and unused."""
    S, B, b = G.shape[:3]
    to = model.transitions[:, :, None, None]  # [m, k]: trans[m, k] over (L, blocks)
    # 1. X[:, :, s * B + j]: the transfer matrix of block (s, j), for every
    # block of the flat block axis, padding included; a block j = 0 opens
    # its sequence.  Blocks run _BACK_CHUNK at a time through one scratch
    blocks = G.reshape(S * B, b, N_LABELS)
    n = len(blocks)
    chunk = min(n, _BACK_CHUNK)
    sums = np.empty((N_LABELS, N_LABELS, N_LABELS, chunk))  # [m, k, i, j]
    X = np.empty((N_LABELS, N_LABELS, n))
    for lo in range(0, n, chunk):
        Y, scratch = X[:, :, lo : lo + chunk], sums[..., : min(chunk, n - lo)]
        first, *rest = blocks[lo : lo + chunk].transpose(1, 2, 0)[:, :, None]
        Y[:] = model.transitions.T[:, :, None]
        Y[:, :, -lo % B :: B] = model.start[:, None, None]
        Y += first
        for unary in rest:
            np.add(Y[:, None], to, out=scratch)
            np.maximum.reduce(scratch, axis=0, out=Y)
            Y += unary
    # 2. the chain, one block index at a time over every sequence; a first
    # block's matrix rows are all the same, the loop's own scores
    X = X.reshape(N_LABELS, N_LABELS, S, B).transpose(3, 0, 1, 2)  # X[j]: (L, L, S)
    E = np.empty((B - 1, N_LABELS, S))
    E[0] = X[0, :, 0]
    sums = np.empty((N_LABELS, N_LABELS, S))
    for before, matrices, exits in zip(E, X[1:], E[1:]):
        np.add(before, matrices, out=sums)
        np.maximum.reduce(sums, axis=1, out=exits)
    return E


def _decode_grid(G: np.ndarray, pieces: np.ndarray, model) -> None:
    """Decode in place a grid G of :func:`viterbi`, (sequences, blocks, b,
    L) unary scores, sequence s holding its pieces[s] blocks from its first
    position on and zeros after its last: G[s, j, t] becomes the best
    score of a path ending at position t of block j, but the last row of
    each block before its sequence's last holds the chain's E."""
    B, b = G.shape[1:3]
    cols = G.transpose(2, 3, 0, 1)  # cols[t][k, s, j]: label k at position t of block (s, j)
    to = model.transitions[:, :, None, None]  # [i, j]: trans[i, j] over (sequences, blocks)
    if B > 1:
        E = _chain(G, model)
        entry = np.maximum.reduce(E[:, :, None] + model.transitions[:, :, None], axis=1)
        cols[0, :, :, 1:] += entry.transpose(1, 2, 0)
    cols[0, :, :, 0] += model.start[:, None]
    # 3. every block's recursion from its entry vector
    for t in range(1, b):
        cols[t] += np.maximum.reduce(cols[t - 1][:, None] + to, axis=0)
    if B > 1:
        inner = np.arange(B - 1) < pieces[:, None] - 1
        np.copyto(G[:, :-1, -1], E.transpose(2, 0, 1), where=inner[:, :, None])


def viterbi(
    model: CrfModel | CompiledModel, features: Sequence, lengths: Sequence[int] | None = None
) -> list[str]:
    """Highest-scoring label sequences of consecutive sequences of the
    given *lengths* (default: one sequence), as one flat list: of a list of
    feature maps under a model, or of a list of token texts under a
    compiled model.  Ties resolve to the lowest label index at each sequence's final
    position and at every backtrack step.  Lengths other than positive integers
    (``int`` or numpy, not bool) summing to len(features) raise ``ValueError``.

    All sequences are decoded by a blocked max-plus scan (Hassan, Särkkä &
    García-Fernández 2021; Maleki, Musuvathi & Mytkowicz 2014).  A
    sequence of T positions is cut, from its own first position, into
    blocks of b positions, the last one of at most b, with b from
    :func:`_block_lengths`: near sqrt(T / 3), and T, one block, for a short
    sequence.  The sequences of more than one block of one length b share
    a grid, (sequences, blocks, b, L), longest first, and the one-block
    sequences one as wide as the longest of them, cut as ``_CUT_ROWS``
    says.  One scatter copies each sequence's unary scores into its grid
    from its first row on, zeros padding its end.  Then, per grid
    (:func:`_decode_grid`):

    1. the max-plus transfer matrix of every block, in b - 1 steps;
    2. each block's entry vector, from the best scores at the last
       position of the block before it, one small step per block index;
    3. every block's recursion from its entry vector, in b - 1 steps.

    So a sequence takes about 2 * b + T / b max-plus steps, about 3 *
    sqrt(T), instead of T - 1, each over (L, sequences, blocks) views,
    numpy's inner loop running over the blocks, not over 5 labels.  A
    position's predecessor is the row before it.  The chain's scores are
    written over the rows they stand for before the back pointers are
    taken from the stored scores by the same sums, so the path walked is
    the argmax path of the scores computed.  They sum the loop's terms
    grouped differently: with integer weights every sum is exact and the
    labels are the loop's, ties included; with real weights they agree
    unless two paths score within rounding of each other.  Where a
    sequence is cut depends on its own length only, and neither its
    padding nor its grid mates enter a sum of its own positions, so its
    labels do not depend on the other sequences of the call."""
    given = [len(features)] if lengths is None else lengths
    # np.array would truncate 2.7 to 2 and read True as 1
    integers = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in given)
    lengths = np.array(given if integers else [], dtype=np.intp)
    if not lengths.size or lengths.min() < 1 or lengths.sum() != len(features):
        raise ValueError(f"sequence lengths [{', '.join(map(str, given))}] "
                         f"do not split {len(features)} positions")
    U = _unary_matrix(model, features, lengths)
    block = _block_lengths(lengths)
    pieces = (lengths - 1) // block + 1
    key = np.where(pieces > 1, block, 0)  # the group: its block length, 0 if one block
    order = np.lexsort((-lengths, key))
    keys = key[order].tolist()
    grids = []  # [first row, sequences, blocks, b, first sorted sequence]
    firsts = []  # each sorted sequence's first row
    rows = 0
    for i, (k, B, T) in enumerate(zip(keys, pieces[order].tolist(), lengths[order].tolist())):
        h = B * (k or T)  # its rows in a grid of its own
        if not grids or k != keys[i - 1] or (
            2 * h <= height and (height - h) * (bisect_right(keys, k) - i) >= _CUT_ROWS
        ):
            height = h
            grids.append([rows, 0, B, k or T, i])
        grids[-1][1] += 1
        firsts.append(rows)
        rows += height
    starts = np.empty_like(lengths)
    starts[order] = firsts
    ends = lengths.cumsum()
    D = np.zeros((rows, N_LABELS))
    D[(starts - ends + lengths).repeat(lengths) + np.arange(len(U))] = U
    del U
    for first, S, B, b, i in grids:
        G = D[first : first + S * B * b].reshape(S, B, b, N_LABELS)
        _decode_grid(G, pieces[order[i : i + S]], model)
    # back[r, k]: the label at row r on the best path to label k at row r + 1
    back = memoryview(_back_pointers(D[:-1], model.transitions).reshape(-1))
    last = starts + lengths - 1
    best = (D[last] + model.end).argmax(axis=1)
    labels = [""] * len(features)
    for i, k, end, n in zip((last * N_LABELS).tolist(), best.tolist(), ends.tolist(), lengths.tolist()):
        labels[end - 1] = LABELS[k]
        for pos in range(end - 2, end - n - 1, -1):
            i -= N_LABELS
            k = back[i + k]
            labels[pos] = LABELS[k]
    return labels


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _collect_vocabulary(
    feature_maps: Iterable[dict], known: Iterable[str] = ()
) -> dict[str, int]:
    """Weight-row index of every indicator in *feature_maps* or *known*,
    in sorted indicator order.  Training passes the fragments of
    ``features.factored_features``, which hold every indicator of the
    batch's maps and no other."""
    vocab = set(known)
    for fv in feature_maps:
        for ind, _ in indicators(fv):
            vocab.add(ind)
    return {ind: k for k, ind in enumerate(sorted(vocab))}


class _Packing:
    """A batch packed by :func:`_pack`, and the state of its scaled passes:
    the buffers a, s, P and b, allocated once, which :func:`_forward` and
    :func:`_backward` fill in place, and the views of them each step of
    theirs reads and writes, so a pass slices nothing.  ``first`` holds the
    first step's (P, s, s as a column, a) rows; ``forward`` holds per step
    t >= 1, in time order, (a at step t - 1, a, P, s and s as a column at
    step t), and ``backward``, last step first, (P, b and the scratch rows
    at step t, b at step t - 1, s as a column at step t).  ``generation``
    counts the forward passes, so that a kept forward state can tell it was
    overwritten."""

    __slots__ = ("batch_sizes", "seq", "step", "prev", "last", "steps",
                 "a", "s", "P", "b", "first", "forward", "backward", "generation")

    def __init__(self, batch_sizes, seq, step, prev, last, steps):
        self.batch_sizes = batch_sizes  # rows per time step
        self.seq = seq  # packed row -> caller's sequence index
        self.step = step  # packed row -> position in its sequence
        self.prev = prev  # row batch_sizes[0] + j -> the row one step earlier
        self.last = last  # caller's sequence index -> row of its last position
        # per step t >= 1: (first row of step t - 1, first row of step t, rows
        # of step t), the one step table every packed recursion iterates
        self.steps = steps
        n0 = batch_sizes[0]
        a, P, b = (np.empty((len(seq), N_LABELS)) for _ in range(3))
        s = np.empty(len(seq))
        self.a, self.s, self.P, self.b = a, s, P, b
        s_col = s[:, None]
        self.first = (P[:n0], s[:n0], s_col[:n0], a[:n0])
        scratch = np.empty((n0, N_LABELS))
        self.forward, self.backward = [], []
        for before, lo, n in steps:
            here, there = slice(lo, lo + n), slice(before, before + n)
            P_rows, s_rows = P[here], s_col[here]
            self.forward.append((a[there], a[here], P_rows, s[here], s_rows))
            self.backward.append((P_rows, b[here], scratch[:n], b[there], s_rows))
        self.backward.reverse()
        self.generation = 0


def _pack(lengths: np.ndarray) -> _Packing:
    """Time-major packed layout of sequences of the given lengths, with
    the buffers and step views of its scaled passes.

    Sequences are stably sorted longest first; step t then holds one row
    for each of the first batch_sizes[t] of them, the ones longer than t,
    so row i of step t continues row i of step t - 1, the slices that
    ``steps`` lists for each t >= 1, in time order.
    """
    order = np.argsort(-lengths, kind="stable")
    batch_sizes = np.bincount(lengths - 1)[::-1].cumsum()[::-1]
    firsts = batch_sizes.cumsum() - batch_sizes  # each step's first row
    step = np.repeat(np.arange(len(batch_sizes)), batch_sizes)
    within = np.arange(len(step)) - firsts[step]  # each row's place in its step
    n0 = batch_sizes[0]
    prev = firsts[:-1].repeat(batch_sizes[1:]) + within[n0:]
    rank = np.empty_like(order)
    rank[order] = within[:n0]
    steps = list(zip(firsts[:-1].tolist(), firsts[1:].tolist(), batch_sizes[1:].tolist()))
    return _Packing(
        batch_sizes.tolist(), order[within], step, prev, firsts[lengths - 1] + rank, steps
    )


class _Encoded(NamedTuple):
    """A training batch, its rows in the packed order of :func:`_pack`.  The
    gradient reads B and W through their transposed views; no copy is kept."""

    B: object  # CSR (rows, fragments) of 0/1: each row's fragments
    W: object  # CSR (fragments, indicators): each fragment's indicator values
    y: np.ndarray  # row -> gold label index
    cells: np.ndarray  # row -> index of its gold cell in a flattened (rows, L) array
    pairs: np.ndarray  # row batch_sizes[0] + j -> index of its gold pair in a flattened (L, L) array
    observed_trans: np.ndarray  # (L, L) counts of the gold label pairs
    packing: _Packing


def _encode_sequences(
    batch: Sequence[LabeledSequence], known: Iterable[str] = ()
) -> tuple[dict[str, int], _Encoded]:
    """The vocabulary of *batch* and *known* (see :func:`_collect_vocabulary`)
    and the batch encoded against it, its indicator matrix factored as
    ``X = B @ W`` over the fragments of ``features.factored_features``.
    Layout-backed feature sequences are read through their texts; no map
    of theirs is built."""
    label_ids = []
    for s, seq in enumerate(batch):
        if not seq.features:
            raise DataError(f"sequence {s} is empty")
        if len(seq.features) != len(seq.labels):
            raise DataError(
                f"sequence {s}: {len(seq.features)} positions vs {len(seq.labels)} labels"
            )
        try:
            label_ids.append(np.array([_LABEL_INDEX[l] for l in seq.labels], dtype=np.intp))
        except KeyError as exc:
            raise DataError(f"sequence {s}: unknown label {exc}") from exc
    lengths = np.array([len(seq.labels) for seq in batch])
    fragments, parts = factored_features([seq.features for seq in batch])
    packing = _pack(lengths)  # its buffers come after the encoder's temporaries are freed
    vocab = _collect_vocabulary(fragments, known)
    # the row of each packed row in batch order, where parts lists them
    rows = (np.cumsum(lengths) - lengths)[packing.seq] + packing.step
    B, W = _factored(fragments, parts[rows], vocab)
    y = np.concatenate(label_ids)[rows]
    cells = np.arange(len(y)) * N_LABELS + y
    pairs = y[packing.prev] * N_LABELS + y[packing.batch_sizes[0] :]
    observed_trans = np.bincount(pairs, minlength=N_LABELS * N_LABELS).reshape(N_LABELS, N_LABELS)
    return vocab, _Encoded(B, W, y, cells, pairs, observed_trans, packing)


def _n_params(n_features: int) -> int:
    return (n_features + N_LABELS + 2) * N_LABELS


def _unpack(wvec: np.ndarray):
    """(state, transitions, start, end) as views into the optimizer's
    weight vector: a row of N_LABELS weights per indicator in vocabulary
    order, then the transitions row by row, then start and end."""
    fl = len(wvec) - (N_LABELS + 2) * N_LABELS
    state = wvec[:fl].reshape(-1, N_LABELS)
    trans = wvec[fl : fl + N_LABELS * N_LABELS].reshape(N_LABELS, N_LABELS)
    start, end = wvec[fl + N_LABELS * N_LABELS :].reshape(2, N_LABELS)
    return state, trans, start, end


def _to_model(wvec: np.ndarray, vocab: dict[str, int]) -> CrfModel:
    """A copy of *wvec* as a model, one state row per *vocab* entry."""
    state, trans, start, end = _unpack(wvec)
    return CrfModel(
        state_weights=dict(zip(vocab, state)),  # vocab numbers its keys in order
        transitions=trans.copy(),
        start=start.copy(),
        end=end.copy(),
    )


def _batch_objective(wvec, encoded: _Encoded, c2):
    """Regularized NLL over a batch encoded by :func:`_encode_sequences`,
    from one forward pass over every sequence at once, and a function of
    no arguments that returns its gradient from the backward pass on the
    kept forward state; *wvec* must not change before it is called.  The
    forward state lives in the buffers of the batch's packing, so a batch
    is evaluated one point at a time: once the batch is evaluated again,
    the earlier point's gradient function raises ``RuntimeError``.  The
    unary scores are ``B @ (W @ state)`` and the state gradient ``W.T @
    (B.T @ m)``, X's two products taken through its factors, the latter
    on the transposed (CSC) views of B and W."""
    B, W, y, cells, pairs, observed_trans, packing = encoded
    seq, last = packing.seq, packing.last
    n0 = packing.batch_sizes[0]  # the number of sequences; rows n0: have a predecessor
    state, trans, start, end = _unpack(wvec)
    U = B @ (W @ state)
    log_z, forward = _log_z(U, trans, start, end, packing)
    generation = packing.generation
    gold = np.take(U, cells)
    gold[:n0] += start[y[:n0]]
    gold[n0:] += np.take(trans, pairs)
    gold[last] += end[y[last]]
    contributions = log_z - np.bincount(seq, weights=gold, minlength=n0)
    bad = np.flatnonzero(~np.isfinite(contributions))
    if bad.size:
        raise TrainingError(
            f"non-finite objective at sequence {bad[0]} "
            f"(weight norm {math.sqrt(dot(wvec, wvec)):.3e})"
        )

    def gradient():
        if packing.generation != generation:
            raise RuntimeError("the batch was evaluated again, over this point's forward state")
        m, e_trans = _marginals(U, trans, start, end, packing, forward)
        np.put(m, cells, np.take(m, cells) - 1.0)  # now expected minus observed counts
        grad = 2.0 * c2 * wvec
        g_state, g_trans, g_start, g_end = _unpack(grad)
        g_state += W.T @ (B.T @ m)
        g_trans += e_trans - observed_trans
        g_start += m[:n0].sum(axis=0)
        g_end += m[last].sum(axis=0)
        return grad

    return float(contributions.sum()) + c2 * dot(wvec, wvec), gradient


def nll_and_gradient(
    model: CrfModel, batch: Sequence[LabeledSequence], config: TrainingConfig
) -> tuple[float, CrfModel]:
    """Smooth training objective (NLL plus the L2 term) and its gradient,
    shaped like a model.

    The gradient has a state row for every indicator present in the model
    or the batch; the L1 term is the optimizer's business and is not
    included here.
    """
    if not batch:
        raise DataError("empty batch")
    vocab, encoded = _encode_sequences(batch, known=model.state_weights)
    wvec = np.zeros(_n_params(len(vocab)))
    state, trans, start, end = _unpack(wvec)
    state[[vocab[ind] for ind in model.state_weights]] = model._state_matrix
    trans[:] = model.transitions
    start[:] = model.start
    end[:] = model.end
    value, gradient = _batch_objective(wvec, encoded, config.c2)
    return value, _to_model(gradient(), vocab)


def train(
    sequences: Sequence[LabeledSequence],
    config: TrainingConfig | None = None,
    extra_metadata: dict | None = None,
) -> CrfModel:
    """Fit a CRF by penalized maximum likelihood.

    Minimizes ``NLL + c1*||w||_1 + c2*||w||_2^2`` with OWL-QN when
    ``c1 > 0`` and plain L-BFGS otherwise, starting from zero weights.
    Deterministic: the same sequences in the same order yield bitwise
    identical weights.  The transition matrix stays dense, so label pairs
    never observed in training still carry a (possibly zero) weight.
    """
    config = config or TrainingConfig()
    if not sequences:
        raise DataError("no training sequences")
    vocab, encoded = _encode_sequences(sequences)
    if not vocab:
        raise DataError("empty feature space: no indicators in the training data")
    n_params = _n_params(len(vocab))
    logger.info(
        "training CRF: %d sequences, %d indicators, %d parameters",
        len(sequences), len(vocab), n_params,
    )

    def objective(wvec):
        return _batch_objective(wvec, encoded, config.c2)

    def log_progress(iteration, value):
        logger.info("iteration %d: objective %.6f", iteration, value)

    result = minimize_lbfgs(
        objective,
        np.zeros(n_params),
        l1=config.c1,
        max_iterations=config.max_iterations,
        memory=config.lbfgs_memory,
        tol=config.convergence_tol,
        callback=log_progress,
    )
    logger.info(
        "training stopped (%s) after %d iterations: %d evaluations, %d gradients",
        result.stop_reason, result.iterations, result.evaluations, result.gradients,
    )
    model = _to_model(result.x, vocab)
    model.state_weights = {ind: row for ind, row in model.state_weights.items() if row.any()}
    model.metadata = {
        **asdict(config),
        "iterations_run": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "objective_evaluations": result.evaluations,
        "final_objective": result.fun,
        "n_sequences": len(sequences),
        "format_version": MODEL_FORMAT_VERSION,
    }
    if extra_metadata:
        model.metadata.update(extra_metadata)
    return model


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt_weight(w: float) -> str:
    # 17 significant digits round-trip any IEEE double exactly
    return format(float(w), ".17g")


def model_to_json(model: CrfModel) -> str:
    """Canonical (byte-stable) JSON text for a model.

    State weights are sorted by (indicator, label position) and exact-zero
    entries are dropped; absent indicators score zero anyway.
    """
    for name, arr in (
        ("transitions", model.transitions), ("start", model.start), ("end", model.end),
    ):
        if not np.all(np.isfinite(arr)):
            raise DataError(f"model has non-finite {name} weights")
    out = ["{\n"]
    out.append(f'  "version": {MODEL_FORMAT_VERSION},\n')
    out.append(f'  "labels": {json.dumps(list(LABELS))},\n')
    triples = []
    for ind in sorted(model.state_weights):
        row = model.state_weights[ind]
        if not np.all(np.isfinite(row)):
            raise DataError(f"model has non-finite weights for indicator {ind!r}")
        for k, w in enumerate(row):
            if w != 0.0:
                triples.append(
                    f"    [{json.dumps(ind, ensure_ascii=False)}, "
                    f"{json.dumps(LABELS[k])}, {_fmt_weight(w)}]"
                )
    out.append('  "state_weights": [\n' + ",\n".join(triples) + "\n  ],\n")
    rows = ",\n".join(
        "    [" + ", ".join(_fmt_weight(w) for w in row) + "]"
        for row in model.transitions
    )
    out.append('  "transitions": [\n' + rows + "\n  ],\n")
    out.append('  "start": [' + ", ".join(_fmt_weight(w) for w in model.start) + "],\n")
    out.append('  "end": [' + ", ".join(_fmt_weight(w) for w in model.end) + "],\n")
    out.append(
        '  "metadata": '
        + json.dumps(model.metadata, sort_keys=True, ensure_ascii=False, default=float)
        + "\n"
    )
    out.append("}\n")
    return "".join(out)


def save_model(model: CrfModel, path) -> None:
    """Write :func:`model_to_json` to *path* through ``corpus.write_file``:
    a model UTF-8 cannot encode (a lone surrogate) raises
    :class:`DataError` naming the indicator, and an existing file stays."""
    write_file(path, model_to_json(model), lambda bad: "model " + next(
        (f"indicator {i!r}" for i in sorted(model.state_weights) if bad in i), "metadata"))


def load_model(path) -> CrfModel:
    obj = read_json_object(path, "corrupt model file")
    version = obj.get("version")
    try:
        supported = json_int(version) == MODEL_FORMAT_VERSION
    except TypeError:  # true and 1.0 equal 1, and no writer ever wrote them
        supported = False
    if not supported:
        raise DataError(f"{path}: unsupported model file version {version!r} "
                        f"(expected {MODEL_FORMAT_VERSION})")
    if obj.get("labels") != list(LABELS):
        # the one label set training writes and decode_bilou reads
        raise DataError(f"{path}: label set {obj.get('labels')!r} is not {list(LABELS)}")
    try:
        index: dict[str, int] = {}  # indicator -> its row
        cells: dict[int, float] = {}  # flat (row, label) cell -> weight
        for ind, label, w in obj["state_weights"]:
            # no feature map emits a non-string indicator, and model_to_json writes each pair once
            cell = index.setdefault(json_str(ind), len(index)) * N_LABELS + _LABEL_INDEX[label]
            if cell in cells:
                raise ValueError(f"indicator {ind!r} has two weights for label {label!r}")
            cells[cell] = json_number(w)
        state = np.zeros((len(index), N_LABELS))
        state.flat[list(cells)] = list(cells.values())
        transitions = np.array([[json_number(w) for w in row] for row in obj["transitions"]])
        start, end = (np.array([json_number(w) for w in obj[k]]) for k in ("start", "end"))
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            raise TypeError(f"metadata {metadata!r} is not an object")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from exc
    trained_on = metadata.get("feature_fingerprint", FEATURE_FINGERPRINT)
    if trained_on != FEATURE_FINGERPRINT:
        raise DataError(f"{path}: feature fingerprint {trained_on!r} is not {FEATURE_FINGERPRINT!r}")
    if transitions.shape != (N_LABELS, N_LABELS) or start.shape != (N_LABELS,) or end.shape != (N_LABELS,):
        raise DataError(f"{path}: model weight shapes do not match its label set")
    if not all(np.all(np.isfinite(w)) for w in (transitions, start, end, state)):
        raise DataError(f"{path}: model has non-finite weights")
    return CrfModel(
        state_weights=dict(zip(index, state)),
        transitions=transitions,
        start=start,
        end=end,
        metadata=metadata,
    )
