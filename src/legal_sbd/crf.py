"""Linear-chain conditional random field over BILOU labels.

Scoring, exact log-partition and marginals via forward-backward, Viterbi
decoding, and maximum-likelihood training with elastic-net regularization
(L1 handled by the orthant-wise optimizer, L2 inside the smooth
objective).  Forward-backward runs in probability space with a scale per
step (Rabiner 1989), so a sequence thousands of tokens long does not
underflow and a step needs no exp or log.  The backward pass reuses the
forward pass's scales, so :func:`_posteriors` reads the marginals, the
expected transition counts and log Z off the scaled values directly.
Where extreme weights push a scaled value out of the normal doubles, the
call falls back to the log-space recursions, which are also the oracle
of the scaled ones.  Viterbi runs in log space (max-plus).

Training evaluates the objective over the whole batch with one forward
and one backward pass.  The sequences are stably sorted longest first and
laid out time-major, like a packed sequence: step t holds one row for
each sequence longer than t, and row i of step t continues row i of step
t - 1, so each step of the recursion is one array operation over
contiguous rows.  Nothing is padded, so memory grows with the number of
tokens, not with the batch size times the longest sequence.  A single
sequence is the packed case with one row per step.

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
offset p - MAX_RADIUS, or into the table of position patterns.  The
parse of the model compiled last is reused by the next prediction run
while the model's state weights are the same keys in the same order
with byte-equal rows, so a run on an unchanged model parses nothing and
a changed model is parsed anew.  No feature map or indicator string is
built.  Per offset d, a call folds one table over its distinct token
texts (:func:`_offset_tables`): a text's row sums, from zero, the weight
rows of the keys it gives at d, column by column in
``features.TEMPLATES`` order, which is the order every fragment, the
centre's included, lists its keys, as ``W @ state`` sums that
fragment's row.

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
token texts are laid out by ``features.padded_layout``, and each offset is one
slice gather from its table over the padded rows of the whole batch: a
padding row has entry 0, whose row of every table is zero, so no offset
reaches from one text into the next.  The padding rows between texts
are scored too and then dropped, which measured faster than gathering
the token rows alone, and the token rows then add their patterns, coded
by ``features.pattern_codes`` as training codes them, in one more
gather.  :func:`viterbi` then decodes every text at once on the packed
layout, with max-plus steps only.  A text of T tokens is cut into
blocks of about sqrt(T / 3) tokens from its own first token and decoded
by a blocked scan, in about 3 * sqrt(T) steps instead of one per token;
a text shorter than ``_MIN_CUT`` tokens takes one step per token.  The
back pointers are taken after the loop from the stored scores, by the
same sums, so they are the same floating-point values and ties still go
to the lowest label index.  Every max-plus
operation over many rows or blocks runs with them as its innermost
axis, since numpy pays its loop overhead per element of the outer axes,
which with the 5 labels innermost is per row.  Whether and where a text
is cut depends on its own length only, and no sum mixes two texts, so a
text's labels do not depend on the other texts of the run.

Training encodes the same indicators without merging a map per
position.  Its indicator matrix X, one row per position and one column
per vocabulary indicator, is the product ``X = B @ W``.  A row of W is a
fragment encoded by :func:`_encode_rows`, or, for a sequence of plain
dicts, a whole map.  B is 0/1 and picks each position's fragments, at
most 22 of them, which share no key, so ``B @ W`` holds X's values
exactly.  A fragment occurs at many positions, so W is encoded once per
distinct fragment, and the objective's products ``U = B @ (W @ state)``
and ``W.T @ (B.T @ m)`` touch far fewer entries than X has.

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
from dataclasses import asdict, dataclass, field
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import json_number, read_json_object
from .errors import DataError, TrainingError
from .features import (
    FEATURE_FINGERPRINT, MAX_RADIUS, NUMERIC_ATTRIBUTES, PATTERN_KEYS, PATTERN_SIDE,
    PATTERN_VALUES, TEMPLATES, factored_features, indicators, padded_layout, parse_indicator,
    pattern_codes,
)
from .optim import dot, minimize_lbfgs
from .spans import LABELS

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# the one label set: weight rows and matrices are indexed in this order
_LABEL_INDEX = {label: k for k, label in enumerate(LABELS)}
N_LABELS = len(LABELS)


@dataclass
class TrainingConfig:
    c1: float = 1.0  # L1 coefficient
    c2: float = 0.001  # L2 coefficient
    max_iterations: int = 100
    lbfgs_memory: int = 10
    convergence_tol: float = 1e-6

    def validate(self) -> None:
        for name in ("c1", "c2", "convergence_tol"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c1 < 0 or self.c2 < 0:
            raise DataError(f"regularizers must be >= 0 (c1={self.c1}, c2={self.c2})")
        for name in ("max_iterations", "lbfgs_memory"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class LabeledSequence:
    """Per-position feature maps paired with gold BILOU labels; the maps
    are a ``features.SequenceFeatures``, read through its tokens, or any
    sequence of dicts."""

    features: Sequence[dict]
    labels: list[str]


@dataclass
class CrfModel:
    """Weights over the labels of ``spans.LABELS``, in that order."""

    state_weights: dict[str, np.ndarray]  # indicator -> per-label weight row
    transitions: np.ndarray  # dense (L, L), row = from, column = to
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)
    metadata: dict = field(default_factory=dict)


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


class CompiledModel(NamedTuple):
    """The live state weights of a :class:`CrfModel`, parsed once to score
    tokens without feature maps; built by :func:`compile_model`.

    A call scores its tokens through one table per window offset, built by
    :func:`_offset_tables` over the distinct texts of the call, and through
    ``pattern``.  Plane p of ``weights`` and of the tables holds offset
    p - MAX_RADIUS, so the offsets within a radius r are planes
    MAX_RADIUS - r to MAX_RADIUS + r."""

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


_PATTERN_KEY = {key: j for j, key in enumerate(PATTERN_KEYS)}
# [j, code]: the row of a (keys * 3, L) array of per-key (absent, False,
# True) weights that key j adds in the pattern of that code
_PATTERN_ROWS = PATTERN_VALUES.T + 3 * np.arange(len(PATTERN_KEYS))[:, None]


# (keys, row bytes, categories, weights, pattern) of the model parsed
# last.  It is replaced by one assignment and read once into a local, so
# concurrent callers each see one model's whole parse.
_last_parse: tuple | None = None


def compile_model(model: CrfModel) -> CompiledModel:
    """Parse every nonzero state weight of *model* into its row of
    ``weights`` or of its pattern key.

    The result shares *model*'s transitions, start and end arrays and is
    never stored on it.  The parse of the model compiled last is kept and
    reused while the state weights are the same content: the same keys in
    the same order, and rows equal byte for byte (``tobytes``, so ``-0.0``
    differs from ``0.0`` and a NaN equals its own bits), so a model
    changed between calls compiles its new weights.  Its ``weights`` and
    ``pattern`` are read-only.  Indicators the feature set cannot emit,
    such as ``0:space=true``, ``0:length=5`` or ``-3:EOS=true``, score
    zero on the reference path and are dropped.  The pattern table folds
    ``bias`` and then each key of ``PATTERN_KEYS`` over
    ``PATTERN_VALUES``, in the order a pattern fragment lists its keys."""
    global _last_parse
    keys = list(model.state_weights)
    # the empty array makes a model without state weights concatenate, as floats
    rows = np.concatenate([*model.state_weights.values(), np.empty(0)]).reshape(len(keys), N_LABELS)
    content = rows.tobytes()
    last = _last_parse
    if last is not None and last[0] == keys and last[1] == content:
        return CompiledModel(model.transitions, model.start, model.end, *last[2:])
    bias = np.zeros(N_LABELS)
    flags = np.zeros((len(PATTERN_KEYS), 3, N_LABELS))  # key -> absent, False, True
    categories: dict[int, dict[object, int]] = {}
    planes, ids, picked = [], [], []  # the plane, id and row of each text weight
    for k, ind in compress(enumerate(keys), rows.any(axis=1).tolist()):
        parsed = parse_indicator(ind)
        if parsed is None:
            continue
        d, c, value = parsed
        if c is None:
            bias = rows[k]
        elif c >= len(TEMPLATES):  # BOS or EOS, set by the position pattern
            flags[_PATTERN_KEY[ind.partition("=")[0]], 1 + value] = rows[k]
        else:
            planes.append(MAX_RADIUS + d)
            ids.append(categories.setdefault(c, {}).setdefault(value, len(ids) + 1))
            picked.append(k)
    weights = np.zeros((2 * MAX_RADIUS + 1, len(ids) + 1, N_LABELS))
    weights[planes, ids] = rows[picked]
    pattern = np.zeros((PATTERN_SIDE**2, N_LABELS))
    pattern += bias
    for term in np.take(flags.reshape(-1, N_LABELS), _PATTERN_ROWS, axis=0):
        pattern += term
    weights.flags.writeable = pattern.flags.writeable = False
    _last_parse = (keys, content, categories, weights, pattern)
    return CompiledModel(model.transitions, model.start, model.end, categories, weights, pattern)


_TABLE_CHUNK = 4096  # entries whose rows a column folds at a time


def _offset_tables(compiled: CompiledModel, attrs: Sequence) -> np.ndarray:
    """(planes, len(attrs), L) tables over the entries of a
    ``features.padded_layout``: row k of plane p sums, from zero, the
    weight rows of the keys that entry k gives at offset p - MAX_RADIUS,
    column by column in ``TEMPLATES`` order, the order its text fragment
    lists them.  A column folds over the planes its radius reaches, and
    over _TABLE_CHUNK entries at a time, so its scratch stays that size
    however many entries there are; the centre's holds no ``space``
    weight, as ``0:space`` parses to None.  Row 0, padding, is zero."""
    values = list(zip(*attrs[1:]))  # column c -> its value for each entry
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
            column = np.array([0, *values[c]], dtype=np.float64)
        else:
            column = np.array([0, *map(lookup.get, values[c], repeat(0))], dtype=np.intp)
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
    attrs, which = padded_layout(texts, lengths)
    tables = _offset_tables(compiled, attrs)
    # U row j is padded row MAX_RADIUS + j, from the first token to the
    # last, so table p, offset p - MAX_RADIUS, reads padded row p + j
    rows = len(which) - 2 * MAX_RADIUS
    U = np.zeros((rows, N_LABELS))
    term = np.empty_like(U)
    # every id is in range, so "clip" changes none; it spares take() the
    # copy of *out* that the default mode makes
    for p, table in enumerate(tables):
        U += np.take(table, which[p : p + rows], axis=0, out=term, mode="clip")
    if rows > len(texts):
        # the token rows, gathered into the scratch rows that U is done with
        live = np.flatnonzero(which[MAX_RADIUS : MAX_RADIUS + rows])
        U, term = np.take(U, live, axis=0, out=term[: len(texts)], mode="clip"), U[: len(texts)]
    U += np.take(compiled.pattern, pattern_codes(lengths), axis=0, out=term, mode="clip")
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
    weights = np.array(list(model.state_weights.values()), dtype=np.float64)
    B, W = _factored(*factored_features([features]), index)
    return B @ (W @ weights.reshape(len(index), N_LABELS))


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
# never BLAS, whose sums would depend on the thread count.  If a scaled
# value or a scale is not a normal double, underflow may have lost exact
# values, and the whole call falls back to the log-space recursions.


def _forward(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, batch_sizes: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Scaled forward recursion over packed rows (see :func:`_pack`):
    (a, s, P, E, shift).

    A step is a row-by-E product, a product with P, a row sum s and a
    divide by it, so a[r] sums to 1.  exp of :func:`_log_forward` at row r
    is a[r] times the product of s * exp(shift) over r and the rows before
    it in its sequence; shift[r] is the row's max, start included at a
    first row, plus max trans at a row with a predecessor."""
    n0 = batch_sizes[0]
    P = U.copy()
    P[:n0] += start
    shift = _row_max(P)
    np.exp(P - shift[:, None], out=P)
    trans_shift = trans.max()
    E = np.exp(trans - trans_shift)
    a = np.empty_like(U)
    s = np.empty(len(U))
    np.add.reduce(P[:n0], axis=1, out=s[:n0])
    np.divide(P[:n0], s[:n0, None], out=a[:n0])
    prev, lo = 0, n0
    for n in batch_sizes[1:]:
        rows = np.einsum("ri,ij->rj", a[prev : prev + n], E, out=a[lo : lo + n])
        rows *= P[lo : lo + n]
        np.add.reduce(rows, axis=1, out=s[lo : lo + n])
        rows /= s[lo : lo + n, None]
        prev, lo = lo, lo + n
    shift[n0:] += trans_shift
    return a, s, P, E, shift


def _backward(
    P: np.ndarray, E: np.ndarray, s: np.ndarray, end: np.ndarray, batch_sizes: Sequence[int]
) -> np.ndarray:
    """Scaled backward recursion over packed rows, on the P, E and s of
    :func:`_forward`: b is exp(end - max end) at a sequence's last row, and
    b[r] = E @ (P * b)[next] / s[next] before it, with next the row after r
    in its sequence.  Dividing by the forward pass's scales keeps a[r] @
    b[r] the same on every row of a sequence."""
    # every row starts as a last row; the loop overwrites the rows that
    # have a successor
    b = np.empty_like(P)
    b[:] = np.exp(end - end.max())
    scratch = np.empty_like(P[: batch_sizes[0]])
    hi = len(P)
    n_next = 0
    for n in reversed(batch_sizes):
        lo = hi - n
        if n_next:
            after = np.multiply(P[hi : hi + n_next], b[hi : hi + n_next], out=scratch[:n_next])
            rows = np.einsum("rj,ij->ri", after, E, out=b[lo : lo + n_next])
            rows /= s[hi : hi + n_next, None]
        hi, n_next = lo, n
    return b


def _posteriors(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log Z of each sequence in the caller's order, the marginals of the
    packed rows, the expected transition counts summed over the batch).

    Once b is divided by z = a[last] @ b[last], a[r] @ b[r] is 1 on every
    row: the marginals are a * b, the posterior of label i at row prev[j]
    and k at row n0 + j is a[prev[j], i] * E[i, k] * (P * b / s)[n0 + j, k],
    and log Z sums log z, max end and the log scales."""
    batch_sizes, seq, _, prev, last = packing
    n0 = batch_sizes[0]  # the number of sequences; rows n0: have a predecessor
    with np.errstate(all="ignore"):
        a, s, P, E, shift = _forward(U, trans, start, batch_sizes)
        b = _backward(P, E, s, end, batch_sizes)
        # a NaN fails every comparison, so it falls back too
        if a.min() >= _TINY and s.min() >= _TINY and b.min() >= _TINY:
            z = np.einsum("rk,rk->r", a[last], b[last])
            b /= z[seq, None]
            m = a * b
            after = b[n0:]
            after *= P[n0:]
            after /= s[n0:, None]
            e_trans = E * np.einsum("ta,tb->ab", a[prev], after)
            if np.isfinite(m).all() and np.isfinite(e_trans).all():
                scales = np.bincount(seq, weights=np.log(s) + shift, minlength=n0)
                return np.log(z) + end.max() + scales, m, e_trans
    alpha = _log_forward(U, trans, start, batch_sizes)
    beta = _log_backward(U, trans, end, batch_sizes)
    log_z = _logsumexp(alpha[last] + end)
    m = np.exp(alpha + beta - log_z[seq, None])
    # one (tokens, L, L) array of log posteriors, built in place
    p = alpha[prev][:, :, None] + trans
    p += (U + beta)[n0:, None, :] - log_z[seq[n0:], None, None]
    return log_z, m, np.exp(p, out=p).sum(axis=0)


def _log_forward(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, batch_sizes: Sequence[int]
) -> np.ndarray:
    """Forward recursion in log space, the oracle and fallback of the
    scaled one: alpha[r, k] is the log of the summed exp-scores of the
    paths that end in label k at row r, U[r, k] included.  An exp and a
    log over a (rows, L, L) block per step."""
    alpha = np.empty_like(U)
    lo = batch_sizes[0]
    alpha[:lo] = start + U[:lo]
    prev = 0
    for n in batch_sizes[1:]:
        b = alpha[prev : prev + n, :, None] + trans
        m = b.max(axis=1)
        alpha[lo : lo + n] = U[lo : lo + n] + m + np.log(np.exp(b - m[:, None, :]).sum(axis=1))
        prev, lo = lo, lo + n
    return alpha


def _log_backward(
    U: np.ndarray, trans: np.ndarray, end: np.ndarray, batch_sizes: Sequence[int]
) -> np.ndarray:
    """Backward recursion in log space, the oracle and fallback of the
    scaled one: beta[r, k] is the log of the summed exp-scores of the
    paths from label k at row r to the end of its sequence, U[r, k]
    excluded; it is ``end`` at a sequence's last row."""
    beta = np.empty_like(U)
    hi = len(U)
    n_next = 0
    for n in reversed(batch_sizes):
        lo = hi - n
        beta[lo + n_next : hi] = end
        if n_next:
            b = trans + (U[hi : hi + n_next] + beta[hi : hi + n_next])[:, None, :]
            m = b.max(axis=2)
            beta[lo : lo + n_next] = m + np.log(np.exp(b - m[:, :, None]).sum(axis=2))
        hi, n_next = lo, n
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


def _sequence_posteriors(model: CrfModel, features: Sequence[dict]):
    """:func:`_posteriors` of one sequence, a packed batch of one whose
    rows are in position order."""
    U = _unary_matrix(model, features)
    return _posteriors(U, model.transitions, model.start, model.end, _pack(np.array([len(U)])))


def log_partition(model: CrfModel, features: Sequence[dict]) -> float:
    """Log of the summed exp-scores of all label sequences."""
    return float(_sequence_posteriors(model, features)[0][0])


def marginals(model: CrfModel, features: Sequence[dict]) -> np.ndarray:
    """Posterior label probabilities per position, shape (T, L).

    No CLI command uses it; it serves the public API and the oracle tests."""
    return _sequence_posteriors(model, features)[1]


_BACK_CHUNK = 4096  # packed rows, or blocks of phase 1, that a step takes at a time
# the lengths a sequence's blocks can have, 1, 2, 3, 4, 6, 8, 12, 16, ...:
# each at most 1.5 times the one before, so one call meets few of them
_LADDER = np.array(sorted({1 << k for k in range(31)} | {3 << k for k in range(30)}))
_LADDER_SQUARES = 3 * _LADDER * _LADDER
# a sequence shorter than this is not cut: below it, one step per position
# measured faster than the blocked scan with its setup
_MIN_CUT = 40
# from this many rows on, a max-plus step runs with its rows innermost, where
# numpy pays its loop overhead per label, not per row; below it that is slower
_COLUMN_ROWS = 8


def _block_lengths(lengths: np.ndarray) -> np.ndarray:
    """The length of the blocks that each sequence of the given *lengths*
    is cut into, from its own length T alone: T itself, one piece, below
    ``_MIN_CUT``, else the least value b of ``_LADDER`` with 3 * b * b >= T.
    A transfer step works on L times the scores of a chain step, so blocks
    near sqrt(T / 3), shorter than sqrt(T), measured fastest."""
    cut = _LADDER[np.searchsorted(_LADDER_SQUARES, lengths)]
    return np.where(lengths < _MIN_CUT, lengths, cut)


def _back_pointers(D: np.ndarray, prev: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """back[r, j]: the lowest label i with the max of D[prev[r], i] +
    trans[i, j], as argmax would pick it, taken _BACK_CHUNK rows at a time
    on transposed views, so each operation runs over the rows of one
    destination label."""
    back = np.zeros((len(prev), N_LABELS), dtype=np.uint8)
    to = trans[:, :, None]  # to[i, j]: trans[i, j] as a column over rows
    for lo in range(0, len(prev), _BACK_CHUNK):
        before = D[prev[lo : lo + _BACK_CHUNK]].T
        arg = back[lo : lo + before.shape[1]].T
        best = before[0] + to[0]
        term = np.empty_like(best)
        for i in range(1, N_LABELS):
            np.add(before[i], to[i], out=term)
            np.copyto(arg, i, where=term > best)  # a tie keeps the lower label
            np.maximum(best, term, out=best)
    return back


def _transfer(
    X: np.ndarray, rows: np.ndarray, D: np.ndarray, tops: Sequence[int], opening: int, model
) -> None:
    """Set X[:, :, rows], (L, L, n), to the max-plus transfer matrices of
    n blocks of len(tops) positions, blocks innermost, whose scores at step
    t are the rows ``D[tops[t] : tops[t] + n]``: X[k, i, j] is the best
    score from label i at the position before block j to label k at its
    last position.  The first *opening* blocks open their sequences, so
    they start from the model's start scores, whatever i.  The blocks run
    _BACK_CHUNK at a time through one scratch, so its size is bounded."""
    n = len(rows)
    step = model.transitions[:, :, None, None]  # [m, k]
    chunk = min(n, _BACK_CHUNK)
    Z = np.empty((N_LABELS, N_LABELS, chunk))
    sums = np.empty((N_LABELS, N_LABELS, N_LABELS, chunk))  # [m, k, i, j]
    first, *rest = tops
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        Y, scratch = Z[:, :, : hi - lo], sums[..., : hi - lo]
        cut = min(max(opening - lo, 0), hi - lo)
        Y[:, :, :cut] = model.start[:, None, None]
        Y[:, :, cut:] = model.transitions.T[:, :, None]
        Y += D[first + lo : first + hi].T[:, None]
        for top in rest:
            np.add(Y[:, None], step, out=scratch)
            np.max(scratch, axis=0, out=Y)
            Y += D[top + lo : top + hi].T[:, None]
        X[:, :, rows[lo:hi]] = Y


def viterbi(
    model: CrfModel | CompiledModel, features: Sequence, lengths: Sequence[int] | None = None
) -> list[str]:
    """Highest-scoring label sequences of consecutive sequences of the
    given *lengths* (default: one sequence), as one flat list: of a list of
    feature maps under a model, or of a list of token texts under a
    compiled model.  Ties resolve to the lowest label index at each sequence's final
    position and at every backtrack step.

    All sequences are decoded together by a blocked max-plus scan (Hassan,
    Särkkä & García-Fernández 2021; Maleki, Musuvathi & Mytkowicz 2014).
    A sequence of T positions is cut, from its own first position, into
    blocks of b positions and a last piece of at most b, with b from
    :func:`_block_lengths`: near sqrt(T / 3), and all of T, one piece, for
    a short sequence.  Then:

    1. the max-plus transfer matrix of every block but each sequence's
       last piece, in b - 1 steps over an (L, L, blocks) array, once per
       block length of the call;
    2. each block's entry vector, the best scores at the last position of
       the block before it, one small step per block;
    3. every piece's recursion from its entry vector, all pieces at once
       on the packed layout of :func:`_pack`, in at most b steps.

    So a sequence takes about 2 * b + T / b max-plus steps, about 3 *
    sqrt(T), instead of T - 1.  Every wide max-plus operation runs
    with the blocks or rows innermost: the transfer matrices, a packed
    step of at least ``_COLUMN_ROWS`` rows and the back pointers, which
    numpy would otherwise loop over 5 labels per row.  The scores
    themselves stay row-major, one row per position, so a narrow step runs
    row by row.  The entry vectors are written over the rows they stand
    for before the back pointers are taken, so the path walked is the
    argmax path of the scores computed.  They sum the same terms as the
    position-by-position loop, grouped differently: with integer weights
    every sum is exact and the labels are the loop's, ties included; with
    real weights they agree unless two paths score within rounding of each
    other.  Whether a sequence is cut, and where, depends on its own length
    only, so a sequence's labels do not depend on the other sequences of
    the call."""
    lengths = np.array([len(features)] if lengths is None else lengths, dtype=np.intp)
    if not lengths.size or lengths.min() < 1 or lengths.sum() != len(features):
        raise ValueError(
            f"sequence lengths {lengths.tolist()} do not split {len(features)} positions"
        )
    U = _unary_matrix(model, features, lengths)
    trans = model.transitions
    to = trans[:, :, None]  # to[i, j]: trans[i, j] as a column over rows
    ends = np.cumsum(lengths)
    # each sequence is decoded as pieces (heads: their first positions): its
    # blocks before the last, which get a transfer matrix, then for each
    # sequence in order its last piece
    block = _block_lengths(lengths)
    inner = (lengths - 1) // block  # blocks before the last piece
    heads, pieces, K = ends - lengths, lengths, 0
    blocked = inner > 0
    if blocked.any():
        skip = block * inner  # the last piece's offset
        chain = _pack(inner[blocked])
        # block-major: chain row j is block step[j] of blocked sequence seq[j]
        width = block[blocked][chain.seq]
        K = len(width)
        heads = np.concatenate((heads[blocked][chain.seq] + width * chain.step, heads + skip))
        pieces = np.concatenate((width, lengths - skip))
    batch_sizes, seq, step, prev, last = _pack(pieces)
    # D[r, k]: the best score of a path ending in label k at row r, built in
    # place over the unary scores in packed order
    D = U[heads[seq] + step]
    del U
    n0 = batch_sizes[0]  # the number of pieces; rows n0: have a predecessor
    entry = model.start  # what the first row of a piece adds
    pred = np.full(len(D), -1)  # the row one position earlier, -1 at a start
    pred[n0:] = prev
    if K:
        # 1. X[:, :, j]: the transfer matrix of chain row j.  At every step
        # the blocks of one length follow the longer pieces and precede the
        # last pieces of their length, in chain order, so they are
        # contiguous rows; the first c0 blocks open their sequences
        firsts = np.cumsum(batch_sizes) - batch_sizes
        c0 = chain.batch_sizes[0]
        X = np.empty((N_LABELS, N_LABELS, K))
        for b in set(width.tolist()):
            rows = np.flatnonzero(width == b)
            tops = (firsts[:b] + np.count_nonzero(pieces > b)).tolist()
            _transfer(X, rows, D, tops, int(np.searchsorted(rows, c0)), model)
        # 2. E[:, j]: the best scores at block j's last position, blocks
        # innermost; a first block's matrix rows are all the same, the
        # loop's own scores
        E = np.empty((N_LABELS, K))
        E[:, :c0] = X[:, 0, :c0]
        before, lo = 0, c0
        for n in chain.batch_sizes[1:]:
            E[:, lo : lo + n] = (E[:, before : before + n] + X[:, :, lo : lo + n]).max(axis=1)
            before, lo = lo, lo + n
        del X
        # the block before each piece, as a chain row, or -1
        after = np.full(len(pieces), -1)
        after[c0:K] = chain.prev
        after[K:][blocked] = chain.last
        after = after[seq[:n0]]
        entering = np.flatnonzero(after >= 0)
        entry = np.empty((n0, N_LABELS))
        entry[:] = model.start
        entry[entering] = (E[:, after[entering]][:, None] + to).max(axis=0).T
        exits = last[:K]  # the last row of each block
        pred[entering] = exits[after[entering]]
    # 3. the packed recursion; a first row adds its entry
    D[:n0] += entry
    before, lo = 0, n0
    for n in batch_sizes[1:]:
        if n < _COLUMN_ROWS:
            D[lo : lo + n] += (D[before : before + n, :, None] + trans).max(axis=1)
        else:
            D[lo : lo + n] += (D[before : before + n].T[:, None] + to).max(axis=0).T
        before, lo = lo, lo + n
    if K:
        D[exits] = E.T
    # back pointers from the stored D: the same sums as in the recursion,
    # so the same maxima.  A start row's pointers read D[-1] and are unused
    back = _back_pointers(D, pred, trans)
    last = last[K:]  # each sequence's last row
    best = (D[last] + model.end).argmax(axis=1)
    # walk each sequence back from its last row; row r came from row
    # pred[r] with label back[r, k]
    back_flat, pred_of = memoryview(back.reshape(-1)), memoryview(pred)
    labels = [""] * len(D)
    for r, k, pos in zip(last.tolist(), best.tolist(), ends.tolist()):
        pos -= 1
        labels[pos] = LABELS[k]
        p = pred_of[r]
        while p >= 0:
            k = back_flat[r * N_LABELS + k]
            r, p = p, pred_of[p]
            pos -= 1
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


class _Packing(NamedTuple):
    batch_sizes: list[int]  # rows per time step
    seq: np.ndarray  # packed row -> caller's sequence index
    step: np.ndarray  # packed row -> position in its sequence
    prev: np.ndarray  # row batch_sizes[0] + j -> the row one step earlier
    last: np.ndarray  # caller's sequence index -> row of its last position


def _pack(lengths: np.ndarray) -> _Packing:
    """Time-major packed layout of sequences of the given lengths.

    Sequences are stably sorted longest first; step t then holds one row
    for each of the first batch_sizes[t] of them, the ones longer than t,
    so row i of step t continues row i of step t - 1.
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
    return _Packing(batch_sizes.tolist(), order[within], step, prev, firsts[lengths - 1] + rank)


class _Encoded(NamedTuple):
    """A training batch, its rows in the packed order of :func:`_pack`."""

    B: object  # CSR (rows, fragments) of 0/1: each row's fragments
    W: object  # CSR (fragments, indicators): each fragment's indicator values
    BT: object  # B.T and W.T as CSR, built once for the gradient's products
    WT: object
    y: np.ndarray  # row -> gold label index
    cells: np.ndarray  # row -> index of its gold cell in a flattened (rows, L) array
    observed_trans: np.ndarray  # (L, L) counts of the gold label pairs
    packing: _Packing


def _encode_sequences(
    batch: Sequence[LabeledSequence], known: Iterable[str] = ()
) -> tuple[dict[str, int], _Encoded]:
    """The vocabulary of *batch* and *known* (see :func:`_collect_vocabulary`)
    and the batch encoded against it, its indicator matrix factored as
    ``X = B @ W`` over the fragments of ``features.factored_features``.
    Layout-backed feature sequences are read through their tokens; no map
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
    packing = _pack(lengths)
    fragments, parts = factored_features([seq.features for seq in batch])
    vocab = _collect_vocabulary(fragments, known)
    # the row of each packed row in batch order, where parts lists them
    rows = (np.cumsum(lengths) - lengths)[packing.seq] + packing.step
    B, W = _factored(fragments, parts[rows], vocab)
    y = np.concatenate(label_ids)[rows]
    cells = np.arange(len(y)) * N_LABELS + y
    pairs = y[packing.prev] * N_LABELS + y[packing.batch_sizes[0] :]
    observed_trans = np.bincount(pairs, minlength=N_LABELS * N_LABELS).reshape(N_LABELS, N_LABELS)
    return vocab, _Encoded(B, W, B.T.tocsr(), W.T.tocsr(), y, cells, observed_trans, packing)


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
        state_weights={ind: state[k].copy() for ind, k in vocab.items()},
        transitions=trans.copy(),
        start=start.copy(),
        end=end.copy(),
    )


def _batch_objective(wvec, encoded: _Encoded, c2):
    """Regularized NLL and its gradient over a batch encoded by
    :func:`_encode_sequences`; one forward and one backward pass cover
    every sequence at once.  The unary scores are ``B @ (W @ state)`` and
    the state gradient ``W.T @ (B.T @ m)``, X's two products taken through
    its factors."""
    B, W, BT, WT, y, cells, observed_trans, packing = encoded
    batch_sizes, seq, _, prev, last = packing
    n0 = batch_sizes[0]  # the number of sequences; rows n0: have a predecessor
    state, trans, start, end = _unpack(wvec)
    U = B @ (W @ state)
    log_z, m, e_trans = _posteriors(U, trans, start, end, packing)
    gold = np.take(U, cells)
    gold[:n0] += start[y[:n0]]
    gold[n0:] += trans[y[prev], y[n0:]]
    gold[last] += end[y[last]]
    contributions = log_z - np.bincount(seq, weights=gold, minlength=n0)
    bad = np.flatnonzero(~np.isfinite(contributions))
    if bad.size:
        raise TrainingError(
            f"non-finite objective at sequence {bad[0]} "
            f"(weight norm {math.sqrt(dot(wvec, wvec)):.3e})"
        )
    np.put(m, cells, np.take(m, cells) - 1.0)  # now expected minus observed counts
    grad = 2.0 * c2 * wvec
    g_state, g_trans, g_start, g_end = _unpack(grad)
    g_state += WT @ (BT @ m)
    g_trans += e_trans - observed_trans
    g_start += m[:n0].sum(axis=0)
    g_end += m[last].sum(axis=0)
    nll = float(contributions.sum()) + c2 * dot(wvec, wvec)
    return nll, grad


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
    for ind, row in model.state_weights.items():
        state[vocab[ind]] = row
    trans[:] = model.transitions
    start[:] = model.start
    end[:] = model.end
    value, grad = _batch_objective(wvec, encoded, config.c2)
    return value, _to_model(grad, vocab)


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
    config.validate()
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
    """Write :func:`model_to_json` to *path*, encoded before the file is
    opened: a model UTF-8 cannot encode (a lone surrogate) raises
    :class:`DataError` naming the indicator, and an existing file stays."""
    text = model_to_json(model)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = text[exc.start]
        where = next((f"indicator {i!r}" for i in sorted(model.state_weights) if bad in i), "metadata")
        raise DataError(f"{path}: model {where} holds {bad!r}, which UTF-8 cannot encode") from exc
    Path(path).write_bytes(data)


def load_model(path) -> CrfModel:
    obj = read_json_object(path, "corrupt model file")
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model file version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    if obj.get("labels") != list(LABELS):
        # the one label set training writes and decode_bilou reads
        raise DataError(f"{path}: label set {obj.get('labels')!r} is not {list(LABELS)}")
    try:
        state_weights: dict[str, np.ndarray] = {}
        for ind, label, w in obj["state_weights"]:
            if not isinstance(ind, str):  # no feature map could ever emit it
                raise TypeError(f"indicator {ind!r} is not a string")
            row = state_weights.get(ind)
            if row is None:
                row = state_weights[ind] = np.zeros(N_LABELS)
            row[_LABEL_INDEX[label]] = json_number(w)
        transitions = np.array([[json_number(w) for w in row] for row in obj["transitions"]])
        start, end = (np.array([json_number(w) for w in obj[k]]) for k in ("start", "end"))
        metadata = dict(obj.get("metadata", {}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from exc
    trained_on = metadata.get("feature_fingerprint", FEATURE_FINGERPRINT)
    if trained_on != FEATURE_FINGERPRINT:
        raise DataError(f"{path}: feature fingerprint {trained_on!r} is not {FEATURE_FINGERPRINT!r}")
    if transitions.shape != (N_LABELS, N_LABELS) or start.shape != (N_LABELS,) or end.shape != (N_LABELS,):
        raise DataError(f"{path}: model weight shapes do not match its label set")
    weights = [transitions, start, end, *state_weights.values()]
    if not all(np.all(np.isfinite(w)) for w in weights):
        raise DataError(f"{path}: model has non-finite weights")
    return CrfModel(
        state_weights=state_weights,
        transitions=transitions,
        start=start,
        end=end,
        metadata=metadata,
    )
