"""Linear-chain conditional random field over BILOU labels.

Scoring, exact log-partition and marginals via forward-backward, Viterbi
decoding, and maximum-likelihood training with elastic-net regularization
(L1 handled by the orthant-wise optimizer, L2 inside the smooth
objective).  All recursions run in log space, so sequences thousands of
tokens long neither underflow nor need scaling.

Training evaluates the objective over the whole batch with one forward
and one backward pass.  The sequences are stably sorted longest first and
laid out time-major, like a packed sequence: step t holds one row for
each sequence longer than t, and row i of step t continues row i of step
t - 1, so each step of the recursion is one array operation over
contiguous rows.  Nothing is padded, so memory grows with the number of
tokens, not with the batch size times the longest sequence.  A single
sequence is the packed case with one row per step.

Feature maps (see :mod:`legal_sbd.features`) are binarized into string
indicators before they meet the model: booleans become ``key=true`` /
``key=false`` indicators, categorical values become ``key=value``
indicators, and numeric features keep their key and contribute their
value as the feature weight multiplier.  Indicators unknown to a model
score zero.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DataError, TrainingError
from .optim import minimize_lbfgs
from .spans import LABELS

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


@dataclass
class TrainingConfig:
    c1: float = 1.0  # L1 coefficient
    c2: float = 0.001  # L2 coefficient
    max_iterations: int = 100
    lbfgs_memory: int = 10
    convergence_tol: float = 1e-6

    def validate(self) -> None:
        if self.c1 < 0 or self.c2 < 0:
            raise DataError(f"regularizers must be >= 0 (c1={self.c1}, c2={self.c2})")
        if self.max_iterations < 1:
            raise DataError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class LabeledSequence:
    """Per-position feature maps paired with gold BILOU labels."""

    features: list[dict]
    labels: list[str]


@dataclass
class CrfModel:
    labels: tuple[str, ...]
    state_weights: dict[str, np.ndarray]  # indicator -> per-label weight row
    transitions: np.ndarray  # dense (L, L), row = from, column = to
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)
    metadata: dict = field(default_factory=dict)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"unknown label {label!r}") from None


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


_ENCODE_CHUNK = 512  # rows whose hits are gathered in Python lists at a time


def _encode_rows(feature_maps: Sequence[dict], index: dict[str, int]) -> csr_matrix:
    """One sparse row per position holding the values of its indicators
    known to *index*, in feature-map order; unknown indicators are dropped.

    Hits are gathered in Python lists one chunk of rows at a time and then
    copied into arrays sized for every indicator, so a long input never
    holds a Python list entry per hit."""
    capacity = sum(len(fv) for fv in feature_maps)  # one indicator per key
    data = np.empty(capacity)
    cols = np.empty(capacity, dtype=np.int32)
    indptr = [0]
    filled = 0
    get = index.get
    for lo in range(0, len(feature_maps), _ENCODE_CHUNK):
        idx: list[int] = []
        vals: list[float] = []
        for fv in feature_maps[lo : lo + _ENCODE_CHUNK]:
            for ind, val in indicators(fv):
                k = get(ind)
                if k is not None:
                    idx.append(k)
                    vals.append(val)
            indptr.append(filled + len(idx))
        data[filled : filled + len(idx)] = vals
        cols[filled : filled + len(idx)] = idx
        filled += len(idx)
    return csr_matrix(
        (data[:filled], cols[:filled], np.array(indptr, dtype=np.int32)),
        shape=(len(feature_maps), len(index)),
    )


def _unary_matrix(model: CrfModel, feature_maps: Sequence[dict]) -> np.ndarray:
    index = {ind: k for k, ind in enumerate(model.state_weights)}
    weights = np.array(list(model.state_weights.values()), dtype=np.float64)
    return _encode_rows(feature_maps, index) @ weights.reshape(len(index), len(model.labels))


def _forward(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, batch_sizes: Sequence[int]
) -> np.ndarray:
    """Log-space forward recursion over packed rows (see :func:`_pack`);
    alpha[r, k] includes U[r, k]."""
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


def _backward(
    U: np.ndarray, trans: np.ndarray, end: np.ndarray, batch_sizes: Sequence[int]
) -> np.ndarray:
    """Log-space backward recursion over packed rows (see :func:`_pack`);
    beta[r, k] excludes U[r, k], and is ``end`` at a sequence's last row."""
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


def _path_score(
    U: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray, y: np.ndarray
) -> float:
    s = float(start[y[0]] + end[y[-1]] + U[np.arange(len(y)), y].sum())
    if len(y) > 1:
        s += float(trans[y[:-1], y[1:]].sum())
    return s


def score(model: CrfModel, features: Sequence[dict], labels: Sequence[str]) -> float:
    """Unnormalized log score of one label sequence."""
    if len(features) != len(labels):
        raise ValueError(
            f"length mismatch: {len(features)} positions, {len(labels)} labels"
        )
    if not features:
        raise ValueError("empty sequence")
    y = np.array([model.label_index(l) for l in labels])
    U = _unary_matrix(model, features)
    return _path_score(U, model.transitions, model.start, model.end, y)


def log_partition(model: CrfModel, features: Sequence[dict]) -> float:
    """Log of the summed exp-scores of all label sequences."""
    if not features:
        raise ValueError("empty sequence")
    U = _unary_matrix(model, features)
    alpha = _forward(U, model.transitions, model.start, [1] * len(U))
    return float(_logsumexp(alpha[-1] + model.end))


def marginals(model: CrfModel, features: Sequence[dict]) -> np.ndarray:
    """Posterior label probabilities per position, shape (T, L)."""
    if not features:
        raise ValueError("empty sequence")
    U = _unary_matrix(model, features)
    single = [1] * len(U)  # one sequence is a packed batch of one
    alpha = _forward(U, model.transitions, model.start, single)
    beta = _backward(U, model.transitions, model.end, single)
    log_z = _logsumexp(alpha[-1] + model.end)
    return np.exp(alpha + beta - log_z)


def viterbi(model: CrfModel, features: Sequence[dict]) -> list[str]:
    """Highest-scoring label sequence; ties resolve to the lowest label
    index at the final position and at every backtrack step."""
    if not features:
        raise ValueError("empty sequence")
    U = _unary_matrix(model, features)
    trans = model.transitions
    T, L = U.shape
    back = np.empty((T, L), dtype=np.intp)
    delta = model.start + U[0]
    for t in range(1, T):
        b = delta[:, None] + trans
        back[t] = b.argmax(axis=0)
        delta = U[t] + b.max(axis=0)
    delta = delta + model.end
    path = np.empty(T, dtype=np.intp)
    path[-1] = int(delta.argmax())
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return [model.labels[k] for k in path]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _collect_vocabulary(batch: Iterable[LabeledSequence]) -> list[str]:
    vocab: set[str] = set()
    for seq in batch:
        for fv in seq.features:
            for ind, _ in indicators(fv):
                vocab.add(ind)
    return sorted(vocab)


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
    offsets = np.concatenate(([0], np.cumsum(batch_sizes)))
    step = np.repeat(np.arange(len(batch_sizes)), batch_sizes)
    seq = order[np.arange(offsets[-1]) - offsets[step]]
    n0 = batch_sizes[0]
    prev = np.arange(n0, offsets[-1]) - batch_sizes[step[n0:] - 1]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    last = offsets[lengths - 1] + rank
    return _Packing(batch_sizes.tolist(), seq, step, prev, last)


def _encode_sequences(
    batch: Sequence[LabeledSequence], vocab: dict[str, int], labels: Sequence[str]
):
    """The batch as (X, y, lengths): one sparse indicator row per position
    and its gold label index, both in the packed order of :func:`_pack`,
    and the sequence lengths in the caller's order."""
    label_index = {label: k for k, label in enumerate(labels)}
    label_ids = []
    for s, seq in enumerate(batch):
        if not seq.features:
            raise DataError(f"sequence {s} is empty")
        if len(seq.features) != len(seq.labels):
            raise DataError(
                f"sequence {s}: {len(seq.features)} positions vs {len(seq.labels)} labels"
            )
        try:
            label_ids.append([label_index[l] for l in seq.labels])
        except KeyError as exc:
            raise DataError(f"sequence {s}: unknown label {exc}") from exc
    lengths = np.array([len(seq.labels) for seq in batch])
    packing = _pack(lengths)
    rows = list(zip(packing.seq.tolist(), packing.step.tolist()))
    X = _encode_rows([batch[s].features[t] for s, t in rows], vocab)
    y = np.array([label_ids[s][t] for s, t in rows], dtype=np.intp)
    return X, y, lengths


def _unpack(wvec: np.ndarray, n_features: int, n_labels: int):
    fl = n_features * n_labels
    ll = n_labels * n_labels
    state = wvec[:fl].reshape(n_features, n_labels)
    trans = wvec[fl : fl + ll].reshape(n_labels, n_labels)
    start = wvec[fl + ll : fl + ll + n_labels]
    end = wvec[fl + ll + n_labels :]
    return state, trans, start, end


def _batch_objective(wvec, encoded, n_features, n_labels, c2):
    """Regularized NLL and its gradient over a batch encoded by
    :func:`_encode_sequences`; one forward and one backward pass cover
    every sequence at once."""
    X, y, lengths = encoded
    batch_sizes, seq, _, prev, last = _pack(lengths)
    n0 = batch_sizes[0]  # the number of sequences; rows n0: have a predecessor
    state, trans, start, end = _unpack(wvec, n_features, n_labels)
    U = X @ state
    alpha = _forward(U, trans, start, batch_sizes)
    beta = _backward(U, trans, end, batch_sizes)
    log_z = _logsumexp(alpha[last] + end)
    y_prev, y_cur = y[prev], y[n0:]
    rows = np.arange(len(y))
    gold = U[rows, y]
    gold[:n0] += start[y[:n0]]
    gold[n0:] += trans[y_prev, y_cur]
    gold[last] += end[y[last]]
    contributions = log_z - np.bincount(seq, weights=gold, minlength=n0)
    bad = np.flatnonzero(~np.isfinite(contributions))
    if bad.size:
        raise TrainingError(
            f"non-finite objective at sequence {bad[0]} "
            f"(weight norm {float(np.linalg.norm(wvec)):.3e})"
        )
    m = np.exp(alpha + beta - log_z[seq, None])
    # expected transition counts: p[j, a, b] is the posterior of label a at
    # row prev[j] followed by b at row n0 + j, built in place to hold one
    # (tokens, L, L) array at a time
    p = alpha[prev, :, None] + trans
    p += (U + beta)[n0:, None, :] - log_z[seq[n0:], None, None]
    e_trans = np.exp(p, out=p).sum(axis=0)
    m[rows, y] -= 1.0  # now expected minus observed counts
    observed_trans = np.bincount(y_prev * n_labels + y_cur, minlength=n_labels * n_labels)
    grad = 2.0 * c2 * wvec
    g_state, g_trans, g_start, g_end = _unpack(grad, n_features, n_labels)
    g_state += X.T @ m
    g_trans += e_trans - observed_trans.reshape(n_labels, n_labels)
    g_start += m[:n0].sum(axis=0)
    g_end += m[last].sum(axis=0)
    nll = float(contributions.sum()) + c2 * float(wvec @ wvec)
    return nll, grad


@dataclass
class CrfGradient:
    """Gradient shaped like the model weights."""

    state: dict[str, np.ndarray]
    transitions: np.ndarray
    start: np.ndarray
    end: np.ndarray


def nll_and_gradient(
    model: CrfModel, batch: Sequence[LabeledSequence], config: TrainingConfig
) -> tuple[float, CrfGradient]:
    """Smooth training objective (NLL plus the L2 term) and its gradient.

    The gradient covers every indicator present in the model or the batch;
    the L1 term is the optimizer's business and is not included here.
    """
    if not batch:
        raise DataError("empty batch")
    vocab_list = sorted(set(model.state_weights) | set(_collect_vocabulary(batch)))
    vocab = {ind: k for k, ind in enumerate(vocab_list)}
    n_features, n_labels = len(vocab_list), len(model.labels)
    encoded = _encode_sequences(batch, vocab, model.labels)
    wvec = np.zeros(n_features * n_labels + n_labels * n_labels + 2 * n_labels)
    state, trans, start, end = _unpack(wvec, n_features, n_labels)
    for ind, row in model.state_weights.items():
        state[vocab[ind]] = row
    trans[:] = model.transitions
    start[:] = model.start
    end[:] = model.end
    value, grad = _batch_objective(wvec, encoded, n_features, n_labels, config.c2)
    g_state, g_trans, g_start, g_end = _unpack(grad, n_features, n_labels)
    return value, CrfGradient(
        state={ind: g_state[k].copy() for ind, k in vocab.items()},
        transitions=g_trans.copy(),
        start=g_start.copy(),
        end=g_end.copy(),
    )


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
    vocab_list = _collect_vocabulary(sequences)
    if not vocab_list:
        raise DataError("empty feature space: no indicators in the training data")
    vocab = {ind: k for k, ind in enumerate(vocab_list)}
    n_features, n_labels = len(vocab_list), len(LABELS)
    encoded = _encode_sequences(sequences, vocab, LABELS)
    n_params = n_features * n_labels + n_labels * n_labels + 2 * n_labels
    logger.info(
        "training CRF: %d sequences, %d indicators, %d parameters",
        len(sequences), n_features, n_params,
    )

    def objective(wvec):
        return _batch_objective(wvec, encoded, n_features, n_labels, config.c2)

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
    state, trans, start, end = _unpack(result.x, n_features, n_labels)
    state_weights = {
        ind: state[k].copy() for ind, k in vocab.items() if state[k].any()
    }
    metadata = {
        "c1": config.c1,
        "c2": config.c2,
        "max_iterations": config.max_iterations,
        "lbfgs_memory": config.lbfgs_memory,
        "convergence_tol": config.convergence_tol,
        "iterations_run": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "objective_evaluations": result.evaluations,
        "final_objective": result.fun,
        "n_sequences": len(sequences),
        "format_version": MODEL_FORMAT_VERSION,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return CrfModel(
        labels=tuple(LABELS),
        state_weights=state_weights,
        transitions=trans.copy(),
        start=start.copy(),
        end=end.copy(),
        metadata=metadata,
    )


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
    out.append(f'  "labels": {json.dumps(list(model.labels))},\n')
    triples = []
    for ind in sorted(model.state_weights):
        row = model.state_weights[ind]
        if not np.all(np.isfinite(row)):
            raise DataError(f"model has non-finite weights for indicator {ind!r}")
        for k, w in enumerate(row):
            if w != 0.0:
                triples.append(
                    f"    [{json.dumps(ind, ensure_ascii=False)}, "
                    f"{json.dumps(model.labels[k])}, {_fmt_weight(w)}]"
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
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path) -> CrfModel:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: corrupt model file: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: corrupt model file: not a JSON object")
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model file version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    if obj.get("labels") != list(LABELS):
        # the one label set training writes and decode_bilou reads
        raise DataError(f"{path}: label set {obj.get('labels')!r} is not {list(LABELS)}")
    n_labels = len(LABELS)
    label_index = {label: k for k, label in enumerate(LABELS)}
    try:
        state_weights: dict[str, np.ndarray] = {}
        for ind, label, w in obj["state_weights"]:
            row = state_weights.get(ind)
            if row is None:
                row = state_weights[ind] = np.zeros(n_labels)
            row[label_index[label]] = float(w)
        transitions = np.array(obj["transitions"], dtype=np.float64)
        start = np.array(obj["start"], dtype=np.float64)
        end = np.array(obj["end"], dtype=np.float64)
        metadata = dict(obj.get("metadata", {}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from exc
    if transitions.shape != (n_labels, n_labels) or start.shape != (n_labels,) or end.shape != (n_labels,):
        raise DataError(f"{path}: model weight shapes do not match its label set")
    weights = [transitions, start, end, *state_weights.values()]
    if not all(np.all(np.isfinite(w)) for w in weights):
        raise DataError(f"{path}: model has non-finite weights")
    return CrfModel(
        labels=LABELS,
        state_weights=state_weights,
        transitions=transitions,
        start=start,
        end=end,
        metadata=metadata,
    )
