"""Linear-chain conditional random field over BILOU labels.

Scoring, exact log-partition and marginals via forward-backward, Viterbi
decoding, and maximum-likelihood training with elastic-net regularization
(L1 handled by the orthant-wise optimizer, L2 inside the smooth
objective).  All recursions run in log space, so sequences thousands of
tokens long neither underflow nor need scaling.

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
from typing import Iterable, Sequence

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


def _encode_rows(feature_maps: Sequence[dict], index: dict[str, int]) -> csr_matrix:
    """One sparse row per position holding the values of its indicators
    known to *index*, in feature-map order; unknown indicators are dropped."""
    indptr = [0]
    idx: list[int] = []
    vals: list[float] = []
    get = index.get
    for fv in feature_maps:
        for ind, val in indicators(fv):
            k = get(ind)
            if k is not None:
                idx.append(k)
                vals.append(val)
        indptr.append(len(idx))
    return csr_matrix(
        (np.array(vals), np.array(idx, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(feature_maps), len(index)),
    )


def _unary_matrix(model: CrfModel, feature_maps: Sequence[dict]) -> np.ndarray:
    index = {ind: k for k, ind in enumerate(model.state_weights)}
    weights = np.array(list(model.state_weights.values()), dtype=np.float64)
    return _encode_rows(feature_maps, index) @ weights.reshape(len(index), len(model.labels))


def _forward(U: np.ndarray, trans: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Log-space forward recursion; alpha[t, k] includes U[t, k]."""
    T = U.shape[0]
    alpha = np.empty_like(U)
    alpha[0] = start + U[0]
    for t in range(1, T):
        b = alpha[t - 1][:, None] + trans
        m = b.max(axis=0)
        alpha[t] = U[t] + m + np.log(np.exp(b - m).sum(axis=0))
    return alpha


def _backward(U: np.ndarray, trans: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Log-space backward recursion; beta[t, k] excludes U[t, k]."""
    T = U.shape[0]
    beta = np.empty_like(U)
    beta[T - 1] = end
    for t in range(T - 2, -1, -1):
        b = trans + (U[t + 1] + beta[t + 1])[None, :]
        m = b.max(axis=1)
        beta[t] = m + np.log(np.exp(b - m[:, None]).sum(axis=1))
    return beta


def _logsumexp(v: np.ndarray) -> float:
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


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
    alpha = _forward(U, model.transitions, model.start)
    return _logsumexp(alpha[-1] + model.end)


def marginals(model: CrfModel, features: Sequence[dict]) -> np.ndarray:
    """Posterior label probabilities per position, shape (T, L)."""
    if not features:
        raise ValueError("empty sequence")
    U = _unary_matrix(model, features)
    alpha = _forward(U, model.transitions, model.start)
    beta = _backward(U, model.transitions, model.end)
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


def _encode_sequences(
    batch: Sequence[LabeledSequence], vocab: dict[str, int], labels: Sequence[str]
):
    label_index = {label: k for k, label in enumerate(labels)}
    encoded = []
    for s, seq in enumerate(batch):
        if not seq.features:
            raise DataError(f"sequence {s} is empty")
        if len(seq.features) != len(seq.labels):
            raise DataError(
                f"sequence {s}: {len(seq.features)} positions vs {len(seq.labels)} labels"
            )
        x = _encode_rows(seq.features, vocab)
        try:
            y = np.array([label_index[l] for l in seq.labels], dtype=np.intp)
        except KeyError as exc:
            raise DataError(f"sequence {s}: unknown label {exc}") from exc
        encoded.append((x, y))
    return encoded


def _unpack(wvec: np.ndarray, n_features: int, n_labels: int):
    fl = n_features * n_labels
    ll = n_labels * n_labels
    state = wvec[:fl].reshape(n_features, n_labels)
    trans = wvec[fl : fl + ll].reshape(n_labels, n_labels)
    start = wvec[fl + ll : fl + ll + n_labels]
    end = wvec[fl + ll + n_labels :]
    return state, trans, start, end


def _sequence_posteriors(U, trans, start, end):
    """Returns (log_partition, position marginals, expected transition counts)."""
    alpha = _forward(U, trans, start)
    beta = _backward(U, trans, end)
    log_z = _logsumexp(alpha[-1] + end)
    m = np.exp(alpha + beta - log_z)
    e_trans = np.zeros_like(trans)
    for t in range(1, U.shape[0]):
        p = alpha[t - 1][:, None] + trans + (U[t] + beta[t])[None, :] - log_z
        e_trans += np.exp(p)
    return log_z, m, e_trans


def _batch_objective(wvec, encoded, n_features, n_labels, c2):
    """Regularized NLL and its gradient over a batch of encoded sequences."""
    state, trans, start, end = _unpack(wvec, n_features, n_labels)
    grad = np.zeros_like(wvec)
    g_state, g_trans, g_start, g_end = _unpack(grad, n_features, n_labels)
    nll = 0.0
    for s, (x, y) in enumerate(encoded):
        U = x @ state
        log_z, m, e_trans = _sequence_posteriors(U, trans, start, end)
        contribution = log_z - _path_score(U, trans, start, end, y)
        if not np.isfinite(contribution):
            raise TrainingError(
                f"non-finite objective at sequence {s} "
                f"(weight norm {float(np.linalg.norm(wvec)):.3e})"
            )
        nll += contribution
        m[np.arange(len(y)), y] -= 1.0  # now expected minus observed counts
        g_state += x.T @ m
        g_trans += e_trans
        if len(y) > 1:
            np.subtract.at(g_trans, (y[:-1], y[1:]), 1.0)
        g_start += m[0]
        g_end += m[-1]
    nll += c2 * float(wvec @ wvec)
    grad += 2.0 * c2 * wvec
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
    try:
        labels = tuple(obj["labels"])
        n_labels = len(labels)
        label_index = {label: k for k, label in enumerate(labels)}
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
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt model file: {exc}") from exc
    if transitions.shape != (n_labels, n_labels) or start.shape != (n_labels,) or end.shape != (n_labels,):
        raise DataError(f"{path}: model weight shapes do not match its label set")
    if "O" not in labels:
        raise DataError(f"{path}: label set {list(labels)} lacks 'O'")
    if len(label_index) != n_labels:
        raise DataError(f"{path}: label set {list(labels)} repeats a label")
    weights = [transitions, start, end, *state_weights.values()]
    if not all(np.all(np.isfinite(w)) for w in weights):
        raise DataError(f"{path}: model has non-finite weights")
    return CrfModel(
        labels=labels,
        state_weights=state_weights,
        transitions=transitions,
        start=start,
        end=end,
        metadata=metadata,
    )
