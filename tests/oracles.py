"""Independent brute-force oracles.

Everything here avoids the dynamic-programming recursions under test:
sequence scores come from direct term summation over explicitly
enumerated label sequences, so disagreement with the fast paths means a
real bug rather than a shared one.
"""

import itertools

import numpy as np

from legal_sbd.crf import CrfModel, LabeledSequence, TrainingConfig, indicators
from legal_sbd.errors import DataError
from legal_sbd.spans import LABELS, trimmed_span


def term_by_term_score(model: CrfModel, features, labels) -> float:
    """Plain-Python sum of every potential term for one label sequence."""
    y = [LABELS.index(l) for l in labels]
    total = float(model.start[y[0]]) + float(model.end[y[-1]])
    for t, fv in enumerate(features):
        for ind, val in indicators(fv):
            row = model.state_weights.get(ind)
            if row is not None:
                total += val * float(row[y[t]])
    for t in range(1, len(y)):
        total += float(model.transitions[y[t - 1], y[t]])
    return total


def term_by_term_unary(model: CrfModel, features) -> np.ndarray:
    """Unary scores, shape (T, L), summed indicator by indicator."""
    unary = np.zeros((len(features), len(LABELS)))
    for t, fv in enumerate(features):
        for ind, val in indicators(fv):
            row = model.state_weights.get(ind)
            if row is not None:
                unary[t] += val * row
    return unary


def enumerate_scores(model: CrfModel, features):
    """Scores of all |L|^T label sequences, by enumeration (no recursion)."""
    n_labels = len(LABELS)
    length = len(features)
    unary = term_by_term_unary(model, features)
    combos = np.array(
        list(itertools.product(range(n_labels), repeat=length)), dtype=np.intp
    )
    scores = model.start[combos[:, 0]] + model.end[combos[:, -1]]
    scores = scores + unary[np.arange(length)[None, :], combos].sum(axis=1)
    if length > 1:
        scores = scores + model.transitions[combos[:, :-1], combos[:, 1:]].sum(axis=1)
    return combos, scores


def brute_log_partition(model: CrfModel, features) -> float:
    _, scores = enumerate_scores(model, features)
    return float(np.logaddexp.reduce(np.sort(scores)))


def brute_viterbi(model: CrfModel, features) -> list[str]:
    """Enumeration argmax under the decoder's documented tie-break.

    Resolving ties to the lowest label index at the final position and at
    every backtrack step selects, among all maximizers, the sequence whose
    reversed label-index tuple is lexicographically smallest.
    """
    combos, scores = enumerate_scores(model, features)
    best = scores.max()
    ties = [tuple(int(k) for k in combos[i]) for i in np.flatnonzero(scores == best)]
    pick = min(ties, key=lambda c: tuple(reversed(c)))
    return [LABELS[k] for k in pick]


def loop_viterbi(model: CrfModel, features) -> list[str]:
    """The sequential max-plus loop, one position at a time in plain
    Python, for sequences too long to enumerate.  Ties go to the lowest
    label index at the final position and at every backtrack step, so
    with integer weights, whose sums are exact, it is the decoder's
    documented answer."""
    labels = range(len(LABELS))
    unary = term_by_term_unary(model, features).tolist()
    trans = model.transitions.tolist()
    best = [s + u for s, u in zip(model.start.tolist(), unary[0])]
    back = []
    for row in unary[1:]:
        # max() returns the first of equal maxima: the lowest label index
        froms = [max(labels, key=lambda i: best[i] + trans[i][j]) for j in labels]
        best = [best[i] + trans[i][j] + u for j, (i, u) in enumerate(zip(froms, row))]
        back.append(froms)
    k = max(labels, key=lambda j: best[j] + float(model.end[j]))
    path = [k]
    for froms in reversed(back):
        k = froms[k]
        path.append(k)
    return [LABELS[k] for k in reversed(path)]


def brute_marginals(model: CrfModel, features) -> np.ndarray:
    combos, scores = enumerate_scores(model, features)
    log_z = float(np.logaddexp.reduce(np.sort(scores)))
    probs = np.exp(scores - log_z)
    out = np.zeros((len(features), len(LABELS)))
    for combo, p in zip(combos, probs):
        for t, k in enumerate(combo):
            out[t, k] += p
    return out


def random_model(rng, n_indicators=5, scale=1.0, integer=False) -> CrfModel:
    """Random dense model; integer weights make exact score ties possible."""

    def draw(shape):
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.normal(size=shape) * scale

    return CrfModel(
        state_weights={f"f{i}": draw(len(LABELS)) for i in range(n_indicators)},
        transitions=draw((len(LABELS), len(LABELS))),
        start=draw(len(LABELS)),
        end=draw(len(LABELS)),
    )


def random_features(rng, length, n_indicators=5, integer=False) -> list[dict]:
    """Random sparse numeric feature maps over the f0..fN indicator space."""
    feats = []
    for _ in range(length):
        fv = {}
        for i in range(n_indicators):
            if rng.random() < 0.6:
                fv[f"f{i}"] = float(rng.integers(1, 3)) if integer else float(rng.normal())
        if not fv:
            fv["f0"] = 1.0
        feats.append(fv)
    return feats


def random_batch(rng, max_sequences=3, max_length=5) -> list[LabeledSequence]:
    batch = []
    for _ in range(int(rng.integers(1, max_sequences + 1))):
        length = int(rng.integers(1, max_length + 1))
        feats = random_features(rng, length)
        labels = [LABELS[int(rng.integers(len(LABELS)))] for _ in range(length)]
        batch.append(LabeledSequence(feats, labels))
    return batch


def finite_difference_gradient(model: CrfModel, batch, config: TrainingConfig, h=1e-5):
    """Central finite differences of the smooth objective over every
    weight entry of *model*, in the layout of nll_and_gradient's gradient."""
    import copy

    from legal_sbd.crf import nll_and_gradient

    def value_at(m):
        return nll_and_gradient(m, batch, config)[0]

    state = {}
    for ind in model.state_weights:
        row = np.zeros(len(LABELS))
        for k in range(len(LABELS)):
            up = copy.deepcopy(model)
            up.state_weights[ind][k] += h
            down = copy.deepcopy(model)
            down.state_weights[ind][k] -= h
            row[k] = (value_at(up) - value_at(down)) / (2 * h)
        state[ind] = row
    arrays = {}
    for name in ("transitions", "start", "end"):
        template = getattr(model, name)
        grad = np.zeros_like(template)
        for index in np.ndindex(template.shape):
            up = copy.deepcopy(model)
            getattr(up, name)[index] += h
            down = copy.deepcopy(model)
            getattr(down, name)[index] -= h
            grad[index] = (value_at(up) - value_at(down)) / (2 * h)
        arrays[name] = grad
    return state, arrays


def keyed_layout(tokens, lengths):
    """``features.padded_layout`` as a plain loop that interns on each
    token's (text, kind), not on its text alone: the layout the text-only
    interning must reproduce row for row."""
    from legal_sbd.features import MAX_RADIUS, _token_attrs

    index: dict = {}
    attrs: list = [None]
    which = [0] * MAX_RADIUS
    pos = 0
    for n in lengths:
        for tok in tokens[pos : pos + n]:
            key = (tok.text, tok.kind)
            if key not in index:
                index[key] = len(attrs)
                attrs.append(_token_attrs(tok.text))
            which.append(index[key])
        which += [0] * MAX_RADIUS
        pos += n
    return attrs, which


def brute_transition_marginals(model: CrfModel, features) -> np.ndarray:
    """Expected label-pair counts, shape (L, L): entry (a, b) sums over
    positions t >= 1 the probability of label a at t - 1 and b at t."""
    combos, scores = enumerate_scores(model, features)
    log_z = float(np.logaddexp.reduce(np.sort(scores)))
    probs = np.exp(scores - log_z)
    out = np.zeros((len(LABELS), len(LABELS)))
    for combo, p in zip(combos, probs):
        for a, b in zip(combo[:-1], combo[1:]):
            out[a, b] += p
    return out


def loop_decode_bilou(tokens, labels):
    """BILOU decoding one label at a time: every maximal run of non-O
    labels, trimmed of whitespace tokens by ``trimmed_span``."""
    n = len(tokens)
    if len(labels) != n:
        raise DataError(f"label/token length mismatch: {len(labels)} labels, {n} tokens")
    spans = []
    i = 0
    while i < n:
        if labels[i] == "O":
            i += 1
            continue
        j = i
        while j + 1 < n and labels[j + 1] != "O":
            j += 1
        span = trimmed_span(tokens, i, j)
        if span is not None:
            spans.append(span)
        i = j + 1
    return spans
