"""Independent brute-force oracles.

Everything here avoids the dynamic-programming recursions under test:
sequence scores come from direct term summation over explicitly
enumerated label sequences, so disagreement with the fast paths means a
real bug rather than a shared one.
"""

import itertools
import re
from bisect import bisect_left, bisect_right

import numpy as np

from legal_sbd.baseline import OPENING_QUOTES, RuleConfig
from legal_sbd.corpus import SentenceSpan
from legal_sbd.crf import CrfModel, LabeledSequence, TrainingConfig, indicators
from legal_sbd.errors import DataError
from legal_sbd.spans import LABELS
from legal_sbd.tokenizer import (
    NEWLINE,
    NUMBER,
    OTHER,
    SPACE_KINDS,
    WORD,
    TokenColumns,
    _classify,
    tokenize,
)


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
            up, down = copy.deepcopy(model), copy.deepcopy(model)
            up_row, down_row = model.state_weights[ind].copy(), model.state_weights[ind].copy()
            up_row[k] += h
            down_row[k] -= h
            up.state_weights = {**up.state_weights, ind: up_row}
            down.state_weights = {**down.state_weights, ind: down_row}
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


def loop_forward(U, trans, start, packing):
    """``crf._forward`` as a loop that slices each step's rows out of
    arrays of its own: (a, s, P, E, shift), the same sums in the same
    order, which the packing's precomputed step views must reproduce bit
    for bit."""
    from legal_sbd.crf import _row_max

    n0 = packing.batch_sizes[0]
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
    for before, lo, n in packing.steps:
        rows = np.einsum("ri,ij->rj", a[before : before + n], E, out=a[lo : lo + n])
        rows *= P[lo : lo + n]
        np.add.reduce(rows, axis=1, out=s[lo : lo + n])
        rows /= s[lo : lo + n, None]
    shift[n0:] += trans_shift
    return a, s, P, E, shift


def loop_backward(P, E, s, end, packing):
    """``crf._backward`` as a loop over slices of arrays of its own, the
    reference of the packing's backward step views."""
    b = np.empty_like(P)
    b[:] = np.exp(end - end.max())
    scratch = np.empty_like(P[: packing.batch_sizes[0]])
    for before, lo, n in reversed(packing.steps):
        after = np.multiply(P[lo : lo + n], b[lo : lo + n], out=scratch[:n])
        rows = np.einsum("rj,ij->ri", after, E, out=b[before : before + n])
        rows /= s[lo : lo + n, None]
    return b


def loop_token_columns(text: str) -> TokenColumns:
    """The token columns of *text* by the regular expression the
    tokenizer's boundary rule replaced: the matches of ``w[wm]*|n+|s+|.``
    over the class code of each character, from ``_classify`` one
    character at a time, left to right."""
    runs = re.findall("w[wm]*|n+|s+|.", "".join(map(_classify, text)))
    ends = list(itertools.accumulate(map(len, runs)))
    texts = [text[i:j] for i, j in zip([0, *ends], ends)]
    return TokenColumns(texts, ends, "".join(run[0] for run in runs))


def loop_token_ranges(tokens, spans):
    """(first, last) indices of the tokens whose character range
    intersects each of *spans*, by bisecting the tokens' start and end
    offsets; first > last for a span that intersects none."""
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    return [(bisect_right(ends, s.start), bisect_left(starts, s.end) - 1) for s in spans]


def loop_encode_bilou(tokens, spans):
    """BILOU labels written one token at a time over ``loop_token_ranges``."""
    labels = ["O"] * len(tokens)
    next_free = 0  # first token index not claimed by an earlier span
    for span, (first, last) in zip(spans, loop_token_ranges(tokens, spans)):
        first = max(first, next_free)
        if first > last:
            raise DataError(f"span ({span.start}, {span.end}) intersects no unclaimed token")
        if first == last:
            labels[first] = "U"
        else:
            labels[first] = "B"
            for i in range(first + 1, last):
                labels[i] = "I"
            labels[last] = "L"
        next_free = last + 1
    return labels


def loop_boundary_vector(tokens, spans, mode="both"):
    """Boundary bits set one span at a time over ``loop_token_ranges``."""
    text_len = tokens[-1].end if tokens else 0
    bits = np.zeros(len(tokens), dtype=bool)
    for span, (first, last) in zip(spans, loop_token_ranges(tokens, spans)):
        if not (0 <= span.start < span.end <= text_len):
            raise DataError(f"span ({span.start}, {span.end}) outside text of length {text_len}")
        if mode in ("both", "start"):
            bits[first] = True
        if mode in ("both", "end"):
            bits[last] = True
    return bits


def loop_sentence_token_counts(tokens, spans):
    """(non-whitespace, total) counts of the tokens each span intersects."""
    counts = []
    for first, last in loop_token_ranges(tokens, spans):
        run = tokens[first : last + 1]
        counts.append((sum(tok.kind not in SPACE_KINDS for tok in run), len(run)))
    return counts


def loop_trimmed_span(tokens, a, b):
    """The span of tokens *a* through *b*, trimmed to start and end on
    non-whitespace tokens; None if all of them are whitespace."""
    while a <= b and tokens[a].kind in SPACE_KINDS:
        a += 1
    while b >= a and tokens[b].kind in SPACE_KINDS:
        b -= 1
    return SentenceSpan(tokens[a].start, tokens[b].end) if a <= b else None


def loop_decode_bilou(tokens, labels):
    """BILOU decoding one label at a time: every maximal run of non-O
    labels, trimmed of whitespace tokens by ``loop_trimmed_span``."""
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
        span = loop_trimmed_span(tokens, i, j)
        if span is not None:
            spans.append(span)
        i = j + 1
    return spans


def _loop_starts_sentence(token):
    if token.kind == NUMBER:
        return True
    if token.kind == WORD:
        return token.text[0].isupper()
    return token.text in OPENING_QUOTES


def loop_rule_split(text, config=RuleConfig()):
    """The rule baseline walking ``Token``s: each rule is checked at every
    token, and the tokens between cuts are trimmed by ``loop_trimmed_span``."""
    if not config.terminators:
        raise DataError("rule config needs at least one terminator")
    tokens = tokenize(text)
    n = len(tokens)
    cuts = []  # sentence ends after tokens[i]
    for i, tok in enumerate(tokens):
        if tok.kind == OTHER and tok.text in config.terminators:
            j = i + 1
            while j < n and tokens[j].kind in SPACE_KINDS:
                j += 1
            if j >= n or (j > i + 1 and _loop_starts_sentence(tokens[j])):
                cuts.append(i)
        elif (
            config.colon_newline_rule
            and tok.kind == OTHER
            and tok.text == ":"
            and i + 1 < n
            and tokens[i + 1].kind == NEWLINE
        ):
            cuts.append(i)
        elif tok.kind == NEWLINE and i + 1 < n and tokens[i + 1].kind == NEWLINE:
            cuts.append(i)
    spans = []
    begin = 0
    for cut in cuts + [n - 1]:
        if cut < begin:
            continue
        span = loop_trimmed_span(tokens, begin, cut)
        if span is not None and span.end - span.start >= config.min_sentence_chars:
            spans.append(span)
        begin = cut + 1
    return spans
