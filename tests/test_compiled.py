"""Compiled prediction against the reference path and training.

``pipeline.predicted_labels`` scores token texts through
``crf.compile_model`` and never builds feature maps; the maps of
``features.sequence_features`` scored by ``crf._unary_matrix`` remain the
reference it must equal, and training's factored product ``B @ (W @
state)`` over the same sequences the scores it must equal bit for bit."""

import copy
import functools
import importlib.util
import pickle
import threading
import tracemalloc
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legal_sbd import crf, features, pipeline
from legal_sbd.crf import (
    CrfModel, LabeledSequence, TrainingConfig, _encode_sequences, _offset_tables,
    _unary_matrix, compile_model, indicators, model_to_json, viterbi,
)
from legal_sbd.features import COLUMNS, MAX_RADIUS, parse_indicator, sequence_features
from legal_sbd.spans import LABELS
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize
import strategies

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# Indicators the fixed feature set never emits, and near misses of live
# ones; a compiled model must drop them, as the reference path scores
# them zero.
DEAD = (
    "0:space=true", "0:space=false", "+11:special=End", "-11:BOS=false",
    "0:length=5", "+3:length=1", "-3:EOS=true", "+3:BOS=false", "+2:numeric=false",
    "0:number=true", "+4:lower=true", "-8:sign=c", "0:special", "0:lower",
    "bias=true", "0:BOS", "+03:special=No", "-0:lowercase=a", "+0:sign=c", "length",
)
# categories holding "=" or ":", which the compiled model must split off
# their key at the first "=" only; "+1:lowercase==" is live after a "="
ODD_VALUES = (
    "0:lowercase=a=b", "+1:lowercase=a:b", "-2:sign=S:S", "0:special=End=",
    "+1:lowercase==", "0:lowercase=:", "-1:lowercase=:", "0:lowercase=", "0:lower=maybe",
)

# text drawn from all of Unicode, from short runs of the characters legal
# text splits on, and from whitespace alone
LEGAL_CHARS = "aZé1.;:=()[]'’ \n\t"
TEXTS = st.one_of(
    st.text(min_size=1, max_size=1),  # often a single token
    st.text(min_size=1, max_size=2 * MAX_RADIUS),
    st.text(alphabet=LEGAL_CHARS, min_size=1, max_size=2 * MAX_RADIUS),
    st.text(alphabet=LEGAL_CHARS, min_size=1, max_size=120),
    st.text(alphabet=" \t\n\r  ", min_size=1, max_size=12),
    st.text(max_size=300),
)


def texts_of(tokens) -> list[str]:
    """The token texts that compiled scoring reads."""
    return [token.text for token in tokens]


def random_model(data, tokens) -> CrfModel:
    """A sparse model over some of the tokens' own indicators and some
    dead or odd ones, with random weights."""
    own = sorted({ind for fv in sequence_features(tokens) for ind, _ in indicators(fv)})
    picked = data.draw(st.lists(st.sampled_from(own), max_size=60, unique=True), label="own")
    foreign = st.sampled_from(DEAD + ODD_VALUES)
    picked += data.draw(st.lists(foreign, max_size=12, unique=True), label="foreign")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    L = len(LABELS)
    weights = {}
    for ind in picked:
        row = rng.normal(size=L)
        row[rng.random(L) < 0.3] = 0.0  # some labels unweighted, some rows all zero
        weights[ind] = row
    return CrfModel(weights, rng.normal(size=(L, L)), rng.normal(size=L), rng.normal(size=L))


@given(text=TEXTS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_unary_matches_reference(text, data):
    tokens = tokenize(text)
    if not tokens:
        return
    model = random_model(data, tokens)
    compiled = _unary_matrix(compile_model(model), texts_of(tokens))
    reference = _unary_matrix(model, sequence_features(tokens))
    np.testing.assert_allclose(compiled, reference, rtol=1e-12, atol=1e-12)
    # the same sums in the same order
    assert np.array_equal(compiled, reference)


@given(text=TEXTS)
@settings(max_examples=200, deadline=None)
def test_parse_indicator_inverts_indicators(text):
    for fv in sequence_features(tokenize(text)):
        for key, value in fv.items():
            ((ind, _),) = indicators({key: value})
            if key == "bias" or key.endswith((":BOS", ":EOS")):
                # a position pattern's, which compiling looks up by its string
                assert parse_indicator(ind) is None and ind in features.PATTERN_SLOTS
                continue
            d, c, parsed = parse_indicator(ind)
            offset, name = key.split(":")
            assert (d, COLUMNS[c]) == (int(offset), "number" if name == "numeric" else name)
            if parsed is None:  # a number, which the token supplies
                assert ind == key and type(value) is int
            else:
                assert parsed == value and type(parsed) is type(value)
                assert indicators({key: parsed}) == [(ind, 1.0)]


def test_dead_indicators_parse_to_nothing():
    assert [ind for ind in DEAD if parse_indicator(ind) is not None] == []
    # a value is split off at the first "=" and typed by its column
    lowercase, sign, lower = (COLUMNS.index(name) for name in ("lowercase", "sign", "lower"))
    assert parse_indicator("+1:lowercase==") == (1, lowercase, "=")
    assert parse_indicator("0:lowercase=a=b") == (0, lowercase, "a=b")
    assert parse_indicator("-2:sign=S:S") == (-2, sign, "S:S")
    assert parse_indicator("+3:lower=false") == (3, lower, False)
    assert parse_indicator("0:lower=maybe") is None


def test_every_offset_lists_its_keys_in_column_order():
    # the compiled tables fold a token's columns in TEMPLATES order at every
    # offset, the centre included, so a text fragment must list its keys in
    # that order for the sums to match
    for token in tokenize("Art. 12 (a)\n"):
        attrs = features._token_attrs(token.text)
        for d in range(-MAX_RADIUS, MAX_RADIUS + 1):
            fragment = features._text_features(d, attrs)
            columns = [parse_indicator(ind)[1] for ind, _ in indicators(fragment)]
            assert all(c < after for c, after in zip(columns, columns[1:])), d
            # the table's prefix that reaches d; the centre has no space key
            radius = dict(features.TEMPLATES)
            want = [name for name in radius if radius[name] >= abs(d) and (d or name != "space")]
            assert [COLUMNS[c] for c in columns] == want, d


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_pattern_table_scores_every_pattern_fragment(data):
    # each of the 144 position patterns' fragment, encoded as training
    # encodes it, against its row of the compiled table, bit for bit
    live = sorted(features.PATTERN_SLOTS)
    picked = data.draw(st.lists(st.sampled_from(live + list(DEAD + ODD_VALUES)), unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    L = len(LABELS)
    weights = {}
    for ind in picked:
        row = rng.normal(size=L)
        row[rng.random(L) < 0.3] = data.draw(st.sampled_from([0.0, -0.0]), label="zero")
        weights[ind] = row
    model = CrfModel(weights, np.zeros((L, L)), np.zeros(L), np.zeros(L))
    index = {ind: k for k, ind in enumerate(weights)}
    state = np.array(list(weights.values())).reshape(len(index), L)
    side = features.PATTERN_SIDE
    fragments = [features._pattern_features(*divmod(code, side)) for code in range(side**2)]
    assert len(fragments) == 144
    want = crf._encode_rows(fragments, index) @ state
    assert np.array_equal(bits(compile_model(model).pattern), bits(want))


def test_dead_indicators_compile_to_nothing():
    rng = np.random.default_rng(3)
    model = CrfModel({ind: rng.normal(size=len(LABELS)) for ind in DEAD},
                     np.zeros((5, 5)), np.zeros(5), np.zeros(5))
    compiled = compile_model(model)
    texts = texts_of(tokenize("a=b a:b (1) Art. 5.\n"))
    attrs = features.padded_layout(texts, [len(texts)])[0][1:]  # the padding entry dropped
    assert not _offset_tables(compiled, attrs).any()
    assert not compiled.pattern.any()
    assert not _unary_matrix(compiled, texts).any()


def test_offset_tables_scratch_stays_bounded(small_model):
    # 50,000 distinct texts: a column folds a chunk of entries at a time, so
    # the peak is the tables and a fixed scratch, not twice the tables
    compiled = compile_model(small_model)
    texts = texts_of(tokenize(" ".join(f"w{i}" for i in range(50_000))))
    attrs = features.padded_layout(texts, [len(texts)])[0][1:]  # the padding entry dropped
    assert len(attrs) > 50_000
    tracemalloc.start()
    try:
        tables = _offset_tables(compiled, attrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tables.nbytes
    # a row depends on its entry alone, chunk edges included
    chunk = crf._TABLE_CHUNK
    for k in (0, chunk - 1, chunk, chunk + 1, len(attrs) - 1):
        np.testing.assert_array_equal(_offset_tables(compiled, [attrs[k]])[:, 0], tables[:, k])


def bits(U: np.ndarray) -> np.ndarray:
    """The doubles of *U* as integers, so -0.0 and 0.0 differ."""
    return U.view(np.int64)


def empty_memo(compiled):
    """*compiled* with a memo that holds no text yet."""
    return compiled._replace(memo=crf._TextMemo())


@given(text=strategies.TEXTS, other=strategies.TEXTS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_memo_never_changes_a_score(text, other, data):
    # every memo state gives the reference path's unary bits and labels
    tokens, others = tokenize(text), texts_of(tokenize(other))
    if not tokens:
        return
    texts = texts_of(tokens)
    model, rival = random_model(data, tokens), random_model(data, tokenize(other) or tokens)
    # a key no token gives, so the rival's parse is never the model's
    rival.state_weights = {**rival.state_weights, "+1:lowercase=two words": np.ones(len(LABELS))}
    reference = bits(_unary_matrix(model, sequence_features(tokens)))
    labels = viterbi(model, sequence_features(tokens))

    def check(compiled):
        assert np.array_equal(bits(_unary_matrix(compiled, texts)), reference)
        assert viterbi(compiled, texts) == labels

    check(empty_memo(compile_model(model)))  # cold
    warm = empty_memo(compile_model(model))
    if others:
        _unary_matrix(warm, others)
    check(warm)  # holding other texts
    check(warm)  # holding the text's own too
    if others:  # batched and alone agree on a warm memo
        both = [len(others), len(texts)]
        assert viterbi(warm, others + texts, both)[len(others) :] == labels
        U = _unary_matrix(warm, others + texts, both)
        assert np.array_equal(bits(U[len(others) :]), reference)
    # another model compiled in between: a new parse, with an empty memo,
    # while the stale compiled model keeps scoring through its own
    first = compile_model(model)
    check(first)
    _unary_matrix(compile_model(rival), others or texts)
    again = compile_model(model)
    assert again.memo is not first.memo and not again.memo.index
    check(again)
    check(first)
    # a reset forced by a small cap on texts or on their characters
    cap = data.draw(st.integers(1, 4), label="cap")
    chars_cap = data.draw(st.integers(1, 40), label="chars_cap")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_MEMO_TEXTS", cap)
        patch.setattr(crf, "_MEMO_CHARS", chars_cap)
        small = empty_memo(compile_model(model))
        if others:
            _unary_matrix(small, others)
        check(small)
        # at most the caps or the texts of the call that started it afresh
        bound = max(cap, len(set(others)), len(set(texts)))
        assert len(small.memo.index) <= bound
        assert small.memo.tables.shape[1] <= bound + 1
        held = sum(map(len, small.memo.index))
        assert small.memo.chars == held
        assert held <= max(chars_cap, *(sum(map(len, set(t))) for t in (others, texts)))


def test_memo_folds_only_the_texts_it_lacks(small_model, monkeypatch):
    attrs_of, folded_rows = [], []
    token_attrs, offset_tables = crf._token_attrs, crf._offset_tables

    def counting_attrs(text):
        attrs_of.append(text)
        return token_attrs(text)

    def counting_tables(compiled, attrs):
        folded_rows.append(len(attrs))
        return offset_tables(compiled, attrs)

    monkeypatch.setattr(crf, "_token_attrs", counting_attrs)
    monkeypatch.setattr(crf, "_offset_tables", counting_tables)
    monkeypatch.setattr(crf, "_last_parse", None)
    docs = make_corpus(6, seed=4711)
    held: set[str] = set()
    for doc in docs:
        texts = set(texts_of(tokenize(doc.text)))
        attrs_of.clear()
        folded_rows.clear()
        pipeline.predict_documents(small_model, [doc])
        # each text the memo lacked is folded once, and no text it held
        assert sorted(attrs_of) == sorted(texts - held)
        assert sum(folded_rows) == len(attrs_of)
        held |= texts
    attrs_of.clear()
    folded_rows.clear()
    pipeline.predict_documents(small_model, docs)
    assert attrs_of == [] and folded_rows == []


def test_memo_memory_stays_bounded(small_model, monkeypatch):
    # 50,000 distinct texts in calls of 6,000 and one of 20,000: the memo
    # holds at most max(cap, one call's distinct texts) rows, and what a
    # call leaves allocated is those rows and their index
    monkeypatch.setattr(crf, "_last_parse", None)
    compiled = compile_model(small_model)
    memo, cap = compiled.memo, crf._MEMO_TEXTS
    per_text = compiled.weights.shape[0] * len(LABELS) * 8  # one text's rows
    words = (f"w{i}" for i in range(50_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for size in (6_000, 6_000, 20_000, 6_000, 6_000, 6_000):
            _unary_matrix(compiled, list(islice(words, size)))
            bound = max(cap, size)
            assert len(memo.index) <= bound
            assert memo.tables.shape[1] <= bound + 1
            left = tracemalloc.get_traced_memory()[0] - before
            assert left <= (bound + 1) * per_text + 256 * len(memo.index) + 2**20
    finally:
        tracemalloc.stop()
    assert next(words, None) is None
    assert len(memo.index) == 6_000  # the last reset kept the last call's texts


def test_memo_bounds_the_characters_it_keeps(small_model, monkeypatch):
    # 2,000 texts of 1,000 characters at 4 bytes each, in calls of 100: the
    # memo keeps the characters of at most max(cap, one call's) of them, and
    # what a call leaves allocated is its rows, those characters at 4 bytes
    # and the index, however long the texts are
    monkeypatch.setattr(crf, "_last_parse", None)
    compiled = compile_model(small_model)
    memo, cap = compiled.memo, crf._MEMO_CHARS
    words = [f"{i:05d}".rjust(1_000, "\N{MATHEMATICAL FRAKTUR SMALL A}") for i in range(2_000)]
    call = 100 * 1_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for lo in range(0, len(words), 100):
            _unary_matrix(compiled, words[lo : lo + 100])
            held = sum(map(len, memo.index))
            assert memo.chars == held <= max(cap, call)
            left = tracemalloc.get_traced_memory()[0] - before
            assert left <= memo.tables.nbytes + 4 * max(cap, call) + 256 * len(memo.index) + 2**20
    finally:
        tracemalloc.stop()
    assert len(memo.index) < len(words) // 2


def test_threads_predict_as_serially(small_model, monkeypatch):
    # 4 threads predict interleaved documents under two alternating models,
    # each in its own order, and each gets the serial predictions; a small
    # cap makes the shared memos reset while they run
    rival = copy.deepcopy(small_model)
    rival.state_weights = {ind: row * -0.5 for ind, row in rival.state_weights.items()}
    rival.transitions = rival.transitions[::-1].copy()
    docs = make_corpus(12, seed=2718)
    jobs = [(small_model if i % 2 else rival, doc) for i, doc in enumerate(docs)]
    serial = [pipeline.predict_documents(model, [doc])[0] for model, doc in jobs]
    assert serial[0].spans != pipeline.predict_documents(small_model, [docs[0]])[0].spans
    monkeypatch.setattr(crf, "_MEMO_TEXTS", 64)
    start = threading.Barrier(4)
    got: dict[int, list] = {}

    def work(t):
        order = list(range(t, len(jobs))) + list(range(t))
        start.wait()
        out = {}
        for _ in range(3):
            for i in order:
                model, doc = jobs[i]
                out.setdefault(i, []).append(pipeline.predict_documents(model, [doc])[0])
        got[t] = [out[i] for i in range(len(jobs))]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(got) == [0, 1, 2, 3]
    for t in got:
        assert got[t] == [[want] * 3 for want in serial], t


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
SETUP_TEXTS = [doc.text for doc in WORKLOADS.setup_model_corpus()]


@functools.cache
def setup_model() -> CrfModel:
    """The benchmark's predict workloads' model, trained on SETUP_TEXTS."""
    config = TrainingConfig(max_iterations=WORKLOADS.SETUP_MODEL_ITERATIONS)
    return pipeline.train_on_documents(WORKLOADS.setup_model_corpus(), config)


@given(texts=st.lists(TEXTS, min_size=1, max_size=4), data=st.data())
@example(texts=SETUP_TEXTS, data=None)  # the benchmark's setup model on its own corpus
@settings(max_examples=150, deadline=None)
def test_compiled_unary_is_trainings_product(texts, data):
    token_lists = [tokens for tokens in map(tokenize, texts) if tokens]
    if not token_lists:
        return
    flat = [token for tokens in token_lists for token in tokens]
    lengths = [len(tokens) for tokens in token_lists]
    model = setup_model() if data is None else random_model(data, flat)
    compiled = _unary_matrix(compile_model(model), texts_of(flat), lengths)
    # training's unary scores, from packed order back to token order
    batch = [LabeledSequence(sequence_features(t), ["O"] * len(t)) for t in token_lists]
    vocab, encoded = _encode_sequences(batch, known=model.state_weights)
    state = np.zeros((len(vocab), len(LABELS)))
    for ind, row in model.state_weights.items():
        state[vocab[ind]] = row
    packing = encoded.packing
    trained = np.empty_like(compiled)
    rows = (np.cumsum(lengths) - lengths)[packing.seq] + packing.step
    trained[rows] = encoded.B @ (encoded.W @ state)
    assert np.array_equal(compiled, trained)


def test_prediction_builds_no_feature_maps_and_compiles_once(small_model, monkeypatch):
    calls = {"sequence_features": 0, "feature maps": 0, "compile_model": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(pipeline, "sequence_features",
                        counting("sequence_features", pipeline.sequence_features))
    monkeypatch.setattr(features, "_merged_features",
                        counting("feature maps", features._merged_features))
    monkeypatch.setattr(pipeline, "compile_model",
                        counting("compile_model", pipeline.compile_model))
    docs = make_corpus(6, seed=808, abbreviation_rate=0.5)
    before = model_to_json(small_model), set(vars(small_model))
    predicted = pipeline.predict_documents(small_model, docs)
    assert len(predicted) == len(docs)
    assert calls == {"sequence_features": 0, "feature maps": 0, "compile_model": 1}
    # nothing was stored on the model
    assert (model_to_json(small_model), set(vars(small_model))) == before


def test_compiled_labels_match_reference_on_a_trained_model(small_model):
    compiled = compile_model(small_model)
    for doc in make_corpus(4, seed=809, abbreviation_rate=0.5, newline_rate=0.3):
        tokens = tokenize(doc.text)
        assert viterbi(compiled, texts_of(tokens)) == viterbi(small_model, sequence_features(tokens))


# A text whose tokens fire indicators a trained model has and some it lacks.
REUSE_TEXT = make_corpus(1, seed=812, abbreviation_rate=0.5)[0].text + " Zqx. Art. 5 (1).\n"


def fired(model, text):
    """The indicators *text*'s tokens give, in order: (known to *model*,
    unknown to it)."""
    inds = dict.fromkeys(ind for fv in sequence_features(tokenize(text))
                         for ind, _ in indicators(fv))
    known = [ind for ind in inds if ind in model.state_weights]
    return known, [ind for ind in inds if ind not in model.state_weights]


def assert_compiles_as_reference(model, tokens):
    compiled = compile_model(model)
    reference = sequence_features(tokens)
    texts = texts_of(tokens)
    assert _unary_matrix(compiled, texts).tobytes() == _unary_matrix(model, reference).tobytes()
    assert viterbi(compiled, texts) == viterbi(model, reference)


def writeable(model):
    """A copy of *model*'s state weights whose rows can be written;
    assigning it to a model stores a read-only copy of it."""
    return {ind: row.copy() for ind, row in model.state_weights.items()}


def edit_row(model):
    weights = writeable(model)
    weights[fired(model, REUSE_TEXT)[0][0]] += 0.75
    model.state_weights = weights
    return model


def add_key(model):
    weights = writeable(model)
    weights[fired(model, REUSE_TEXT)[1][0]] = np.linspace(-2.0, 2.0, len(LABELS))
    model.state_weights = weights
    return model


def remove_key(model):
    weights = writeable(model)
    del weights[fired(model, REUSE_TEXT)[0][0]]
    model.state_weights = weights
    return model


def reorder_keys(model):
    weights = writeable(model)
    first = next(iter(weights))
    weights[first] = weights.pop(first)
    model.state_weights = weights
    return model


def reassign_transitions(model):
    model.transitions = np.random.default_rng(5).normal(scale=4.0, size=model.transitions.shape)
    return model


def edit_end(model):
    model.end[:] = np.linspace(3.0, -3.0, len(LABELS))
    return model


def zero_to_negative_zero(model):
    weights = writeable(model)
    row = weights[fired(model, REUSE_TEXT)[0][0]]
    row[0] = 0.0
    model.state_weights = weights
    assert_compiles_as_reference(model, tokenize(REUSE_TEXT))
    row[0] = -0.0
    model.state_weights = weights
    return model


def nan_row(model):
    weights = writeable(model)
    weights[fired(model, REUSE_TEXT)[0][0]][:] = np.nan
    model.state_weights = weights
    return model


@pytest.mark.parametrize("edit", [
    edit_row, add_key, remove_key, reorder_keys, reassign_transitions, edit_end,
    zero_to_negative_zero, nan_row,
])
def test_reused_compile_matches_reference_after_an_edit(small_model, edit):
    model = copy.deepcopy(small_model)
    tokens = tokenize(REUSE_TEXT)
    assert_compiles_as_reference(model, tokens)  # the parse before the edit is kept
    model = edit(model)
    assert_compiles_as_reference(model, tokens)
    assert_compiles_as_reference(model, tokens)  # and reused


def test_two_models_used_alternately_compile_as_reference(small_model):
    first, second = copy.deepcopy(small_model), edit_row(copy.deepcopy(small_model))
    tokens = tokenize(REUSE_TEXT)
    for model in (first, second, first, second, second, first):
        assert_compiles_as_reference(model, tokens)


def test_unchanged_model_is_parsed_once(small_model, monkeypatch):
    parsed = []

    def counting(ind):
        parsed.append(ind)
        return parse_indicator(ind)

    monkeypatch.setattr(crf, "parse_indicator", counting)
    model = copy.deepcopy(small_model)
    docs = make_corpus(3, seed=813)
    first = pipeline.predict_documents(model, docs)
    parsed.clear()
    assert pipeline.predict_documents(model, docs) == first
    assert parsed == []
    # every edit assigns new state weights, which are parsed anew, even where
    # their bytes barely differ: -0.0 after 0.0, or a NaN row after another
    for edit in (edit_row, zero_to_negative_zero, nan_row):
        edit(model)
        parsed.clear()
        pipeline.predict_documents(model, docs)
        assert len(parsed) == sum(bool(row.any()) for row in model.state_weights.values())
        parsed.clear()
        pipeline.predict_documents(model, docs)
        assert parsed == []


def one_sequence_gradient(model, _):
    batch = [LabeledSequence([{"bias": 1.0, "0:lowercase=a": 1.0}], ["U"])]
    return crf.nll_and_gradient(model, batch, TrainingConfig(c1=0.0))[1]


def saved_and_loaded(model, tmp_path):
    crf.save_model(model, tmp_path / "model.json")
    return crf.load_model(tmp_path / "model.json")


def trained(model, _):
    seq = LabeledSequence([{"bias": 1.0, "0:lowercase=a": 1.0}] * 3, ["B", "I", "L"])
    return crf.train([seq], TrainingConfig(c1=0.0, max_iterations=3))


@pytest.mark.parametrize("make", [
    lambda model, _: CrfModel(writeable(model), model.transitions, model.start, model.end),
    lambda model, _: replace(model),
    lambda model, _: copy.deepcopy(model),
    lambda model, _: pickle.loads(pickle.dumps(model)),
    saved_and_loaded, one_sequence_gradient, trained,
], ids=["constructor", "replace", "deepcopy", "pickle", "load_model", "gradient", "train"])
def test_every_way_to_make_a_model_freezes_its_state_weights(small_model, tmp_path, make):
    model = make(small_model, tmp_path)
    assert model.state_weights is not small_model.state_weights
    ind, row = next((ind, row) for ind, row in model.state_weights.items() if row.any())
    before = row.copy()
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(ValueError):
        row += 1.0
    with pytest.raises(TypeError):
        model.state_weights[ind] = np.ones(len(LABELS))
    assert np.array_equal(model.state_weights[ind], before)


def test_a_deep_copy_is_parsed_as_its_own(small_model, monkeypatch):
    monkeypatch.setattr(crf, "_last_parse", None)
    original = compile_model(small_model)
    twin = copy.deepcopy(small_model)
    copied = compile_model(twin)
    assert copied.weights is not original.weights  # parsed anew, to the same weights
    assert np.array_equal(copied.weights, original.weights)
    assert compile_model(twin).weights is copied.weights  # and then reused
    with pytest.raises(ValueError):
        next(iter(twin.state_weights.values()))[:] = 0.0
    assert_compiles_as_reference(twin, tokenize(REUSE_TEXT))


def test_a_reassigned_mapping_predicts_with_its_new_weights(small_model):
    model = copy.deepcopy(small_model)
    tokens = tokenize(REUSE_TEXT)
    before = viterbi(compile_model(model), texts_of(tokens))
    weights = {ind: -row for ind, row in model.state_weights.items()}
    model.state_weights = weights
    assert_compiles_as_reference(model, tokens)
    after = viterbi(compile_model(model), texts_of(tokens))
    assert after != before
    # the model holds a copy: editing the assigned mapping changes nothing
    for row in weights.values():
        row[:] = 0.0
    assert viterbi(compile_model(model), texts_of(tokens)) == after
    assert_compiles_as_reference(model, tokens)


def test_compiled_weights_are_read_only(small_model, monkeypatch):
    monkeypatch.setattr(crf, "_last_parse", None)
    missed, hit = compile_model(small_model), compile_model(small_model)
    assert hit.weights is missed.weights and hit.pattern is missed.pattern
    for compiled in (missed, hit):
        with pytest.raises(ValueError):
            compiled.weights[0] += 1.0
        with pytest.raises(ValueError):
            compiled.pattern[0, 0] = 1.0
