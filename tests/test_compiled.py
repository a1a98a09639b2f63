"""Compiled prediction against the reference path and training.

``pipeline.predicted_labels`` scores token texts through
``crf.compile_model`` and never builds feature maps; the maps of
``features.sequence_features`` scored by ``crf._unary_matrix`` remain the
reference it must equal, and training's factored product ``B @ (W @
state)`` over the same sequences the scores it must equal bit for bit."""

import copy
import functools
import importlib.util
import tracemalloc
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
            d, c, parsed = parse_indicator(ind)
            if key == "bias":
                assert (d, c) == (0, None)
            else:
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


def test_dead_indicators_compile_to_nothing():
    rng = np.random.default_rng(3)
    model = CrfModel({ind: rng.normal(size=len(LABELS)) for ind in DEAD},
                     np.zeros((5, 5)), np.zeros(5), np.zeros(5))
    compiled = compile_model(model)
    texts = texts_of(tokenize("a=b a:b (1) Art. 5.\n"))
    attrs, _ = features.padded_layout(texts, [len(texts)])
    assert not _offset_tables(compiled, attrs).any()
    assert not compiled.pattern.any()
    assert not _unary_matrix(compiled, texts).any()


def test_offset_tables_scratch_stays_bounded(small_model):
    # 50,000 distinct texts: a column folds a chunk of entries at a time, so
    # the peak is the tables and a fixed scratch, not twice the tables
    compiled = compile_model(small_model)
    texts = texts_of(tokenize(" ".join(f"w{i}" for i in range(50_000))))
    attrs, _ = features.padded_layout(texts, [len(texts)])
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
    for k in (1, chunk - 1, chunk, chunk + 1, len(attrs) - 1):
        np.testing.assert_array_equal(_offset_tables(compiled, [None, attrs[k]])[:, 1], tables[:, k])


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


def edit_row(model):
    model.state_weights[fired(model, REUSE_TEXT)[0][0]] += 0.75
    return model


def add_key(model):
    model.state_weights[fired(model, REUSE_TEXT)[1][0]] = np.linspace(-2.0, 2.0, len(LABELS))
    return model


def remove_key(model):
    del model.state_weights[fired(model, REUSE_TEXT)[0][0]]
    return model


def reorder_keys(model):
    first = next(iter(model.state_weights))
    model.state_weights[first] = model.state_weights.pop(first)
    return model


def reassign_transitions(model):
    model.transitions = np.random.default_rng(5).normal(scale=4.0, size=model.transitions.shape)
    return model


def edit_end(model):
    model.end[:] = np.linspace(3.0, -3.0, len(LABELS))
    return model


def zero_to_negative_zero(model):
    row = model.state_weights[fired(model, REUSE_TEXT)[0][0]]
    row[0] = 0.0
    assert_compiles_as_reference(model, tokenize(REUSE_TEXT))
    row[0] = -0.0
    return model


def nan_row(model):
    model.state_weights[fired(model, REUSE_TEXT)[0][0]][:] = np.nan
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
    # rows are compared by their bytes: -0.0 is not 0.0, and a NaN is itself
    for edit in (edit_row, zero_to_negative_zero, nan_row):
        edit(model)
        parsed.clear()
        pipeline.predict_documents(model, docs)
        assert len(parsed) == sum(bool(row.any()) for row in model.state_weights.values())
        parsed.clear()
        pipeline.predict_documents(model, docs)
        assert parsed == []


def test_compiled_weights_are_read_only(small_model, monkeypatch):
    monkeypatch.setattr(crf, "_last_parse", None)
    missed, hit = compile_model(small_model), compile_model(small_model)
    assert hit.weights is missed.weights and hit.pattern is missed.pattern
    for compiled in (missed, hit):
        with pytest.raises(ValueError):
            compiled.weights[0] += 1.0
        with pytest.raises(ValueError):
            compiled.pattern[0, 0] = 1.0
