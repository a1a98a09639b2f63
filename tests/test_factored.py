"""Training's indicator matrix, factored.

``crf._encode_sequences`` encodes a batch as ``X = B @ W`` over the
fragments of ``features.factored_features`` and never builds the
per-position feature maps of a layout-backed sequence; ``_encode_rows``
of those maps, materialised, is the reference it must equal."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legal_sbd import crf, features, pipeline, tokenizer
from legal_sbd.corpus import Document
from legal_sbd.crf import LabeledSequence, TrainingConfig, nll_and_gradient
from legal_sbd.features import sequence_features
from legal_sbd.spans import LABELS
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize

ALPHABET = "a\u0301 1٣²\r\n.("  # that of the text-keyed layout test
DOCS = make_corpus(5, seed=17, abbreviation_rate=0.5, newline_rate=0.3)


def assert_factoring_matches_maps(sequences):
    """``B @ W`` equals ``_encode_rows`` of the materialised maps entry
    for entry, in packed order, over the same vocabulary."""
    batch = [LabeledSequence(seq, ["O"] * len(seq)) for seq in sequences]
    vocab, encoded = crf._encode_sequences(batch)
    maps = [list(seq) for seq in sequences]
    assert vocab == crf._collect_vocabulary([fv for seq in maps for fv in seq])
    packing = encoded.packing
    packed = [maps[s][t] for s, t in zip(packing.seq.tolist(), packing.step.tolist())]
    want = crf._encode_rows(packed, vocab)
    got = (encoded.B @ encoded.W).tocsr()
    assert (got.shape, got.nnz) == (want.shape, want.nnz)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    # the gradient's product through the transposed views adds in the
    # order of CSR copies of the transposes: the same bits
    B, W = encoded.B, encoded.W
    m = np.random.default_rng(len(packed)).standard_normal((B.shape[0], len(LABELS)))
    views = W.T @ (B.T @ m)
    copies = W.T.tocsr() @ (B.T.tocsr() @ m)
    assert np.array_equal(views.view(np.int64), copies.view(np.int64))


@given(st.lists(st.text(alphabet=ALPHABET, max_size=30), min_size=1, max_size=4))
@example([doc.text for doc in DOCS])
@settings(max_examples=120, deadline=None)
def test_factored_matrix_matches_the_feature_maps(texts):
    seqs = [sequence_features(tokens) for tokens in map(tokenize, texts) if tokens]
    if not seqs:
        return
    for seq in seqs:
        assert_factoring_matches_maps([seq])
    assert_factoring_matches_maps(seqs)
    # chunked documents: several sequences cut from one token list
    chunks = []
    for k, text in enumerate(texts):
        doc = Document(f"d{k}", "fr", "judgment", text)
        chunks += [labeled.features for labeled in pipeline.label_document_chunked(doc, 7)]
    assert_factoring_matches_maps(chunks)
    # layout-backed and plain-dict sequences in one batch
    assert_factoring_matches_maps([seq if k % 2 else list(seq) for k, seq in enumerate(seqs)])


def test_training_builds_no_feature_maps(monkeypatch):
    calls = 0
    build = features._merged_features

    def counted(*args):
        nonlocal calls
        calls += 1
        return build(*args)

    monkeypatch.setattr(features, "_merged_features", counted)
    config = TrainingConfig(max_iterations=3)
    pipeline.train_on_documents(DOCS, config)
    pipeline.train_on_documents(DOCS, config, max_sequence_length=40)
    assert calls == 0
    # the counter sees the maps that are built
    view = pipeline.label_document(DOCS[0]).features
    assert len(list(view)) == calls > 0


def test_training_builds_no_token(monkeypatch):
    built = []
    real = tokenizer._new_token
    monkeypatch.setattr(tokenizer, "_new_token", lambda fields: built.append(fields) or real(fields))
    config = TrainingConfig(max_iterations=3)
    pipeline.train_on_documents(DOCS, config)
    pipeline.train_on_documents(DOCS, config, max_sequence_length=40)
    assert built == []
    # the counter sees the tokens that are built
    assert len(tokenize(DOCS[0].text)) == len(built) > 0


def test_objective_on_the_view_matches_the_list():
    batch = [pipeline.label_document(doc) for doc in DOCS]
    plain = [LabeledSequence(list(seq.features), seq.labels) for seq in batch]
    own = sorted({ind for seq in plain for fv in seq.features for ind, _ in crf.indicators(fv)})
    rng = np.random.default_rng(29)
    L = len(LABELS)
    model = crf.CrfModel(
        {ind: rng.normal(size=L) * 0.3 for ind in rng.choice(own, 80, replace=False)},
        rng.normal(size=(L, L)), rng.normal(size=L), rng.normal(size=L),
    )
    config = TrainingConfig(c1=0.0, c2=0.01)
    value, grad = nll_and_gradient(model, batch, config)
    want_value, want = nll_and_gradient(model, plain, config)
    assert abs(value - want_value) <= 1e-9 * abs(want_value)
    assert grad.state_weights.keys() == want.state_weights.keys()
    pairs = [(grad.state_weights[ind], row) for ind, row in want.state_weights.items()]
    for name in ("transitions", "start", "end"):
        pairs.append((getattr(grad, name), getattr(want, name)))
    for got, row in pairs:
        assert (np.abs(got - row) <= 1e-9 * np.maximum(1.0, np.abs(row))).all()
