import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd.baseline import rule_split
from legal_sbd.corpus import Document, SentenceSpan, save_corpus
from legal_sbd.errors import DataError
from legal_sbd.evaluation import (
    BOUNDARY_MODES,
    boundary_vector,
    clip_overlaps,
    evaluate,
    import_foreign_predictions,
    prf,
)
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize
from oracles import loop_boundary_vector
from strategies import TEXTS, sorted_spans_over, spans_over


def bits(reference, spans, mode="both"):
    return boundary_vector(reference, spans, mode).astype(int).tolist()


class TestBoundaryVector:
    def test_two_short_sentences_every_token_is_boundary(self):
        seq = tokenize("A. B.")
        got = bits(seq, [SentenceSpan(0, 2), SentenceSpan(3, 5)])
        assert got == [1, 1, 0, 1, 1]

    def test_empty_spans_all_false(self):
        seq = tokenize("Un texte.")
        assert bits(seq, []) == [0] * len(seq)

    def test_modes(self):
        seq = tokenize("Un texte entier.")  # [Un][ ][texte][ ][entier][.]
        spans = [SentenceSpan(0, 16)]
        assert bits(seq, spans, "start") == [1, 0, 0, 0, 0, 0]
        assert bits(seq, spans, "end") == [0, 0, 0, 0, 0, 1]
        assert bits(seq, spans, "both") == [1, 0, 0, 0, 0, 1]

    def test_foreign_tokenizer_decoupling(self):
        # a system whose tokenizer glues "C'" together still marks the same
        # reference token as the sentence start
        text = "C'est en outre."
        seq = tokenize(text)
        ours = bits(seq, [SentenceSpan(0, len(text))])
        foreign_start_inside_c_apostrophe = bits(seq, [SentenceSpan(1, len(text))])
        assert ours[0] == 1
        # span starting inside token "C" (offset 0) vs at offset 1 (the
        # apostrophe token) differ; but any edge strictly inside a
        # multi-character token maps to that token:
        seq2 = tokenize("Bonjour tout.")
        a = bits(seq2, [SentenceSpan(0, 13)])
        b = bits(seq2, [SentenceSpan(3, 13)])  # starts inside "Bonjour"
        assert a == b

    def test_leading_newline_span_is_not_normalized(self):
        # a span swallowing the separator newline designates the newline
        # token as the sentence start: a false prediction, by design
        text = "Un.\nDeux."
        seq = tokenize(text)
        gold = bits(seq, [SentenceSpan(4, 9)])
        with_newline = bits(seq, [SentenceSpan(3, 9)])
        assert gold != with_newline
        assert with_newline[seq.index(next(t for t in seq if t.text == "\n"))] == 1

    @given(st.data(), TEXTS, st.sampled_from(BOUNDARY_MODES))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, data, text, mode):
        seq = tokenize(text)
        spans = data.draw(spans_over(text) | sorted_spans_over(text))
        try:
            expected = loop_boundary_vector(seq, spans, mode)
        except DataError:
            with pytest.raises(DataError):
                boundary_vector(seq, spans, mode)
        else:
            assert boundary_vector(seq, spans, mode).tolist() == expected.tolist()

    def test_span_outside_text_rejected(self):
        seq = tokenize("abc")
        with pytest.raises(DataError, match="outside"):
            boundary_vector(seq, [SentenceSpan(0, 9)])

    def test_jitter_inside_edge_tokens_never_changes_vector(self):
        rng = random.Random(99)
        docs = make_corpus(30, seed=31, newline_rate=0.2)
        for doc in docs:
            seq = tokenize(doc.text)
            base = boundary_vector(seq, doc.spans)
            for span in doc.spans:
                first = next(t for t in seq if t.end > span.start)
                last = next(t for t in reversed(seq) if t.start < span.end)
                for _ in range(3):
                    s = rng.randint(first.start, first.end - 1)
                    e = rng.randint(last.start + 1, last.end)
                    jittered = [
                        SentenceSpan(s, e) if sp == span else sp for sp in doc.spans
                    ]
                    assert np.array_equal(boundary_vector(seq, jittered), base)


class TestPrf:
    def test_perfect(self):
        gold = np.array([1, 0, 1, 0], dtype=bool)
        assert prf(gold, gold) == (1.0, 1.0, 1.0)

    def test_half(self):
        gold = np.array([1, 0, 1, 0], dtype=bool)
        pred = np.array([1, 1, 0, 0], dtype=bool)
        assert prf(gold, pred) == (0.5, 0.5, 0.5)

    def test_degenerate_conventions(self):
        gold = np.array([1, 0], dtype=bool)
        none = np.zeros(2, dtype=bool)
        assert prf(gold, none) == (0.0, 0.0, 0.0)
        assert prf(none, none) == (0.0, 0.0, 0.0)
        assert prf(none, gold) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            prf(np.zeros(2, dtype=bool), np.zeros(3, dtype=bool))


class TestEvaluate:
    def test_gold_vs_gold_is_perfect(self):
        docs = make_corpus(8, seed=41)
        report = evaluate(docs, {d.id: list(d.spans) for d in docs})
        for doc_score in report.per_document:
            assert doc_score.f1 == 1.0
        for subset in report.per_subset.values():
            assert subset.macro_f1 == 1.0
            assert subset.micro_f1 == 1.0

    def test_macro_is_document_mean(self):
        docs = [
            Document("a", "fr", "law", "Un. Deux.", (SentenceSpan(0, 3), SentenceSpan(4, 9))),
            Document("b", "fr", "law", "Trois. Quatre.", (SentenceSpan(0, 6), SentenceSpan(7, 14))),
        ]
        predictions = {
            "a": list(docs[0].spans),  # perfect -> F1 1.0
            "b": [SentenceSpan(0, 6)],  # half the sentences
        }
        report = evaluate(docs, predictions)
        by_id = {d.doc_id: d for d in report.per_document}
        assert by_id["a"].f1 == 1.0
        expected_macro = (by_id["a"].f1 + by_id["b"].f1) / 2
        subset = report.per_subset[("fr", "law")]
        assert subset.macro_f1 == pytest.approx(expected_macro)
        assert subset.n_docs == 2
        # macro and micro are both present and generally different
        assert subset.micro_f1 != subset.macro_f1

    def test_subsets_keyed_by_language_and_type(self):
        docs = (
            make_corpus(3, seed=1, language="fr")
            + make_corpus(3, seed=2, language="pt", id_prefix="pt")
            + make_corpus(3, seed=3, doc_type="law", id_prefix="law")
        )
        report = evaluate(docs, {d.id: list(d.spans) for d in docs})
        assert set(report.per_subset) == {
            ("fr", "judgment"), ("pt", "judgment"), ("fr", "law"),
        }

    def test_order_independent(self):
        docs = make_corpus(6, seed=44)
        predictions = {d.id: list(d.spans[:-1]) for d in docs}
        fwd = evaluate(docs, predictions)
        rev = evaluate(list(reversed(docs)), predictions)
        assert fwd.per_subset == rev.per_subset

    def test_missing_prediction_rejected_unless_allowed(self):
        docs = make_corpus(3, seed=45)
        with pytest.raises(DataError, match="missing prediction"):
            evaluate(docs, {})
        report = evaluate(docs, {}, allow_missing=True)
        for doc_score in report.per_document:
            assert doc_score.f1 == 0.0

    def test_unknown_doc_id_rejected(self):
        docs = make_corpus(3, seed=46)
        predictions = {d.id: list(d.spans) for d in docs}
        predictions["ghost"] = []
        with pytest.raises(DataError, match="unknown document ids"):
            evaluate(docs, predictions)

    def test_unknown_mode_rejected_before_any_document(self):
        with pytest.raises(DataError, match="boundary mode"):
            evaluate([], {}, mode="bogus")
        docs = make_corpus(2, seed=48)
        with pytest.raises(DataError, match="boundary mode"):
            evaluate(docs, {}, mode="bogus", allow_missing=True)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_document_scores_are_those_of_the_loop_vectors(self, mode):
        docs = make_corpus(20, seed=49, newline_rate=0.3, abbreviation_rate=0.3)
        predictions = {d.id: rule_split(d.text) for d in docs}
        report = evaluate(docs, predictions, mode=mode)
        for doc, score in zip(docs, report.per_document):
            seq = tokenize(doc.text)
            gold = loop_boundary_vector(seq, doc.spans, mode)
            pred = loop_boundary_vector(seq, predictions[doc.id], mode)
            assert (score.precision, score.recall, score.f1) == prf(gold, pred)
            assert score.support == gold.sum()

    def test_report_serialization(self, tmp_path):
        docs = make_corpus(4, seed=47)
        report = evaluate(docs, {d.id: list(d.spans) for d in docs})
        obj = json.loads(report.to_json())
        assert obj["boundary_mode"] == "both"
        assert {s["language"] for s in obj["per_subset"]} == {"fr"}
        assert {d["doc_id"] for d in obj["per_document"]} == {d.id for d in docs}
        csv_text = report.to_csv()
        assert csv_text.startswith("language,type,n_docs,")


class TestForeignImport:
    def test_reimported_gold_scores_perfectly(self, tmp_path):
        docs = make_corpus(5, seed=51)
        path = tmp_path / "pred.jsonl"
        save_corpus(docs, path)
        predictions = import_foreign_predictions(path)
        report = evaluate(docs, predictions)
        for subset in report.per_subset.values():
            assert subset.macro_f1 == 1.0

    def test_overlaps_clipped(self):
        spans = [SentenceSpan(0, 10), SentenceSpan(5, 20), SentenceSpan(30, 40)]
        got = clip_overlaps(spans)
        assert got == [SentenceSpan(0, 10), SentenceSpan(10, 20), SentenceSpan(30, 40)]

    def test_swallowed_spans_dropped(self):
        spans = [SentenceSpan(0, 20), SentenceSpan(5, 15)]
        assert clip_overlaps(spans) == [SentenceSpan(0, 20)]

    def test_overlapping_file_accepted(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text(
            json.dumps(
                {"id": "a", "language": "fr", "type": "law", "text": "x" * 30,
                 "spans": [{"start": 0, "end": 10}, {"start": 5, "end": 20}]}
            )
            + "\n",
            encoding="utf-8",
        )
        predictions = import_foreign_predictions(path)
        assert predictions["a"] == [SentenceSpan(0, 10), SentenceSpan(10, 20)]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "a", "spans": [{"start": "x"}]}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"pred\.jsonl: malformed prediction line 1: "):
            import_foreign_predictions(path)

    @pytest.mark.parametrize("doc_id", [5, None, ["a"]])
    def test_id_that_is_not_a_string_rejected(self, tmp_path, doc_id):
        # str() would score {"id": 5} against gold document "5"
        path = tmp_path / "pred.jsonl"
        path.write_text(json.dumps({"id": doc_id, "spans": []}) + "\n", encoding="utf-8")
        message = re.escape(f"pred.jsonl: malformed prediction line 1: {doc_id!r} is not a string")
        with pytest.raises(DataError, match=message):
            import_foreign_predictions(path)

    @pytest.mark.parametrize("start, end", [(4, 4), (6, 2)], ids=["empty", "inverted"])
    def test_empty_or_inverted_span_rejected(self, tmp_path, start, end):
        path = tmp_path / "pred.jsonl"
        spans = [{"start": 0, "end": 2}, {"start": start, "end": end}]
        path.write_text(json.dumps({"id": "a", "spans": spans}) + "\n", encoding="utf-8")
        message = r"pred\.jsonl: line 1: empty or inverted span in document 'a'"
        with pytest.raises(DataError, match=message):
            import_foreign_predictions(path)

    def test_duplicate_document_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        line = json.dumps({"id": "a", "spans": [{"start": 0, "end": 2}]})
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"pred\.jsonl: duplicate prediction for document 'a'"):
            import_foreign_predictions(path)
