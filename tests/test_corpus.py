import json

import pytest

from legal_sbd.corpus import (
    Document,
    SentenceSpan,
    corpus_fingerprint,
    corpus_stats,
    histograms_to_csv,
    length_histogram,
    load_corpus,
    load_split,
    save_corpus,
    save_split,
    split_corpus,
    stats_to_csv,
)
from legal_sbd.errors import DataError
from legal_sbd.synthetic import make_corpus


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_minimal_record(tmp_path):
    line = json.dumps(
        {
            "id": "d1",
            "language": "fr",
            "type": "law",
            "text": "A. B.",
            "spans": [
                {"start": 0, "end": 2, "label": "Sentence"},
                {"start": 3, "end": 5, "label": "Sentence"},
            ],
        }
    )
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    docs = load_corpus(path)
    assert len(docs) == 1
    assert len(docs[0].spans) == 2
    assert docs[0].spans[0] == SentenceSpan(0, 2)


def test_spans_are_named_tuples_of_three_fields():
    span = SentenceSpan(4, 9)
    assert SentenceSpan._fields == ("start", "end", "label")
    assert (span.start, span.end, span.label) == (4, 9, "Sentence")
    assert span == (4, 9, "Sentence") == SentenceSpan(start=4, end=9, label="Sentence")
    assert span != SentenceSpan(4, 9, "Other")
    assert len({span, SentenceSpan(4, 9), (4, 9, "Sentence")}) == 1
    for field in SentenceSpan._fields:
        with pytest.raises(AttributeError):
            setattr(span, field, 0)
    assert repr(span) == "SentenceSpan(start=4, end=9, label='Sentence')"


def test_span_out_of_range(tmp_path):
    line = json.dumps(
        {"id": "d1", "language": "fr", "type": "law", "text": "abcde",
         "spans": [{"start": 0, "end": 6}]}
    )
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    with pytest.raises(DataError, match="span out of range") as exc_info:
        load_corpus(path)
    assert "d1" in str(exc_info.value)


def test_overlapping_spans_rejected(tmp_path):
    line = json.dumps(
        {"id": "d2", "language": "fr", "type": "law", "text": "abcdef",
         "spans": [{"start": 0, "end": 4}, {"start": 3, "end": 6}]}
    )
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    with pytest.raises(DataError, match="overlapping"):
        load_corpus(path)


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps({"id": "a", "language": "fr", "type": "law", "text": "x", "spans": []})
    path.write_text(good + "\n{nope\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(path)


def test_unknown_doc_type_rejected(tmp_path):
    line = json.dumps({"id": "a", "language": "fr", "type": "novel", "text": "x", "spans": []})
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    with pytest.raises(DataError, match="unknown type"):
        load_corpus(path)


def test_crlf_normalized_with_offsets(tmp_path):
    text = "Un.\r\nDeux."
    spans = [{"start": 0, "end": 3}, {"start": 5, "end": 10}]
    line = json.dumps({"id": "a", "language": "fr", "type": "law", "text": text, "spans": spans})
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    (doc,) = load_corpus(path)
    assert doc.text == "Un.\nDeux."
    assert doc.spans[0] == SentenceSpan(0, 3)
    assert doc.spans[1] == SentenceSpan(4, 9)
    assert doc.text[doc.spans[1].start : doc.spans[1].end] == "Deux."


def test_save_load_round_trip(tmp_path):
    docs = make_corpus(8, seed=5, newline_rate=0.3)
    path = tmp_path / "c.jsonl"
    save_corpus(docs, path)
    loaded = load_corpus(path)
    assert loaded == docs
    # saving what was loaded is byte-identical
    path2 = tmp_path / "c2.jsonl"
    save_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_save_leaves_the_existing_file(tmp_path):
    # Python-built text can hold a lone surrogate, which UTF-8 cannot encode
    docs = make_corpus(3, seed=5)
    path = tmp_path / "c.jsonl"
    save_corpus(docs, path)
    before = path.read_bytes()
    bad = Document("bad-doc", "fr", "judgment", "Un\ud800.", (SentenceSpan(0, 3),))
    with pytest.raises(DataError, match=r"c\.jsonl: document 'bad-doc' holds '\\ud800'"):
        save_corpus([*docs[:2], bad, docs[2]], path)
    assert path.read_bytes() == before


def test_split_is_deterministic_partition():
    docs = make_corpus(10, seed=1)
    split_a = split_corpus(docs, seed=42)
    split_b = split_corpus(docs, seed=42)
    assert split_a == split_b
    assert len(split_a.train) == 6
    assert len(split_a.validation) == 2
    assert len(split_a.test) == 2
    ids = sorted(split_a.train + split_a.validation + split_a.test)
    assert ids == sorted(d.id for d in docs)


def test_split_changes_with_seed():
    docs = make_corpus(30, seed=1)
    assert split_corpus(docs, seed=1) != split_corpus(docs, seed=2)


def test_split_stratified_per_language():
    docs = make_corpus(10, seed=1, language="fr") + make_corpus(
        7, seed=2, language="de", id_prefix="de"
    )
    split = split_corpus(docs, seed=0)
    by_lang = {"fr": 0, "de": 0}
    for doc_id in split.validation:
        by_lang[next(d.language for d in docs if d.id == doc_id)] += 1
    assert by_lang == {"fr": 2, "de": 1}  # round-half-up of 20% per language
    test_counts = {"fr": 0, "de": 0}
    for doc_id in split.test:
        test_counts[next(d.language for d in docs if d.id == doc_id)] += 1
    assert test_counts == {"fr": 2, "de": 1}


def test_split_partition_property_over_seeds():
    docs = make_corpus(23, seed=9)
    all_ids = sorted(d.id for d in docs)
    for seed in range(20):
        split = split_corpus(docs, seed)
        combined = sorted(split.train + split.validation + split.test)
        assert combined == all_ids


def test_split_too_small():
    docs = make_corpus(4, seed=1)
    with pytest.raises(DataError, match="too small"):
        split_corpus(docs, seed=0)


def test_split_file_round_trip(tmp_path):
    docs = make_corpus(10, seed=1)
    split = split_corpus(docs, seed=7)
    path = tmp_path / "split.json"
    save_split(split, path)
    assert load_split(path) == split
    obj = json.loads(path.read_text())
    assert set(obj) == {"seed", "train", "validation", "test"}


def test_stats_counts():
    doc = Document("d", "fr", "law", "A. B.", (SentenceSpan(0, 2), SentenceSpan(3, 5)))
    (row,) = corpus_stats([doc])
    assert row.documents == 1
    assert row.sentences == 2
    assert row.tokens == 4  # A . B .
    assert row.tokens_with_whitespace == 4  # separator space is outside both spans


def test_stats_empty_corpus():
    assert corpus_stats([]) == []
    assert stats_to_csv([]).splitlines() == [
        "language,type,documents,sentences,tokens,tokens_with_whitespace"
    ]


def test_stats_sentences_equal_span_totals():
    docs = make_corpus(9, seed=3) + make_corpus(
        4, seed=4, doc_type="law", id_prefix="law"
    )
    rows = corpus_stats(docs)
    assert sum(r.sentences for r in rows) == sum(len(d.spans) for d in docs)
    assert {(r.language, r.doc_type) for r in rows} == {("fr", "judgment"), ("fr", "law")}


def test_histogram_single_sentence_bin():
    # 7 tokens -> second bin of width 5, i.e. 6-10
    doc = Document("d", "fr", "law", "un deux trois quatre cinq six sept",
                   (SentenceSpan(0, 34),))
    (hist,) = length_histogram([doc], bin_size=5, cutoff=101)
    assert hist.bins[-1][:2] == (6, 10)
    assert hist.bins[-1][3] == 1.0
    assert hist.excluded == 0


def test_histogram_cutoff_excludes_long_sentences():
    words = " ".join(["mot"] * 150)
    doc = Document("d", "fr", "law", words + " Fin.",
                   (SentenceSpan(0, len(words)), SentenceSpan(len(words) + 1, len(words) + 5)))
    (hist,) = length_histogram([doc], bin_size=5, cutoff=101)
    assert hist.excluded == 1
    assert hist.included == 1


def test_histogram_frequencies_normalized():
    docs = make_corpus(10, seed=6)
    hists = length_histogram(docs, bin_size=5, cutoff=101)
    for hist in hists:
        assert abs(sum(b[3] for b in hist.bins) - 1.0) < 1e-9
    csv_text = histograms_to_csv(hists)
    assert csv_text.startswith("type,bin_start,bin_end,count,frequency")


def test_fingerprint_covers_text_and_spans():
    # same id, text length and span count: only the content differs
    a = Document("d", "fr", "judgment", "Un. Deux.", (SentenceSpan(0, 3), SentenceSpan(4, 9)))
    b = Document("d", "fr", "judgment", "Le. Vent.", (SentenceSpan(0, 3), SentenceSpan(4, 9)))
    c = Document("d", "fr", "judgment", "Un. Deux.", (SentenceSpan(0, 2), SentenceSpan(4, 9)))
    assert len({corpus_fingerprint([a]), corpus_fingerprint([b]), corpus_fingerprint([c])}) == 3
    assert corpus_fingerprint([a]) == corpus_fingerprint([a])
