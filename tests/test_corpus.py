import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd.corpus import (
    CorpusSplit,
    Document,
    SentenceSpan,
    StatsRow,
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
    validate_document,
)
from legal_sbd.errors import DataError
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize
from oracles import loop_sentence_token_counts
from strategies import TEXTS, sorted_spans_over, spans_over


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


@pytest.mark.parametrize("bad, message", [
    (Document("bad-doc", "fr", "law", ""), "'bad-doc': empty text"),
    (Document("bad-doc", "fr", "decree", "A."), "'bad-doc': unknown type 'decree'"),
    (Document("bad-doc", "FR", "law", "A."), "'bad-doc': language 'FR' is not a two-letter"),
    (Document("bad-doc", "fr", "law", "A. B.", (SentenceSpan(0, 4), SentenceSpan(3, 5))),
     r"'bad-doc': overlapping or unsorted span at \(3, 5\)"),
    (Document(7, "fr", "law", "A."), "7: id, language, type and text must be strings"),
    (Document("bad-doc", "fr", "law", "A.", (SentenceSpan(0, np.int64(2)),)),
     re.escape(f"'bad-doc': span {(0, np.int64(2), 'Sentence')!r} is not (int, int, str)")),
], ids=["empty text", "unknown type", "upper-case language", "overlapping spans",
        "id not a string", "numpy offset"])
def test_save_rejects_what_load_rejects_and_leaves_the_file(tmp_path, bad, message):
    docs = make_corpus(3, seed=5)
    path = tmp_path / "c.jsonl"
    save_corpus(docs, path)
    before = path.read_bytes()
    with pytest.raises(DataError, match=message):
        save_corpus([*docs[:2], bad, docs[2]], path)
    assert path.read_bytes() == before


def test_save_rejects_an_id_listed_twice_and_leaves_the_file(tmp_path):
    docs = make_corpus(3, seed=5)
    path = tmp_path / "c.jsonl"
    save_corpus(docs, path)
    before = path.read_bytes()
    twin = replace(docs[2], id=docs[0].id)
    message = re.escape(f"{path}: corpus lists document id {docs[0].id!r} more than once")
    with pytest.raises(DataError, match=message):
        save_corpus([*docs, twin], path)
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


@pytest.mark.parametrize("seed", [True, 1.5, "7", None, np.int64(8)])
def test_split_seed_must_be_an_int(seed):
    # each would give a split whose file load_split rejects, or, for
    # np.int64, a TypeError from random.Random
    with pytest.raises(DataError, match=re.escape(f"split seed must be an integer, got {seed!r}")):
        split_corpus(make_corpus(10, seed=1), seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_split_refuses_a_document_listed_twice(seed):
    # unrefused, seed 0 put the repeated document in train and in
    # validation, seed 3 in validation and in test
    docs = make_corpus(10, seed=3)
    message = f"corpus lists document id {docs[0].id!r} more than once"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        split_corpus(docs + [docs[0]], seed)


def test_split_too_small():
    docs = make_corpus(4, seed=1)
    with pytest.raises(DataError, match="too small"):
        split_corpus(docs, seed=0)


@pytest.mark.parametrize(
    "doc, message",
    [
        (Document("", "fr", "law", "x"), "document with empty id"),
        (Document("d", "fr", "law", ""), "'d': empty text"),
        (Document("d", "FR", "law", "x"), "language 'FR' is not a two-letter lowercase code"),
        (Document("d", "fra", "law", "x"), "language 'fra'"),
        (Document("d", "fr", "law", "A. \n B.", (SentenceSpan(2, 5),)),
         r"span \(2, 5\) contains only whitespace"),
    ],
    ids=["empty id", "empty text", "upper-case language", "three-letter language",
         "whitespace span"],
)
def test_validate_document_rejects(doc, message):
    with pytest.raises(DataError, match=message):
        validate_document(doc)


def test_duplicate_document_id_rejected(tmp_path):
    line = json.dumps({"id": "a", "language": "fr", "type": "law", "text": "x", "spans": []})
    path = tmp_path / "c.jsonl"
    write_lines(path, [line, "", line])
    with pytest.raises(DataError, match="duplicate document id 'a' on line 3"):
        load_corpus(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "null"])
def test_line_that_is_not_an_object_rejected(tmp_path, line):
    good = json.dumps({"id": "a", "language": "fr", "type": "law", "text": "x", "spans": []})
    path = tmp_path / "c.jsonl"
    write_lines(path, [good, line])
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2 is not a JSON object")):
        load_corpus(path)


@pytest.mark.parametrize("field, value", [
    ("id", 7), ("text", None), ("text", ["A", "b."]), ("language", True), ("type", {"law": 1}),
])
def test_field_that_is_not_a_string_rejected(tmp_path, field, value):
    # str() would load 7 as "7" and null as the text "None"
    good = {"id": "a", "language": "fr", "type": "law", "text": "A. b.", "spans": []}
    path = tmp_path / "c.jsonl"
    write_lines(path, [json.dumps(good), json.dumps({**good, "id": "b", field: value})])
    message = re.escape(f"{path}: line 2: field {field!r} is not a string: {value!r}")
    with pytest.raises(DataError, match=message):
        load_corpus(path)


@pytest.mark.parametrize("label", [1, None, ["Sentence"]])
def test_span_label_that_is_not_a_string_rejected(tmp_path, label):
    span = {"start": 0, "end": 2, "label": label}
    line = json.dumps({"id": "a", "language": "fr", "type": "law", "text": "A. b.", "spans": [span]})
    path = tmp_path / "c.jsonl"
    write_lines(path, [line])
    message = re.escape(f"{path}: line 1: malformed span in document 'a': {label!r} is not a string")
    with pytest.raises(DataError, match=message):
        load_corpus(path)


def test_split_too_small_for_validation_and_test():
    # one document per language: a fifth of one rounds to none
    languages = ["de", "en", "fr", "it", "pt"]
    docs = [Document(f"d{k}", lang, "law", "A.") for k, lang in enumerate(languages)]
    with pytest.raises(DataError, match="too small to yield non-empty validation/test"):
        split_corpus(docs, seed=0)


@pytest.mark.parametrize("field", ["train", "validation", "test", "seed"])
def test_split_file_missing_field(tmp_path, field):
    obj = {"seed": 1, "train": ["a"], "validation": ["b"], "test": ["c"]}
    del obj[field]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DataError, match=f"split file missing field '{field}'"):
        load_split(path)


@pytest.mark.parametrize("train, validation, test, repeated", [
    (["a", "b", "a"], ["c"], ["d"], "a"),  # twice in one partition
    (["a", "b"], ["c"], ["b"], "b"),  # a test document in train
    (["a"], ["b", "c"], ["c", "d"], "c"),  # in validation and in test
])
def test_split_file_listing_an_id_twice(tmp_path, train, validation, test, repeated):
    path = tmp_path / "split.json"
    obj = {"seed": 1, "train": train, "validation": validation, "test": test}
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*'{repeated}' more than once"):
        load_split(path)


def test_failed_split_save_leaves_the_existing_file(tmp_path):
    # a numpy seed is no JSON number: the save fails before the file is opened
    split = split_corpus(make_corpus(10, seed=1), seed=7)
    path = tmp_path / "split.json"
    save_split(split, path)
    before = path.read_bytes()
    with pytest.raises(DataError, match="int64"):
        save_split(replace(split, seed=np.int64(7)), path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("change, message", [
    ({"seed": True}, "split seed must be an integer, got True"),
    ({"seed": 2.0}, "split seed must be an integer, got 2.0"),
    ({"seed": "7"}, "split seed must be an integer, got '7'"),
    ({"train": ("a", 3)}, "train, validation and test must be lists of id strings"),
    ({"test": ("a",)}, "split lists document id 'a' more than once"),
], ids=["bool seed", "float seed", "string seed", "id not a string", "id listed twice"])
def test_split_save_rejects_what_load_rejects_and_leaves_the_file(tmp_path, change, message):
    split = CorpusSplit(7, ("a", "b"), ("c",), ("d",))
    path = tmp_path / "split.json"
    save_split(split, path)
    before = path.read_bytes()
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        save_split(replace(split, **change), path)
    assert path.read_bytes() == before


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


def expected_rows(doc, bin_size, cutoff):
    """The stats row and the histogram bin counts of one document, from
    the loop's per-sentence token counts."""
    counts = loop_sentence_token_counts(tokenize(doc.text), doc.spans)
    row = StatsRow(doc.language, doc.doc_type, 1, len(doc.spans),
                   sum(nonws for nonws, _ in counts), sum(total for _, total in counts))
    lengths = [nonws for nonws, _ in counts]
    binned = Counter((n - 1) // bin_size if n > 0 else 0 for n in lengths if n <= cutoff)
    bins = [binned[i] for i in range(max(binned) + 1 if binned else 0)]
    return row, bins, sum(n > cutoff for n in lengths)


def assert_rows_match_the_loop(doc, bin_size, cutoff):
    row, bins, excluded = expected_rows(doc, bin_size, cutoff)
    assert corpus_stats([doc]) == [row]
    (hist,) = length_histogram([doc], bin_size=bin_size, cutoff=cutoff)
    assert [count for _, _, count, _ in hist.bins] == bins
    assert (hist.included, hist.excluded) == (sum(bins), excluded)


@given(st.data(), TEXTS, st.integers(1, 6), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_stats_and_histogram_rows_match_the_loop(data, text, bin_size, cutoff):
    spans = data.draw(sorted_spans_over(text) | spans_over(text))
    assert_rows_match_the_loop(Document("d", "fr", "law", text, tuple(spans)), bin_size, cutoff)


def test_stats_and_histogram_rows_match_the_loop_on_corpora():
    for doc in make_corpus(30, seed=8, newline_rate=0.3, abbreviation_rate=0.3):
        assert_rows_match_the_loop(doc, 5, 101)
        assert_rows_match_the_loop(doc, 2, 9)


def test_fingerprint_covers_text_and_spans():
    # same id, text length and span count: only the content differs
    a = Document("d", "fr", "judgment", "Un. Deux.", (SentenceSpan(0, 3), SentenceSpan(4, 9)))
    b = Document("d", "fr", "judgment", "Le. Vent.", (SentenceSpan(0, 3), SentenceSpan(4, 9)))
    c = Document("d", "fr", "judgment", "Un. Deux.", (SentenceSpan(0, 2), SentenceSpan(4, 9)))
    assert len({corpus_fingerprint([a]), corpus_fingerprint([b]), corpus_fingerprint([c])}) == 3
    assert corpus_fingerprint([a]) == corpus_fingerprint([a])


# what the one integer rule refuses: a bool, a float, a numpy integer, a
# string and None, each before a document is read
NOT_INTS = [True, 2.5, np.int64(5), "7", None]


def unread_documents():
    raise AssertionError("a document was read")
    yield


@pytest.mark.parametrize("bin_size", NOT_INTS + [0])
def test_histogram_bin_size_must_be_an_int_of_at_least_1(bin_size):
    message = f"bin_size must be an integer >= 1, got {bin_size!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        length_histogram(unread_documents(), bin_size=bin_size)


@pytest.mark.parametrize("cutoff", NOT_INTS + [-1])
def test_histogram_cutoff_must_be_an_int_of_at_least_0(cutoff):
    message = f"cutoff must be an integer >= 0, got {cutoff!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        length_histogram(unread_documents(), cutoff=cutoff)
