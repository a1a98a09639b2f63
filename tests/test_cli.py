import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legal_sbd
from legal_sbd import corpus as corpus_mod
from legal_sbd.cli import CONFIG_ENV_VAR, _build_parser, escape_token_text, main
from legal_sbd.corpus import load_corpus, save_corpus
from legal_sbd.crf import TrainingConfig, load_model, save_model
from legal_sbd.synthetic import make_corpus
from legal_sbd.tokenizer import tokenize


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(make_corpus(10, seed=71, newline_rate=0.2), path)
    return path


@pytest.fixture()
def model_path(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("split", "--seed", "1") == 1

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run("stats", "--corpus", bad) == 2

    def test_unknown_model_version_is_data_error(self, tmp_path, model_path, capsys):
        hacked = tmp_path / "hacked.json"
        hacked.write_text(
            model_path.read_text().replace('"version": 1', '"version": 9', 1)
        )
        assert run("predict", "--model", hacked, "--in", model_path) == 2

    def test_non_finite_model_is_data_error(self, tmp_path, model_path, capsys):
        hacked = tmp_path / "hacked.json"
        obj = json.loads(model_path.read_text())
        obj["end"][0] = float("inf")
        hacked.write_text(json.dumps(obj))
        assert run("predict", "--model", hacked, "--in", model_path) == 2

    def test_success_is_zero(self, corpus_path, tmp_path):
        assert run("split", "--corpus", corpus_path, "--seed", "3",
                   "--out", tmp_path / "split.json") == 0

    def test_threads_flag_is_usage_error(self, model_path, corpus_path, capsys):
        assert run("predict", "--model", model_path, "--in", corpus_path,
                   "--threads", "2") == 1

    def test_seed_outside_split_is_usage_error(self, corpus_path, tmp_path, capsys):
        split = tmp_path / "split.json"
        assert run("split", "--corpus", corpus_path, "--out", split) == 0
        assert run("train", "--corpus", corpus_path, "--split", split,
                   "--out", tmp_path / "m.json", "--seed", "3") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--c1", "nan"), ("--c1", "inf"), ("--c2", "nan"), ("--c2", "inf"),
        ("--tol", "nan"), ("--lbfgs-memory", "0"), ("--max-sequence-length", "-3"),
    ])
    def test_bad_training_knob_is_data_error(self, flag, value, corpus_path, tmp_path, capsys):
        split, out = tmp_path / "split.json", tmp_path / "m.json"
        assert run("split", "--corpus", corpus_path, "--out", split) == 0
        assert run("train", "--corpus", corpus_path, "--split", split,
                   "--out", out, flag, value) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()


def _write(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


def _span_start(corpus_path, literal):
    """The corpus's first line with its first span's start written as the
    JSON *literal*."""
    obj = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    obj["spans"][0]["start"] = "START"
    return json.dumps(obj).replace('"START"', literal) + "\n"


OVERFLOWING = "1e400"  # JSON reads it as float infinity, which int() cannot convert


# JSON values that int() would silently turn into an offset or a seed
NON_INTEGERS = ("1.7", '"2"', "true", "1.0")


def _train_with_seed(tmp_path, corpus_path, literal):
    # every corpus document in train, so only the seed is wrong
    ids = [json.loads(line)["id"] for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    split = {"seed": "SEED", "train": ids, "validation": [], "test": []}
    return _train_with_split(tmp_path, corpus_path, json.dumps(split).replace('"SEED"', literal))


def _train_with_split(tmp_path, corpus_path, split_json):
    split = _write(tmp_path / "split.json", split_json)
    return "train", "--corpus", corpus_path, "--split", split, "--out", tmp_path / "m.json"


# (what is wrong, argv builder taking tmp_path, corpus path and model path)
UNREADABLE_INPUTS = [
    ("missing model", lambda t, c, m: (
        "predict", "--model", t / "none.json", "--in", c)),
    ("missing corpus", lambda t, c, m: ("stats", "--corpus", t / "none.jsonl")),
    ("missing split", lambda t, c, m: (
        "train", "--corpus", c, "--split", t / "none.json", "--out", t / "m.json")),
    ("non-UTF-8 model", lambda t, c, m: (
        "predict", "--model", _write(t / "bad.json", b'{"version": 1\xff}'), "--in", c)),
    ("non-UTF-8 corpus", lambda t, c, m: (
        "stats", "--corpus", _write(t / "bad.jsonl", b'{"id": "\xff"}\n'))),
    ("non-UTF-8 eval --pred", lambda t, c, m: (
        "eval", "--gold", c, "--pred", _write(t / "bad.jsonl", b'{"id": "\xff"}\n'))),
    ("overflowing corpus span", lambda t, c, m: (
        "stats", "--corpus", _write(t / "bad.jsonl", _span_start(c, OVERFLOWING)))),
    ("overflowing predicted span", lambda t, c, m: (
        "eval", "--gold", c, "--pred", _write(t / "bad.jsonl", _span_start(c, OVERFLOWING)),
        "--allow-missing")),
    ("split that is a list", lambda t, c, m: _train_with_split(t, c, "[]")),
    ("split that is a string", lambda t, c, m: _train_with_split(t, c, '"x"')),
    ("split id list that is a number", lambda t, c, m: _train_with_split(
        t, c, '{"seed": 1, "train": 5, "validation": [], "test": []}')),
    ("split seed that is not a number", lambda t, c, m: _train_with_split(
        t, c, '{"seed": "x", "train": [], "validation": [], "test": []}')),
    ("split ids that are not strings", lambda t, c, m: _train_with_split(
        t, c, '{"seed": 1, "train": [1], "validation": [], "test": []}')),
    ("corpus integer too long to convert", lambda t, c, m: (
        "stats", "--corpus", _write(t / "bad.jsonl", _span_start(c, "9" * 5000)))),
    *[(f"corpus span offset {v}", lambda t, c, m, v=v: (
        "stats", "--corpus", _write(t / "bad.jsonl", _span_start(c, v)))) for v in NON_INTEGERS],
    *[(f"predicted span offset {v}", lambda t, c, m, v=v: (
        "eval", "--gold", c, "--pred", _write(t / "bad.jsonl", _span_start(c, v)),
        "--allow-missing")) for v in NON_INTEGERS],
    *[(f"split seed {v}", lambda t, c, m, v=v: _train_with_seed(t, c, v)) for v in NON_INTEGERS],
    ("model indicator that is not a string", lambda t, c, m: (
        "predict", "--model", _write(t / "bad.json", _extra_state_weight(m, [5, "B", 0.25])),
        "--in", c)),
]


def _extra_state_weight(model_path, triple):
    """The model file's text with *triple* appended to its state weights."""
    obj = json.loads(model_path.read_text(encoding="utf-8"))
    obj["state_weights"].append(triple)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "argv", [case for _, case in UNREADABLE_INPUTS], ids=[name for name, _ in UNREADABLE_INPUTS]
)
def test_unreadable_input_is_data_error(argv, tmp_path, corpus_path, model_path, capsys):
    assert run(*argv(tmp_path, corpus_path, model_path)) == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("id"), "line 1: missing field 'id'"),
    (lambda obj: obj.update(spans={}), "line 1: 'spans' must be a list"),
    (lambda obj: obj["spans"][0].pop("end"), "line 1: malformed span in document"),
], ids=["missing id", "spans not a list", "malformed span"])
def test_corpus_document_error_names_the_file(edit, message, corpus_path, tmp_path, capsys):
    obj = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    edit(obj)
    bad = _write(tmp_path / "broken-doc.jsonl", json.dumps(obj) + "\n")
    assert run("stats", "--corpus", bad) == 2
    assert capsys.readouterr().err.startswith(f"data error: {bad}: {message}")


@pytest.fixture(scope="module")
def intact_inputs(tmp_path_factory, small_model):
    folder = tmp_path_factory.mktemp("intact")
    model, corpus = folder / "model.json", folder / "corpus.jsonl"
    save_model(small_model, model)
    save_corpus(make_corpus(2, seed=71, newline_rate=0.2), corpus)
    return folder, model, corpus


# which intact file gets damaged, and the command that reads the damaged copy
DAMAGE_TARGETS = {
    "model": lambda bad, model, corpus, out: (
        "predict", "--model", bad, "--in", corpus, "--out", out),
    "corpus": lambda bad, model, corpus, out: ("stats", "--corpus", bad, "--out", out),
    "eval --pred": lambda bad, model, corpus, out: ("eval", "--gold", corpus, "--pred", bad),
}


@given(target=st.sampled_from(sorted(DAMAGE_TARGETS)), data=st.data())
@settings(max_examples=120, deadline=None)
def test_damaged_input_file_is_never_internal_error(intact_inputs, target, data):
    folder, model, corpus = intact_inputs
    raw = (model if target == "model" else corpus).read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:at]
    else:
        damaged = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1:]
    bad = _write(folder / "damaged", damaged)
    code = run(*DAMAGE_TARGETS[target](bad, model, corpus, folder / "out"))
    # a cut at a line end, or a changed letter of text, can leave a valid file
    assert code in (0, 2)


class TestTokenizeCommand:
    def test_raw_text(self, tmp_path, capsys):
        src = tmp_path / "input.txt"
        src.write_text("Un. Deux\n", encoding="utf-8")
        assert run("tokenize", "--in", src) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = [l.split("\t") for l in lines]
        assert [f[3] for f in fields] == ["Un", ".", "\\s", "Deux", "\\n"]
        assert [f[2] for f in fields] == ["word", "other", "whitespace", "word", "newline"]

    def test_corpus_rows_have_doc_ids(self, corpus_path, capsys):
        assert run("tokenize", "--in", corpus_path) == 0
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert len(first) == 5
        assert first[0].startswith("doc-fr-")

    def test_escaping(self):
        assert escape_token_text(" ") == "\\s"
        assert escape_token_text("\n") == "\\n"
        assert escape_token_text("\t") == "\\t"
        assert escape_token_text("a\\b") == "a\\\\b"
        assert escape_token_text(" ") == "\\u00a0"

    @staticmethod
    def loop_escape(text):
        """The TSV escape one character at a time, the reference."""
        escapes = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", " ": "\\s"}
        out = []
        for ch in text:
            if ch in escapes:
                out.append(escapes[ch])
            elif ch.isspace():
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        return "".join(out)

    @given(st.text(alphabet=st.characters() | st.sampled_from("\\\n\r\t \x85\u2028\u3000\ud800")))
    @settings(max_examples=300, deadline=None)
    def test_escaping_matches_the_character_loop(self, text):
        assert escape_token_text(text) == self.loop_escape(text)


class TestFeaturesCommand:
    def test_inline_text_golden_key_order(self, capsys):
        assert run("features", "--text", "C'est en outre", "--position", "4") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert "'-4:BOS': True" in lines
        assert "'-1:special': 'S'" in lines

    def test_out_of_range_position(self, capsys):
        assert run("features", "--text", "ab", "--position", "7") == 2

    def test_needs_text_or_doc(self, capsys):
        assert run("features", "--position", "0") == 1

    def test_document_from_corpus(self, corpus_path, capsys):
        doc = load_corpus(corpus_path)[3]
        assert run("features", "--in", corpus_path, "--doc", doc.id, "--position", "0") == 0
        out = capsys.readouterr().out
        assert "'0:BOS': True" in out.splitlines()
        assert run("features", "--text", doc.text, "--position", "0") == 0
        assert capsys.readouterr().out == out

    def test_unknown_document_is_data_error(self, corpus_path, capsys):
        assert run("features", "--in", corpus_path, "--doc", "no-such-doc", "--position", "0") == 2
        assert "'no-such-doc' not in" in capsys.readouterr().err


class TestHistogramCommand:
    def test_writes_the_library_csv(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert run("histogram", "--corpus", corpus_path, "--bin-size", "3", "--out", out) == 0
        hists = corpus_mod.length_histogram(load_corpus(corpus_path), bin_size=3)
        assert out.read_text(encoding="utf-8") == corpus_mod.histograms_to_csv(hists)

    def test_zero_bin_size_is_data_error(self, corpus_path, capsys):
        assert run("histogram", "--corpus", corpus_path, "--bin-size", "0") == 2
        assert "bin_size must be >= 1" in capsys.readouterr().err


class TestTrainPredictEval:
    def test_full_pipeline(self, corpus_path, tmp_path, capsys):
        split = tmp_path / "split.json"
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.jsonl"
        report = tmp_path / "report.json"
        assert run("split", "--corpus", corpus_path, "--seed", "5", "--out", split) == 0
        assert run(
            "train", "--corpus", corpus_path, "--split", split, "--out", model,
            "--max-iterations", "40", "--log-level", "warning",
        ) == 0
        meta = json.loads(model.read_text())["metadata"]
        assert meta["c1"] == 1.0
        assert meta["subset"] == "both"
        assert "corpus_fingerprint" in meta
        assert run("predict", "--model", model, "--in", corpus_path, "--out", pred) == 0
        docs = load_corpus(pred)
        assert len(docs) == 10
        assert run(
            "eval", "--gold", corpus_path, "--pred", pred, "--report", report,
        ) == 0
        scores = json.loads(report.read_text())
        assert scores["per_subset"][0]["macro_f1"] > 0.9

    def test_predict_raw_text(self, model_path, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("Le tribunal statue. La cour décide.", encoding="utf-8")
        assert run("predict", "--model", model_path, "--in", src) == 0
        (line,) = capsys.readouterr().out.splitlines()
        doc = json.loads(line)
        assert doc["id"] == "raw"
        assert len(doc["spans"]) == 2

    def test_predict_empty_input(self, model_path, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("", encoding="utf-8")
        assert run("predict", "--model", model_path, "--in", src) == 0
        assert capsys.readouterr().out == ""

    def test_dump_labels(self, model_path, corpus_path, tmp_path, monkeypatch):
        from legal_sbd import pipeline
        from legal_sbd.spans import decode_bilou
        from legal_sbd.tokenizer import tokenize

        calls = []
        real_viterbi = pipeline.viterbi

        def counting_viterbi(*args):
            calls.append(1)
            return real_viterbi(*args)

        monkeypatch.setattr(pipeline, "viterbi", counting_viterbi)
        pred = tmp_path / "pred.jsonl"
        dump = tmp_path / "labels.tsv"
        assert run(
            "predict", "--model", model_path, "--in", corpus_path,
            "--out", pred, "--dump-labels", dump,
        ) == 0
        docs = load_corpus(corpus_path)
        assert len(calls) == 1  # one decode for the whole corpus
        rows = [l.split("\t") for l in dump.read_text().splitlines()]
        assert all(len(r) == 6 for r in rows)
        assert {r[5] for r in rows} <= {"B", "I", "L", "O", "U"}
        predicted = {doc.id: doc.spans for doc in load_corpus(pred)}
        for doc in docs:
            labels = [r[5] for r in rows if r[0] == doc.id]
            assert decode_bilou(tokenize(doc.text), labels) == list(predicted[doc.id])

    def test_no_dump_rows_without_the_flag(self, model_path, corpus_path, tmp_path, monkeypatch):
        from legal_sbd import cli

        rows = []
        monkeypatch.setattr(cli, "_token_row", lambda *args: rows.append(args) or "")
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--model", model_path, "--in", corpus_path, "--out", pred) == 0
        assert rows == []
        assert len(load_corpus(pred)) == 10

    def test_predict_never_loads_scipy(self, model_path, corpus_path, tmp_path):
        # scipy serves training and the reference scoring path only
        child = (
            "import sys\n"
            "from legal_sbd.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        src = str(Path(legal_sbd.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", child, "predict", "--model", str(model_path),
             "--in", str(corpus_path), "--out", str(tmp_path / "pred.jsonl")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert done.stdout.split() == ["0", "False"]

    def test_train_empty_filter_is_data_error(self, corpus_path, tmp_path, capsys):
        split = tmp_path / "split.json"
        run("split", "--corpus", corpus_path, "--seed", "5", "--out", split)
        code = run(
            "train", "--corpus", corpus_path, "--split", split,
            "--out", tmp_path / "m.json", "--subset", "laws",
        )
        assert code == 2  # the synthetic corpus has judgments only

    def test_predict_after_save_load_matches(self, model_path, corpus_path, tmp_path, small_model):
        from legal_sbd.pipeline import predict_documents

        docs = load_corpus(corpus_path)
        direct = predict_documents(small_model, docs)
        loaded = predict_documents(load_model(model_path), docs)
        assert direct == loaded


    def test_predict_builds_tokens_only_for_the_dump(
        self, model_path, corpus_path, tmp_path, monkeypatch
    ):
        from legal_sbd import tokenizer

        built = []
        real = tokenizer._new_token
        monkeypatch.setattr(tokenizer, "_new_token", lambda fields: built.append(1) or real(fields))
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--model", model_path, "--in", corpus_path, "--out", pred) == 0
        assert built == []
        dumped, dump = tmp_path / "dumped.jsonl", tmp_path / "labels.tsv"
        assert run(
            "predict", "--model", model_path, "--in", corpus_path,
            "--out", dumped, "--dump-labels", dump,
        ) == 0
        assert len(built) == len(dump.read_text().splitlines())
        assert dumped.read_bytes() == pred.read_bytes()


class TestFailedWritesKeepFiles:
    """A text can hold a lone surrogate (JSON's \\ud800 escape loads as
    one), which UTF-8 cannot encode: the command fails with a data error,
    and an existing output file stays byte for byte."""

    OLD = b"earlier output\n"

    @pytest.fixture()
    def bad_corpus(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "id": "bad-doc", "language": "fr", "type": "judgment",
            "text": "Un\ud800 mot. Deux mots.",
            "spans": [{"start": 0, "end": 8, "label": "Sentence"}],
        }
        path.write_text(json.dumps(record) + "\n", encoding="ascii")  # escaped as \ud800
        return path

    def existing(self, path):
        path.write_bytes(self.OLD)
        return path

    def test_out(self, bad_corpus, tmp_path, capsys):
        out = self.existing(tmp_path / "pred.jsonl")
        assert run("baseline", "--in", bad_corpus, "--out", out) == 2
        assert "cannot encode" in capsys.readouterr().err
        assert out.read_bytes() == self.OLD

    def test_dump_labels(self, bad_corpus, model_path, tmp_path, capsys):
        out, dump = self.existing(tmp_path / "pred.jsonl"), self.existing(tmp_path / "labels.tsv")
        assert run(
            "predict", "--model", model_path, "--in", bad_corpus,
            "--out", out, "--dump-labels", dump,
        ) == 2
        assert "cannot encode" in capsys.readouterr().err
        assert dump.read_bytes() == self.OLD
        assert out.read_bytes() == self.OLD

    def test_report(self, corpus_path, tmp_path, monkeypatch, capsys):
        # a report holds only checked language and type codes and numbers,
        # so a row UTF-8 cannot encode is patched in
        from legal_sbd.evaluation import EvalReport

        monkeypatch.setattr(EvalReport, "to_csv", lambda self: "language\n\ud800\n")
        report = self.existing(tmp_path / "report.csv")
        assert run("eval", "--gold", corpus_path, "--pred", corpus_path, "--report", report) == 2
        assert "cannot encode" in capsys.readouterr().err
        assert report.read_bytes() == self.OLD


class TestBaselineCommand:
    def test_emits_corpus_jsonl(self, corpus_path, tmp_path):
        out = tmp_path / "base.jsonl"
        assert run("baseline", "--in", corpus_path, "--out", out) == 0
        docs = load_corpus(out)
        assert len(docs) == 10
        assert all(doc.spans for doc in docs)


class TestInputReadByContent:
    """``--in`` is a corpus when its first non-blank character is ``{``,
    and raw text otherwise; there is no option to say which."""

    @pytest.mark.parametrize("command", ["tokenize", "predict", "baseline"])
    def test_corpus_with_broken_first_line_is_data_error(
        self, command, corpus_path, model_path, tmp_path, capsys
    ):
        first, *rest = corpus_path.read_text(encoding="utf-8").splitlines()
        assert first.endswith("}")
        bad = _write(tmp_path / "broken_first.jsonl", "\n".join([first[:-1], *rest]) + "\n")
        model = ("--model", model_path) if command == "predict" else ()
        assert run(command, *model, "--in", bad) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error:")
        assert out == ""

    def test_corpus_after_blank_lines(self, corpus_path, tmp_path, capsys):
        padded = _write(tmp_path / "padded.jsonl", "\n \n" + corpus_path.read_text(encoding="utf-8"))
        assert run("tokenize", "--in", padded) == 0
        assert capsys.readouterr().out.split("\t", 1)[0].startswith("doc-fr-")

    def test_raw_text_newlines_read_as_lf(self, tmp_path, capsys):
        src = _write(tmp_path / "crlf.txt", b"Un.\r\nDeux.\rTrois.\n")
        assert run("tokenize", "--in", src) == 0
        out = capsys.readouterr().out
        assert [line.split("\t")[2] for line in out.splitlines()].count("newline") == 3
        assert "\\r" not in out

    def test_format_option_is_gone(self, corpus_path, capsys):
        assert run("tokenize", "--in", corpus_path, "--format", "text") == 1

    def test_format_config_key_is_unknown(self, corpus_path, tmp_path, capsys):
        cfg = _write(tmp_path / "run.cfg", "format=text\n")
        assert run("tokenize", "--in", corpus_path, "--config", cfg) == 1
        assert "unknown config key 'format'" in capsys.readouterr().err


class TestBenchCommand:
    def test_reports_throughput(self, model_path, corpus_path, capsys):
        assert run("bench", "--model", model_path, "--corpus", corpus_path,
                   "--repeat", "2") == 0
        out = capsys.readouterr().out
        assert "sentences/s" in out
        assert out.splitlines()[-1].startswith("median ")

    def test_reports_tokens_and_tokens_per_second(self, model_path, corpus_path, capsys):
        assert run("bench", "--model", model_path, "--corpus", corpus_path,
                   "--repeat", "1") == 0
        head, last = capsys.readouterr().out.splitlines()
        tokens = sum(len(tokenize(doc.text)) for doc in load_corpus(corpus_path))
        assert f"tokens: {tokens} " in head
        sentences = int(head.split()[-1])
        # median <s>s  <r> tokens/s  <r> sentences/s  <ms> ms/sentence
        words = last.split()
        assert (words[3], words[5]) == ("tokens/s", "sentences/s")
        # both rates divide by the same median time
        assert float(words[2]) / float(words[4]) == pytest.approx(tokens / sentences, rel=1e-2)

    def test_reports_the_median_latency_of_a_document_alone(
        self, model_path, corpus_path, capsys, monkeypatch
    ):
        from legal_sbd import cli

        calls = []
        predict = cli.predict_documents

        def counted(model, docs):
            calls.append([doc.id for doc in docs])
            return predict(model, docs)

        monkeypatch.setattr(cli, "predict_documents", counted)
        assert run("bench", "--model", model_path, "--corpus", corpus_path,
                   "--repeat", "2") == 0
        last = capsys.readouterr().out.splitlines()[-1]
        # the batched median, then the median of one call per document
        assert re.fullmatch(
            r"median \d+\.\d{3}s  \d+ tokens/s  \d+\.\d sentences/s  \d+\.\d\d ms/sentence"
            r"  \d+\.\d\d ms/document alone",
            last,
        )
        ids = [doc.id for doc in load_corpus(corpus_path)]
        assert calls == 2 * ([ids] + [[i] for i in ids])

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_is_data_error(self, repeat, tmp_path, capsys):
        # checked before the model or the corpus is read: neither exists
        missing = tmp_path / "missing.json"
        assert run("bench", "--model", missing, "--corpus", missing, "--repeat", repeat) == 2
        assert "--repeat must be >= 1" in capsys.readouterr().err

    def test_empty_corpus_no_division_by_zero(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run("bench", "--model", model_path, "--corpus", empty,
                   "--repeat", "1") == 0
        assert "0 sentences" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\n# comment line\nout=" + str(tmp_path / "s.json") + "\n")
        assert run("split", "--corpus", corpus_path, "--config", cfg) == 0
        first = json.loads((tmp_path / "s.json").read_text())
        # explicit flag overrides the config seed
        assert run("split", "--corpus", corpus_path, "--config", cfg, "--seed", "10") == 0
        second = json.loads((tmp_path / "s.json").read_text())
        assert first["seed"] == 9
        assert second["seed"] == 10

    def test_unknown_config_key_rejected(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("definitely_not_a_key=1\n")
        assert run("stats", "--corpus", corpus_path, "--config", cfg) == 1

    def test_env_var_config(self, corpus_path, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.cfg"
        out = tmp_path / "s.json"
        cfg.write_text(f"seed=33\nout={out}\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        assert run("split", "--corpus", corpus_path) == 0
        assert json.loads(out.read_text())["seed"] == 33

    def test_boolean_config_value(self, corpus_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("allow_missing = yes\n")
        assert run("eval", "--gold", corpus_path, "--pred", empty, "--config", cfg) == 0
        cfg.write_text("allow_missing = maybe\n")
        capsys.readouterr()
        assert run("eval", "--gold", corpus_path, "--pred", empty, "--config", cfg) == 1
        assert "expected a boolean, got 'maybe'" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, corpus_path, tmp_path):
        assert run("stats", "--corpus", corpus_path,
                   "--config", tmp_path / "nope.cfg") == 1


class TestContractDetails:
    def test_internal_error_is_exit_3(self, corpus_path, monkeypatch):
        import legal_sbd.cli as cli_mod

        def boom(resolved):
            raise RuntimeError("simulated crash")

        monkeypatch.setitem(cli_mod._HANDLERS, "stats", boom)
        assert run("stats", "--corpus", corpus_path) == 3

    def test_eval_allow_missing_empty_pred_file(self, corpus_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run("eval", "--gold", corpus_path, "--pred", empty) == 2
        assert run("eval", "--gold", corpus_path, "--pred", empty,
                   "--allow-missing") == 0
        out = capsys.readouterr().out
        assert "0.0000" in out

    def test_eval_bad_report_suffix_fails_before_scoring(self, corpus_path, tmp_path, capsys):
        report = tmp_path / "out.txt"
        assert run("eval", "--gold", corpus_path, "--pred", corpus_path,
                   "--report", report) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--report must end in .json or .csv" in err
        assert not report.exists()

    def test_eval_boundary_modes_accepted(self, corpus_path, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(corpus_path.read_text(), encoding="utf-8")
        for mode in ("both", "start", "end"):
            assert run("eval", "--gold", corpus_path, "--pred", pred,
                       "--boundary", mode) == 0

    def test_features_cli_output_is_exactly_the_golden_serialization(self, capsys):
        from legal_sbd.features import format_features
        from test_features import GOLDEN

        assert run("features", "--text", "C'est en outre", "--position", "4") == 0
        assert capsys.readouterr().out == format_features(GOLDEN) + "\n"

    def test_train_without_knobs_records_library_defaults(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        split, model = tmp_path / "split.json", tmp_path / "model.json"
        assert run("split", "--corpus", corpus_path, "--out", split) == 0
        assert run("train", "--corpus", corpus_path, "--split", split, "--out", model,
                   "--log-level", "warning") == 0
        meta = json.loads(model.read_text())["metadata"]
        defaults = asdict(TrainingConfig())
        assert {key: meta[key] for key in defaults} == defaults

    def test_train_with_max_sequence_length(self, corpus_path, tmp_path):
        split = tmp_path / "split.json"
        model = tmp_path / "model.json"
        run("split", "--corpus", corpus_path, "--seed", "5", "--out", split)
        assert run(
            "train", "--corpus", corpus_path, "--split", split, "--out", model,
            "--max-iterations", "15", "--max-sequence-length", "40",
            "--log-level", "warning",
        ) == 0
        meta = json.loads(model.read_text())["metadata"]
        assert meta["n_documents"] == 6
        assert meta["max_sequence_length"] == 40

    def test_split_from_other_corpus_rejected(self, corpus_path, tmp_path):
        other = tmp_path / "other.jsonl"
        save_corpus(make_corpus(8, seed=99, id_prefix="other"), other)
        split = tmp_path / "other_split.json"
        run("split", "--corpus", other, "--seed", "1", "--out", split)
        assert run(
            "train", "--corpus", corpus_path, "--split", split,
            "--out", tmp_path / "m.json",
        ) == 2

    def test_config_keys_accept_dashes_and_inline_comments(self, corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "s.json"
        cfg.write_text(f"max-iterations=7  # ignored trailing comment\nout={out}\nseed=4\n")
        split = tmp_path / "split.json"
        run("split", "--corpus", corpus_path, "--seed", "2", "--out", split)
        assert run("train", "--corpus", corpus_path, "--split", split,
                   "--config", cfg, "--out", out, "--log-level", "warning") == 0
        assert json.loads(out.read_text())["metadata"]["max_iterations"] == 7

    def test_languages_and_subset_filters(self, tmp_path):
        mixed = tmp_path / "mixed.jsonl"
        save_corpus(
            make_corpus(8, seed=201, language="fr")
            + make_corpus(8, seed=202, language="de", doc_type="law", id_prefix="de"),
            mixed,
        )
        split = tmp_path / "split.json"
        model = tmp_path / "m.json"
        run("split", "--corpus", mixed, "--seed", "2", "--out", split)
        assert run(
            "train", "--corpus", mixed, "--split", split, "--out", model,
            "--languages", "fr", "--subset", "judgments",
            "--max-iterations", "10", "--log-level", "warning",
        ) == 0
        meta = json.loads(model.read_text())["metadata"]
        assert meta["languages"] == ["fr"]
        assert meta["subset"] == "judgments"
        # no German judgments exist, so this filter empties the training set
        assert run(
            "train", "--corpus", mixed, "--split", split, "--out", model,
            "--languages", "de", "--subset", "judgments",
        ) == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """Arguments of every ``legal-sbd`` line in the README's CLI block,
    with ``\\`` continuations joined and ``#`` comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("legal-sbd ")]


def test_readme_cli_lines_parse(capsys):
    commands = readme_cli_commands()
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows a command the CLI rejects: legal-sbd {shlex.join(argv)}")
