import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legal_sbd.cli import CONFIG_ENV_VAR, escape_token_text, main
from legal_sbd.corpus import load_corpus, save_corpus
from legal_sbd.crf import load_model, save_model
from legal_sbd.synthetic import make_corpus


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


def _write(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


def _overflowing_span(corpus_path):
    # JSON reads 1e400 as float infinity, which int() cannot convert
    obj = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    obj["spans"][0]["start"] = "START"
    return json.dumps(obj).replace('"START"', "1e400") + "\n"


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
        "stats", "--corpus", _write(t / "bad.jsonl", _overflowing_span(c)))),
    ("overflowing predicted span", lambda t, c, m: (
        "eval", "--gold", c, "--pred", _write(t / "bad.jsonl", _overflowing_span(c)))),
]


@pytest.mark.parametrize(
    "argv", [case for _, case in UNREADABLE_INPUTS], ids=[name for name, _ in UNREADABLE_INPUTS]
)
def test_unreadable_input_is_data_error(argv, tmp_path, corpus_path, model_path, capsys):
    assert run(*argv(tmp_path, corpus_path, model_path)) == 2
    assert capsys.readouterr().err.startswith("data error:")


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
        assert len(calls) == len(docs)
        rows = [l.split("\t") for l in dump.read_text().splitlines()]
        assert all(len(r) == 6 for r in rows)
        assert {r[5] for r in rows} <= {"B", "I", "L", "O", "U"}
        predicted = {doc.id: doc.spans for doc in load_corpus(pred)}
        for doc in docs:
            labels = [r[5] for r in rows if r[0] == doc.id]
            assert decode_bilou(tokenize(doc.text), labels) == list(predicted[doc.id])

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


class TestBaselineCommand:
    def test_emits_corpus_jsonl(self, corpus_path, tmp_path):
        out = tmp_path / "base.jsonl"
        assert run("baseline", "--in", corpus_path, "--out", out) == 0
        docs = load_corpus(out)
        assert len(docs) == 10
        assert all(doc.spans for doc in docs)


class TestBenchCommand:
    def test_reports_throughput(self, model_path, corpus_path, capsys):
        assert run("bench", "--model", model_path, "--corpus", corpus_path,
                   "--repeat", "2") == 0
        out = capsys.readouterr().out
        assert "sentences/s" in out
        assert "single-thread" in out

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

    def test_train_with_max_sequence_length(self, corpus_path, tmp_path):
        split = tmp_path / "split.json"
        model = tmp_path / "model.json"
        run("split", "--corpus", corpus_path, "--seed", "5", "--out", split)
        assert run(
            "train", "--corpus", corpus_path, "--split", split, "--out", model,
            "--max-iterations", "15", "--max-sequence-length", "40",
            "--log-level", "warning",
        ) == 0
        assert json.loads(model.read_text())["metadata"]["n_documents"] == 6

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
