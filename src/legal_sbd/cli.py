"""Command-line interface.

One executable with subcommands covering the whole pipeline::

    legal-sbd tokenize   --in text-or-corpus [--out tokens.tsv]
    legal-sbd features   --text "C'est en outre" --position 4
    legal-sbd split      --corpus corpus.jsonl --seed 42 --out split.json
    legal-sbd stats      --corpus corpus.jsonl [--out stats.csv]
    legal-sbd histogram  --corpus corpus.jsonl [--bin-size 5] [--cutoff 101]
    legal-sbd train      --corpus corpus.jsonl --split split.json --out model.json
    legal-sbd predict    --model model.json --in text-or-corpus [--out pred.jsonl]
    legal-sbd baseline   --in text-or-corpus [--out pred.jsonl]
    legal-sbd eval       --gold corpus.jsonl --pred pred.jsonl [--report out.json]
    legal-sbd bench      --model model.json --corpus corpus.jsonl [--repeat 3]

``--in`` (``tokenize``, ``predict``, ``baseline``) is read by its content: a
file whose first non-blank character is ``{`` is a corpus, read as strictly
as ``--corpus``; any other file is raw text, one document named after it.

Every command takes the global flags ``--config`` and ``--log-level``.
Any option may also come from a flat ``key=value`` config file ("#"
starts a comment); explicit flags win over config values, and a key that
no command knows is rejected.
``LEGAL_SBD_CONFIG`` names a default config file.

Exit codes: 0 success, 1 usage error, 2 data error (including a file that
cannot be read or written, or is not UTF-8), 3 internal error.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from . import corpus as corpus_mod
from .baseline import DEFAULT_RULES, RuleConfig, rule_split
from .corpus import Document, load_corpus, load_split, save_split, split_corpus
from .crf import TrainingConfig, load_model, save_model
from .errors import DataError, LegalSbdError, UsageError
from .evaluation import evaluate, import_foreign_predictions
from .features import format_features, token_features
from .pipeline import (
    filter_documents,
    predict_documents,
    predicted_labels,
    train_on_documents,
)
from .spans import decode_bilou
from .tokenizer import CharTable, Token, _token_columns, tokenize

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "LEGAL_SBD_CONFIG"

_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", " ": "\\s"}
# each code point's TSV escape: _ESCAPES, \uXXXX for other whitespace, else itself
_ESCAPE_TABLE = CharTable(lambda ch: _ESCAPES.get(ch, f"\\u{ord(ch):04x}" if ch.isspace() else ch))


def escape_token_text(text: str) -> str:
    """Escape whitespace for the one-token-per-line TSV output."""
    return text.translate(_ESCAPE_TABLE)


def _str2bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {value!r}")


@dataclass(frozen=True)
class Opt:
    name: str  # argparse dest and config-file key
    type: Callable[[str], Any]
    default: Any = None
    help: str = ""
    choices: tuple | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


# option defaults come from the library, so the two cannot drift apart
_TRAINING = TrainingConfig()
_HISTOGRAM = inspect.signature(corpus_mod.length_histogram).parameters

GLOBAL_OPTS = (
    Opt("config", str, None, "flat key=value config file (default: $" + CONFIG_ENV_VAR + ")"),
    Opt("log_level", str, "info", "logging level", ("debug", "info", "warning", "error")),
)

COMMAND_OPTS: dict[str, tuple[Opt, ...]] = {
    "tokenize": (
        Opt("in_path", str, required=True, help="input file (raw text or corpus JSONL)"),
        Opt("out", str, None, "output TSV path (default: stdout)"),
    ),
    "features": (
        Opt("text", str, None, "inline text to analyze"),
        Opt("in_path", str, None, "corpus JSONL to pull the document from"),
        Opt("doc", str, None, "document id within --in"),
        Opt("position", int, required=True, help="token position to describe"),
        Opt("out", str, None, "output path (default: stdout)"),
    ),
    "split": (
        Opt("corpus", str, required=True, help="corpus JSONL"),
        Opt("seed", int, 0, "random seed of the partition"),
        Opt("out", str, required=True, help="where to write the split JSON"),
    ),
    "stats": (
        Opt("corpus", str, required=True, help="corpus JSONL"),
        Opt("out", str, None, "output CSV path (default: stdout)"),
    ),
    "histogram": (
        Opt("corpus", str, required=True, help="corpus JSONL"),
        Opt("bin_size", int, _HISTOGRAM["bin_size"].default, "histogram bin width in tokens"),
        Opt("cutoff", int, _HISTOGRAM["cutoff"].default,
            "exclude sentences longer than this many tokens"),
        Opt("out", str, None, "output CSV path (default: stdout)"),
    ),
    "train": (
        Opt("corpus", str, required=True, help="corpus JSONL"),
        Opt("split", str, required=True, help="split JSON; training uses its train ids"),
        Opt("subset", str, "both", "document types to train on", ("judgments", "laws", "both")),
        Opt("languages", str, "all", "comma-separated language codes, or 'all'"),
        Opt("out", str, required=True, help="where to write the model JSON"),
        Opt("c1", float, _TRAINING.c1, "L1 regularization coefficient"),
        Opt("c2", float, _TRAINING.c2, "L2 regularization coefficient"),
        Opt("max_iterations", int, _TRAINING.max_iterations, "optimizer iteration cap"),
        Opt("lbfgs_memory", int, _TRAINING.lbfgs_memory, "L-BFGS history size"),
        Opt("tol", float, _TRAINING.convergence_tol,
            "relative objective-change stopping threshold"),
        Opt("max_sequence_length", int, 0,
            "split documents longer than this many tokens at sentence-external "
            "whitespace before training; 0 keeps one sequence per document"),
    ),
    "predict": (
        Opt("model", str, required=True, help="model JSON"),
        Opt("in_path", str, required=True, help="input file (raw text or corpus JSONL)"),
        Opt("out", str, None, "output JSONL path (default: stdout)"),
        Opt("dump_labels", str, None, "also write a per-token label TSV here"),
    ),
    "baseline": (
        Opt("in_path", str, required=True, help="input file (raw text or corpus JSONL)"),
        Opt("out", str, None, "output JSONL path (default: stdout)"),
        Opt("terminators", str, "".join(sorted(DEFAULT_RULES.terminators)),
            "sentence-terminating characters"),
        Opt("no_colon_newline", bool, not DEFAULT_RULES.colon_newline_rule,
            "disable the colon-before-newline rule"),
        Opt("min_sentence_chars", int, DEFAULT_RULES.min_sentence_chars,
            "drop spans shorter than this"),
    ),
    "eval": (
        Opt("gold", str, required=True, help="gold corpus JSONL"),
        Opt("pred", str, required=True, help="predicted corpus JSONL"),
        Opt("boundary", str, "both", "which span edges count as boundaries", ("both", "start", "end")),
        Opt("report", str, None, "write the full report here (.json or .csv)"),
        Opt("allow_missing", bool, False, "score documents without predictions against empty spans"),
    ),
    "bench": (
        Opt("model", str, required=True, help="model JSON"),
        Opt("corpus", str, required=True, help="corpus JSONL to predict"),
        Opt("repeat", int, 3, "timing repetitions; the medians are reported"),
    ),
}

_ALL_KEYS = {opt.name for opts in COMMAND_OPTS.values() for opt in opts} | {
    opt.name for opt in GLOBAL_OPTS
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legal-sbd",
        description="Sentence boundary detection for legal text.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, opts in COMMAND_OPTS.items():
        cmd = sub.add_parser(command, help=None)
        for opt in list(GLOBAL_OPTS) + list(opts):
            flag = opt.flag if opt.name != "in_path" else "--in"
            kwargs: dict[str, Any] = {"dest": opt.name, "default": None, "help": opt.help}
            if opt.type is bool:  # the bool options are exactly the flags
                kwargs.update(action="store_const", const=True)
            else:
                kwargs["type"] = str
                if opt.choices:
                    kwargs["choices"] = list(opt.choices)
            cmd.add_argument(flag, **kwargs)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _ALL_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _convert(opt: Opt, raw: str) -> Any:
    if opt.type is bool:
        return _str2bool(raw)
    try:
        value = opt.type(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {opt.flag}: {raw!r} ({exc})") from exc
    if opt.choices and value not in opt.choices:
        raise UsageError(f"bad value for {opt.flag}: {raw!r} (expected one of {opt.choices})")
    return value


def _resolve(args: argparse.Namespace, command: str) -> dict[str, Any]:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config_values = _load_config_file(config_path) if config_path else {}
    resolved: dict[str, Any] = {}
    for opt in list(GLOBAL_OPTS) + list(COMMAND_OPTS[command]):
        value = getattr(args, opt.name)
        if value is not None and opt.type is not bool:
            value = _convert(opt, value)
        if value is None and opt.name in config_values:
            value = _convert(opt, config_values[opt.name])
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise UsageError(f"{command}: missing required option {opt.flag}")
        resolved[opt.name] = value
    return resolved


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------


def _read_documents(path: str) -> tuple[list[Document], bool]:
    """The documents of ``--in`` (see the module docstring), and whether
    the file is a corpus."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # also turns \r\n and \r into \n
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return load_corpus(path), True
    if not text:
        return [], False
    return [Document(id=Path(path).stem, language="xx", doc_type="judgment", text=text)], False


def _write(out: str | Path | None, content: str) -> None:
    """*content* to stdout if *out* is None, else to file *out* (``corpus.write_file``)."""
    if out is None:
        sys.stdout.write(content)
    else:
        corpus_mod.write_file(out, content, lambda bad: "output")


def _lines(rows: list[str]) -> str:
    """*rows* as text, each ending in a newline."""
    return "".join(row + "\n" for row in rows)


def _token_row(tok: Token, *columns: str) -> str:
    """The ``start, end, kind, escaped text`` TSV columns of *tok*, then *columns*."""
    return "\t".join([str(tok.start), str(tok.end), tok.kind, escape_token_text(tok.text), *columns])


def _parse_languages(value: str) -> set[str] | None:
    if value == "all":
        return None
    languages = {code.strip() for code in value.split(",") if code.strip()}
    if not languages:
        raise UsageError(f"no language codes in {value!r}")
    return languages


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_tokenize(resolved: dict[str, Any]) -> int:
    docs, is_corpus = _read_documents(resolved["in_path"])
    # corpus rows carry a leading doc_id column
    rows = [
        (doc.id + "\t" if is_corpus else "") + _token_row(tok)
        for doc in docs
        for tok in tokenize(doc.text)
    ]
    _write(resolved["out"], _lines(rows))
    return 0


def _cmd_features(resolved: dict[str, Any]) -> int:
    if resolved["text"] is not None:
        tokens = tokenize(resolved["text"])
    elif resolved["in_path"] and resolved["doc"]:
        docs = {d.id: d for d in load_corpus(resolved["in_path"])}
        if resolved["doc"] not in docs:
            raise DataError(f"document {resolved['doc']!r} not in {resolved['in_path']}")
        tokens = tokenize(docs[resolved["doc"]].text)
    else:
        raise UsageError("features: need --text, or --in together with --doc")
    position = resolved["position"]
    if not 0 <= position < len(tokens):
        raise DataError(f"position {position} out of range (sequence has {len(tokens)} tokens)")
    _write(resolved["out"], format_features(token_features(tokens, position)) + "\n")
    return 0


def _cmd_split(resolved: dict[str, Any]) -> int:
    docs = load_corpus(resolved["corpus"])
    split = split_corpus(docs, resolved["seed"])
    save_split(split, resolved["out"])
    logger.info(
        "split %d documents: %d train, %d validation, %d test",
        len(docs), len(split.train), len(split.validation), len(split.test),
    )
    return 0


def _cmd_stats(resolved: dict[str, Any]) -> int:
    docs = load_corpus(resolved["corpus"])
    _write(resolved["out"], corpus_mod.stats_to_csv(corpus_mod.corpus_stats(docs)))
    return 0


def _cmd_histogram(resolved: dict[str, Any]) -> int:
    docs = (doc for path in [resolved["corpus"]] for doc in load_corpus(path))  # read after the checks
    hists = corpus_mod.length_histogram(docs, resolved["bin_size"], resolved["cutoff"])
    for hist in hists:
        logger.info(
            "%s: %d sentences binned, %d longer than %d tokens excluded",
            hist.doc_type, hist.included, hist.excluded, hist.cutoff,
        )
    _write(resolved["out"], corpus_mod.histograms_to_csv(hists))
    return 0


def _cmd_train(resolved: dict[str, Any]) -> int:
    languages = _parse_languages(resolved["languages"])
    config = TrainingConfig(c1=resolved["c1"], c2=resolved["c2"],
                            max_iterations=resolved["max_iterations"],
                            lbfgs_memory=resolved["lbfgs_memory"], convergence_tol=resolved["tol"])
    docs = load_corpus(resolved["corpus"])
    split = load_split(resolved["split"])
    known = {doc.id for doc in docs}
    stale = (set(split.train) | set(split.validation) | set(split.test)) - known
    if stale:
        raise DataError(
            f"split file {resolved['split']} references document ids missing "
            f"from the corpus: {sorted(stale)[:5]}"
        )
    train_docs = filter_documents(
        docs, ids=set(split.train), languages=languages, subset=resolved["subset"]
    )
    if not train_docs:
        raise DataError(
            "empty training set after filtering "
            f"(subset={resolved['subset']}, languages={resolved['languages']})"
        )
    model = train_on_documents(
        train_docs,
        config,
        extra_metadata={
            "subset": resolved["subset"],
            "languages": sorted(languages) if languages else "all",
            "n_documents": len(train_docs),
        },
        max_sequence_length=resolved["max_sequence_length"] or None,
    )
    save_model(model, resolved["out"])
    logger.info(
        "trained on %d documents in %s iterations; model written to %s",
        len(train_docs), model.metadata["iterations_run"], resolved["out"],
    )
    return 0


def _cmd_predict(resolved: dict[str, Any]) -> int:
    model = load_model(resolved["model"])
    docs, _ = _read_documents(resolved["in_path"])
    if resolved["dump_labels"] is None:
        predicted = predict_documents(model, docs)  # no Token is built
    else:
        # one prediction run yields both the spans and the dump
        labeled = list(zip(docs, predicted_labels(model, [d.text for d in docs])))
        rows = [doc.id + "\t" + _token_row(tok, label)
                for doc, (tokens, labels) in labeled for tok, label in zip(tokens, labels)]
        _write(resolved["dump_labels"], _lines(rows))
        predicted = [replace(doc, spans=tuple(decode_bilou(*pair))) for doc, pair in labeled]
    _write(resolved["out"], _lines([corpus_mod.document_to_json(doc) for doc in predicted]))
    return 0


def _cmd_baseline(resolved: dict[str, Any]) -> int:
    config = RuleConfig(
        terminators=frozenset(resolved["terminators"]),
        colon_newline_rule=not resolved["no_colon_newline"],
        min_sentence_chars=resolved["min_sentence_chars"],
    )
    docs, _ = _read_documents(resolved["in_path"])
    _write(resolved["out"], _lines([
        corpus_mod.document_to_json(replace(doc, spans=tuple(rule_split(doc.text, config))))
        for doc in docs
    ]))
    return 0


def _cmd_eval(resolved: dict[str, Any]) -> int:
    report_path = None if resolved["report"] is None else Path(resolved["report"])
    if report_path is not None and report_path.suffix not in (".json", ".csv"):
        raise UsageError(f"--report must end in .json or .csv, got {report_path.name}")
    gold_docs = load_corpus(resolved["gold"])
    predictions = import_foreign_predictions(resolved["pred"])
    report = evaluate(
        gold_docs,
        predictions,
        mode=resolved["boundary"],
        allow_missing=resolved["allow_missing"],
    )
    out = ["language  type      n_docs  macro_p  macro_r  macro_f1  micro_f1"]
    for key in sorted(report.per_subset):
        s = report.per_subset[key]
        out.append(
            f"{s.language:<9} {s.doc_type:<9} {s.n_docs:>6}  "
            f"{s.macro_p:7.4f}  {s.macro_r:7.4f}  {s.macro_f1:8.4f}  {s.micro_f1:8.4f}"
        )
    sys.stdout.write(_lines(out))
    if report_path is not None:
        _write(report_path, report.to_json() if report_path.suffix == ".json" else report.to_csv())
    return 0


def _cmd_bench(resolved: dict[str, Any]) -> int:
    corpus_mod.check_int("--repeat", resolved["repeat"], 1)
    model = load_model(resolved["model"])
    docs = load_corpus(resolved["corpus"])
    timings, alone = [], []  # the whole corpus in one call; each document in its own
    for _ in range(resolved["repeat"]):
        t0 = time.perf_counter()
        predicted = predict_documents(model, docs)
        timings.append(time.perf_counter() - t0)
        for doc in docs:
            t0 = time.perf_counter()
            predict_documents(model, [doc])
            alone.append(time.perf_counter() - t0)
    n_sentences = sum(len(d.spans) for d in predicted)
    n_tokens = sum(len(_token_columns(d.text).texts) for d in docs)
    seconds = statistics.median(timings)
    per_document = f"  {1000.0 * statistics.median(alone):.2f} ms/document alone" if alone else ""
    sys.stdout.write(
        f"documents: {len(docs)}  tokens: {n_tokens}  predicted sentences: {n_sentences}\n"
    )
    if n_sentences and seconds > 0:
        per_sentence = 1000.0 * seconds / n_sentences
        sys.stdout.write(
            f"median {seconds:.3f}s  {n_tokens / seconds:.0f} tokens/s  "
            f"{n_sentences / seconds:.1f} sentences/s  {per_sentence:.2f} ms/sentence"
            f"{per_document}\n"
        )
    else:
        sys.stdout.write(f"median {seconds:.3f}s  0 sentences{per_document}\n")
    return 0


_HANDLERS = {
    "tokenize": _cmd_tokenize,
    "features": _cmd_features,
    "split": _cmd_split,
    "stats": _cmd_stats,
    "histogram": _cmd_histogram,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("no command given")
    resolved = _resolve(args, args.command)
    logging.basicConfig(
        level=getattr(logging, resolved["log_level"].upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    return _HANDLERS[args.command](resolved)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code == 2 else code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except LegalSbdError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # pragma: no cover - defensive
        logging.getLogger(__name__).exception("unhandled error")
        return 3


if __name__ == "__main__":
    sys.exit(main())
