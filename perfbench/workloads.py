"""Workload inputs for the benchmark, generated from a seed.

The generator follows the package's synthetic-corpus algorithm but lives
here, not in ``legal_sbd.synthetic``, so that an edit to the package's
test-data generator cannot silently change what the benchmark measures
(``selftest.py`` pins the default inputs by hash).

Every sentence starts with a capitalized word and ends with a terminator;
with ``abbreviation_rate > 0`` sentences also carry interior abbreviation
traps ("art. 12", "Sr(a). Ministro") whose periods look like sentence
ends to a punctuation rule.

The seed chooses the content -- words, numbers, traps, terminators and
separators -- but not the shape: how many sentences each document has
and how many words each sentence has come from a random stream with a
fixed seed.  Every seed therefore gives documents of the same lengths,
so that per-document latency and training time compare across seeds.
"""

from __future__ import annotations

import hashlib
import random

from legal_sbd.corpus import Document, SentenceSpan
from legal_sbd.tokenizer import tokenize

_WORDS = [
    "le", "la", "les", "cour", "tribunal", "recours", "conformément",
    "décision", "droit", "canton", "était", "selon", "être", "établi",
    "juillet", "école", "fédéral", "assurance", "travail", "indépendant",
    "considérant", "motifs", "demande", "partie", "instance", "jugement",
    "article", "lettre", "terme", "délai", "mesure", "contrôle", "peine",
    "juge", "application", "convocation", "examen", "médical", "exécution",
    "recherche", "affection", "suivantes", "condamné", "satisfaire",
    "l'école", "d'abord", "qu'il", "s'est", "n'est",
]

_TERMINATORS = (".", ".", ".", ".", "!", "?")
SHAPE_SEED = 1  # document and sentence lengths; the same for every workload seed


def _sentence(rng: random.Random, n_words: int, with_trap: bool) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    for i in range(1, n_words - 1):
        if rng.random() < 0.08:
            words[i] = str(rng.randint(2, 1999))
    if with_trap and n_words >= 2:
        at = rng.randint(1, len(words) - 1)
        if rng.random() < 0.5:
            words[at:at] = ["art.", str(rng.randint(2, 99))]
        else:
            words[at] = words[at].capitalize()
            words[at:at] = ["Sr(a)."]
    words[0] = words[0].capitalize()
    return " ".join(words) + rng.choice(_TERMINATORS)


def generate(
    n_docs: int,
    seed: int,
    *,
    sentences_per_doc: tuple[int, int] = (4, 10),
    abbreviation_rate: float = 0.0,
    newline_rate: float = 0.0,
    id_prefix: str = "doc",
) -> list[Document]:
    """*n_docs* annotated French judgments, reproducibly from *seed*."""
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    docs = []
    for d in range(n_docs):
        n_sentences = shape.randint(*sentences_per_doc)
        parts: list[str] = []
        spans: list[SentenceSpan] = []
        pos = 0
        for s in range(n_sentences):
            if s:
                sep = "\n" if rng.random() < newline_rate else " "
                parts.append(sep)
                pos += len(sep)
            sent = _sentence(rng, shape.randint(3, 9), rng.random() < abbreviation_rate)
            spans.append(SentenceSpan(pos, pos + len(sent)))
            parts.append(sent)
            pos += len(sent)
        docs.append(
            Document(f"{id_prefix}-fr-{d:04d}", "fr", "judgment", "".join(parts), tuple(spans))
        )
    return docs


def describe(docs: list[Document]) -> dict:
    """Size and content hash of a document list, printed with every run."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(doc.id.encode() + b"\0" + doc.text.encode() + b"\0")
        digest.update(",".join(f"{s.start}:{s.end}" for s in doc.spans).encode() + b"\n")
    return {
        "docs": len(docs),
        "tokens": sum(len(tokenize(doc.text)) for doc in docs),
        "sentences": sum(len(doc.spans) for doc in docs),
        "sha256": digest.hexdigest()[:16],
    }


# workload -> default seed; why each workload exists is in README.md
DEFAULT_SEEDS = {"predict_short_docs": 5150, "predict_long_doc": 4242, "train_acceptance": 2301}
TRAINING = "train_acceptance"  # the one workload whose timed loop trains

# The predict workloads score with a model trained in setup on this corpus;
# it is fixed, so the model does not change with the workload seed.
SETUP_MODEL_SEED = 2301
SETUP_MODEL_DOCS = 20
SETUP_MODEL_ITERATIONS = 40


def setup_model_corpus(tiny: bool = False) -> list[Document]:
    return generate(4 if tiny else SETUP_MODEL_DOCS, SETUP_MODEL_SEED, abbreviation_rate=0.5)


def workload_inputs(name: str, seed: int, tiny: bool = False) -> dict[str, list[Document]]:
    """The documents a workload runs on: ``predict`` always, ``train`` for
    the training workload, whose ``predict`` set is one held-out document."""
    rates = {"abbreviation_rate": 0.3, "newline_rate": 0.2}
    if name == "predict_short_docs":
        return {"predict": generate(6 if tiny else 60, seed, id_prefix="bench", **rates)}
    if name == "predict_long_doc":
        n = 30 if tiny else 1500
        return {"predict": generate(1, seed, sentences_per_doc=(n, n), id_prefix="long", **rates)}
    if name == "train_acceptance":
        n = 20 if tiny else 300
        return {
            "train": generate(5 if tiny else 50, seed),
            "predict": generate(1, seed + 1, sentences_per_doc=(n, n), id_prefix="held-out"),
        }
    raise KeyError(name)
