"""Sentence boundary detection for legal text.

A classical pipeline: lossless offset-preserving tokenization, BILOU span
labeling, windowed sparse features, a linear-chain CRF trained with
elastic-net-regularized maximum likelihood, a rule-based baseline
splitter, and a tokenizer-decoupled token-level evaluation harness.
"""

from .baseline import RuleConfig, rule_split
from .corpus import (
    CorpusSplit,
    Document,
    SentenceSpan,
    corpus_stats,
    length_histogram,
    load_corpus,
    save_corpus,
    split_corpus,
)
from .crf import (
    CrfModel,
    LabeledSequence,
    TrainingConfig,
    load_model,
    log_partition,
    marginals,
    nll_and_gradient,
    save_model,
    score,
    train,
    viterbi,
)
from .errors import DataError, LegalSbdError, TrainingError, UsageError
from .evaluation import EvalReport, boundary_vector, evaluate, import_foreign_predictions, prf
from .features import signature, special_category, token_features
from .pipeline import (
    label_document,
    predict_document,
    predict_documents,
    predict_text,
    train_on_documents,
)
from .spans import LABELS, decode_bilou, encode_bilou
from .tokenizer import Token, TokenSequence, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "CorpusSplit",
    "CrfModel",
    "DataError",
    "Document",
    "EvalReport",
    "LABELS",
    "LabeledSequence",
    "LegalSbdError",
    "RuleConfig",
    "SentenceSpan",
    "Token",
    "TokenSequence",
    "TrainingConfig",
    "TrainingError",
    "UsageError",
    "boundary_vector",
    "corpus_stats",
    "decode_bilou",
    "detokenize",
    "encode_bilou",
    "evaluate",
    "import_foreign_predictions",
    "label_document",
    "length_histogram",
    "load_corpus",
    "load_model",
    "log_partition",
    "marginals",
    "nll_and_gradient",
    "predict_document",
    "predict_documents",
    "predict_text",
    "prf",
    "rule_split",
    "save_corpus",
    "save_model",
    "score",
    "signature",
    "special_category",
    "split_corpus",
    "token_features",
    "tokenize",
    "train",
    "train_on_documents",
    "viterbi",
]
