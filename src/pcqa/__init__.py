"""Derivation-language QA harness.

Library for proactive conversational QA over hybrid table/text documents:
an executable derivation language with exact rational evaluation, hybrid
input/output linearization, consensus voting over sampled decodes, the
full evaluation metric suite, corpus handling, and an orchestration loop
against any sequence-generation service.
"""

from .derivation import (
    DEFAULT_CONFIG,
    BinaryOp,
    DerivationError,
    EvalConfig,
    ExecutionFailure,
    Length,
    Number,
    StringList,
    evaluate,
    execute_source,
    parse,
    parse_source,
    render,
    render_decimal,
    tokenize,
)
from .linearize import (
    ConversationHistory,
    HybridDocument,
    ParsedOutput,
    Task,
    build_model_input,
    format_target,
    linearize_document,
    linearize_history,
    parse_output,
)
from .corpus import (
    Corpus,
    CorpusExpectations,
    CorpusStats,
    Dialogue,
    DialogueTurn,
    GoldTurnAnswer,
    build_examples,
    corpus_stats,
    load_corpus,
    load_release_file,
    reconstruct_code,
    validate_corpus,
)
from .voting import (
    AllSamplesDiscarded,
    CanonicalAnswer,
    ClarifyAnswer,
    CountAnswer,
    NumericAnswer,
    SpanSetAnswer,
    VoteResult,
    canonicalize,
    consensus_vote,
    greedy_select,
)
from .metrics import (
    MetricReport,
    PredictionRecord,
    aggregate_report,
    classification_prf,
    exact_match,
    numeracy_f1,
    record_scores,
    rouge1_recall,
    rouge2_f1,
)
from .generation import (
    GeneratedOutput,
    GenerationRequest,
    GenerationResponse,
    HttpGenerator,
    ReplayGenerator,
)
from .runner import RunConfig, TurnResult, run_eval, run_turn, score_predictions

__version__ = "0.1.0"
