"""Derivation-language QA harness.

Library for proactive conversational QA over hybrid table/text documents:
an executable derivation language with exact rational evaluation, hybrid
input/output linearization, consensus voting over sampled decodes, the
full evaluation metric suite, corpus handling, and an orchestration loop
against any sequence-generation service.
"""

from .derivation import (
    DerivationError,
    ExecutionFailure,
    canonical_source,
    evaluate,
    execute_source,
    parse,
    render_decimal,
    render_list,
    tokenize,
)
from .linearize import (
    HybridDocument,
    ParsedOutput,
    Task,
    add_response,
    build_model_input,
    format_target,
    linearize_document,
    parse_output,
)
from .corpus import (
    Corpus,
    CorpusStats,
    Dialogue,
    DialogueTurn,
    GoldTurnAnswer,
    build_examples,
    corpus_stats,
    load_corpus,
    load_release_file,
    read_expectations,
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
    ScoredTurn,
    aggregate_report,
    classification_prf,
    numeracy_f1,
    record_scores,
    rouge2_f1,
)
from .generation import (
    GeneratedOutput,
    GenerationRequest,
    HttpGenerator,
    ReplayGenerator,
)
from .runner import RunConfig, TurnResult, run_eval, run_turn, score_predictions

__version__ = "0.1.0"
