"""End-to-end evaluation loop against a generation service.

For each turn: linearize the document and conversation history, request a
greedy decode or a batch of sampled decodes, reduce them to one canonical
answer (consensus voting or the greedy baseline), then score against gold
once; the report aggregates those per-turn scores.
Gold-history mode conditions every turn on gold prior responses;
predicted-history mode feeds each turn's own final response into the next
turn's history. In both, up to `concurrency` dialogues run at once while the
turns of each dialogue run in order. Reports and logs are a deterministic
function of (corpus, decodes, config) regardless of request scheduling.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TextIO

from .corpus import Corpus, Dialogue, DialogueTurn
from .derivation import DEFAULT_CONFIG, EvalConfig
from .generation import (
    GREEDY,
    SAMPLE,
    GenerationRequest,
    Generator,
)
from .linearize import (
    ConversationHistory,
    HybridDocument,
    Task,
    build_model_input,
    format_target,
)
from .metrics import (
    EmptyRecordSet,
    MetricReport,
    PredictionRecord,
    ScoredRecord,
    aggregate_report,
    record_scores,
)
from .voting import (
    AllSamplesDiscarded,
    CanonicalAnswer,
    VoteResult,
    canonicalize,
    consensus_vote,
    greedy_select,
)

logger = logging.getLogger(__name__)

CV = "cv"


class UnknownTurnId(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    mode: str = CV  # "cv" or "greedy"
    history: str = "gold"  # "gold" or "predicted"
    eval_config: EvalConfig = field(default_factory=EvalConfig)
    num_samples: int = 40
    top_k: int = 40
    temperature: float = 0.5
    max_target_length: int = 128
    concurrency: int = 8

    def __post_init__(self):
        if self.mode not in (CV, GREEDY):
            raise ValueError(f"mode must be cv or greedy, got {self.mode!r}")
        if self.history not in ("gold", "predicted"):
            raise ValueError(f"history must be gold or predicted, got {self.history!r}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {self.concurrency}")


@dataclass
class TurnResult:
    turn_id: str
    samples: list[str]
    vote: VoteResult | None
    answer: CanonicalAnswer | None
    final_text: str
    fallback_used: bool
    latency_s: float


def run_turn(
    doc: HybridDocument,
    history: ConversationHistory,
    turn: DialogueTurn,
    generator: Generator,
    config: RunConfig,
) -> TurnResult:
    """Generate, vote (or greedy-select), and render one turn's response.

    When every sampled output is discarded, an extra greedy request is the
    fallback; if that decode is also unusable the turn yields the empty
    answer and scores zero. Malformed model output never aborts a run.
    """
    started = time.perf_counter()
    model_input = build_model_input(doc, history)
    greedy = GenerationRequest(
        input=model_input,
        mode=GREEDY,
        max_target_length=config.max_target_length,
        turn_id=turn.turn_id,
    )
    vote: VoteResult | None = None
    answer: CanonicalAnswer | None = None
    fallback = False
    if config.mode == CV:
        outputs = generator.generate(
            GenerationRequest(
                input=model_input,
                mode=SAMPLE,
                num_samples=config.num_samples,
                top_k=config.top_k,
                temperature=config.temperature,
                max_target_length=config.max_target_length,
                turn_id=turn.turn_id,
            )
        ).outputs
        try:
            vote = consensus_vote(outputs, config.eval_config)
            answer = vote.winner
        except AllSamplesDiscarded:
            fallback = True
    else:
        outputs = generator.generate(greedy).outputs
        answer = greedy_select(outputs)
    if fallback:
        answer = greedy_select(generator.generate(greedy).outputs)
    return TurnResult(
        turn_id=turn.turn_id,
        samples=[o.text for o in outputs],
        vote=vote,
        answer=answer,
        final_text=answer.text(config.eval_config) if answer else "",
        fallback_used=fallback,
        latency_s=time.perf_counter() - started,
    )


def _turn_record(
    dialogue: Dialogue, turn: DialogueTurn, result: TurnResult, config: RunConfig
) -> tuple[ScoredRecord, dict]:
    record = PredictionRecord(
        turn_id=turn.turn_id,
        predicted=result.answer,
        predicted_scale="",
        gold=turn.gold,
    )
    em, f1 = record_scores(record, config.eval_config)
    log = {
        "turn_id": turn.turn_id,
        "dialogue_id": dialogue.dialogue_id,
        "mode": config.mode,
        "history": config.history,
        "final_response": result.final_text,
        "clarification_pred": record.clarification_pred,
        "clarification_gold": turn.gold.req_clari,
        "em": em,
        "f1": round(f1, 6),
        "fallback_used": result.fallback_used,
        "latency_ms": round(result.latency_s * 1000, 3),
        "vote": result.vote.to_record(config.eval_config) if result.vote else None,
        "samples": result.samples,
        "gold": {
            "answer_type": turn.gold.answer_type,
            "answer": turn.gold.answer,
            "scale": turn.gold.scale,
            "source": turn.gold.source,
            "derivation": turn.gold.derivation,
            "clarification_question": turn.gold.clarification_question,
        },
    }
    return (record, em, f1), log


def run_eval(
    corpus: Corpus,
    generator: Generator,
    config: RunConfig = RunConfig(),
    log_stream: TextIO | None = None,
) -> tuple[MetricReport, list[dict]]:
    """Run every turn, score, and aggregate.

    Up to config.concurrency dialogues run at once, each walking its turns in
    order. Returns the metric report plus per-turn log records in corpus
    order, also streamed as JSON lines to log_stream while running. If a turn
    raises (a transport failure, say), the error propagates after log_stream
    holds exactly the turns before the first failing turn in corpus order.
    """
    logger.info(
        "run start: mode=%s history=%s; inputs are transmitted untruncated, "
        "source-length budgeting is the generation service's concern",
        config.mode,
        config.history,
    )
    records: list[ScoredRecord] = []
    logs: list[dict] = []
    gold_history = config.history == "gold"
    stop = threading.Event()

    def run_dialogue(dialogue: Dialogue, done: list[tuple[ScoredRecord, dict]]) -> None:
        # Turns finished go to `done` as they complete, so a failing dialogue
        # still hands over the turns before its failure.
        doc = corpus.documents[dialogue.doc_uid]
        queries: list[str] = []
        responses: list[str] = []
        for turn in dialogue.turns:
            if stop.is_set():
                return
            queries.append(turn.question)
            history = ConversationHistory.from_turns(queries, responses)
            result = run_turn(doc, history, turn, generator, config)
            done.append(_turn_record(dialogue, turn, result, config))
            responses.append(
                turn.gold.response_text(config.eval_config) if gold_history else result.final_text
            )

    finished: list[list[tuple[ScoredRecord, dict]]] = [[] for _ in corpus.dialogues]
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        futures = [
            pool.submit(run_dialogue, dialogue, done)
            for dialogue, done in zip(corpus.dialogues, finished)
        ]
        try:
            for future, done in zip(futures, finished):
                error = future.exception()
                for scored, log in done:
                    records.append(scored)
                    logs.append(log)
                    if log_stream is not None:
                        log_stream.write(json.dumps(log, ensure_ascii=False) + "\n")
                        log_stream.flush()
                if error is not None:
                    raise error
        except BaseException:
            stop.set()
            raise
    report = aggregate_report(records, config.eval_config)
    return report, logs


def score_predictions(
    predictions_path: str | Path,
    corpus: Corpus,
    config: EvalConfig = DEFAULT_CONFIG,
) -> tuple[MetricReport, list[dict]]:
    """Score an offline predictions file against a corpus, no generator needed.

    Predictions are JSON lines carrying either a raw decoded string or a
    pre-split flag and payload, plus an optional scale:

        {"turn_id": "q1", "output": "[clari.] False [resp.] (88-105)/105"}
        {"turn_id": "q2", "clarification": true, "response": "[\"...\"]", "scale": ""}

    Every corpus turn is scored; turns without a usable prediction score 0.
    """
    predictions = _load_predictions(Path(predictions_path), corpus)
    records = []
    logs = []
    for dialogue in corpus.dialogues:
        for turn in dialogue.turns:
            raw, scale = predictions.get(turn.turn_id, (None, ""))
            answer = None
            if raw is not None:
                answer = canonicalize(raw)
            record = PredictionRecord(
                turn_id=turn.turn_id,
                predicted=answer,
                predicted_scale=scale,
                gold=turn.gold,
            )
            em, f1 = record_scores(record, config)
            records.append((record, em, f1))
            logs.append(
                {
                    "turn_id": turn.turn_id,
                    "dialogue_id": dialogue.dialogue_id,
                    "prediction": raw,
                    "final_response": answer.text(config) if answer else "",
                    "em": em,
                    "f1": round(f1, 6),
                }
            )
    if not records:
        raise EmptyRecordSet("corpus has no turns")
    return aggregate_report(records, config), logs


def _load_predictions(path: Path, corpus: Corpus) -> dict[str, tuple[str, str]]:
    turn_ids = {turn.turn_id for d in corpus.dialogues for turn in d.turns}
    predictions: dict[str, tuple[str, str]] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            turn_id = str(obj["turn_id"])
            if "output" in obj:
                raw = str(obj["output"])
            else:
                raw = format_target(
                    Task.MULTI, bool(obj["clarification"]), str(obj["response"])
                )
            scale = str(obj.get("scale", ""))
        except Exception as err:  # malformed line: warn, the turn scores 0
            logger.warning("%s:%d: malformed prediction line (%s); skipped", path, lineno, err)
            continue
        if turn_id not in turn_ids:
            raise UnknownTurnId(f"{path}:{lineno}: unknown turn id {turn_id!r}")
        predictions[turn_id] = (raw, scale)
    if not predictions:
        raise EmptyRecordSet(f"no usable prediction lines in {path}")
    return predictions


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
