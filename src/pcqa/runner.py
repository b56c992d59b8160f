"""End-to-end evaluation loop against a generation service.

For each turn: append the question to the dialogue's model input (the
document, linearized once per dialogue, and the conversation so far), request a
greedy decode or a batch of sampled decodes, reduce them to one canonical
answer (consensus voting or the greedy baseline), then score against gold
once; the report aggregates those per-turn scores.
Gold-history mode conditions every turn on gold prior responses;
predicted-history mode feeds each turn's own final response into the next
turn's history. In both, up to `concurrency` turns are in flight at once, at
most one per dialogue; `_Schedule` picks which. Reports and logs are a
deterministic function of (corpus, decodes, config) regardless of request
scheduling.
"""

from __future__ import annotations

import heapq
import json
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .corpus import Corpus, Dialogue, DialogueTurn, jsonl_lines, read_id
from .derivation import DEFAULT_PRECISION
from .generation import (
    GREEDY,
    SAMPLE,
    GenerationRequest,
    Generator,
)
from .linearize import (
    Task,
    add_response,
    build_model_input,
    format_target,
    linearize_document,
)
from .metrics import (
    EmptyRecordSet,
    MetricReport,
    ScoredTurn,
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
    precision: int = DEFAULT_PRECISION  # decimal places for rendering numbers
    num_samples: int = GenerationRequest.num_samples
    top_k: int = GenerationRequest.top_k
    temperature: float = GenerationRequest.temperature
    max_target_length: int = GenerationRequest.max_target_length
    concurrency: int = 8

    def __post_init__(self):
        if self.mode not in (CV, GREEDY):
            raise ValueError(f"mode must be cv or greedy, got {self.mode!r}")
        if self.history not in ("gold", "predicted"):
            raise ValueError(f"history must be gold or predicted, got {self.history!r}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {self.concurrency}")
        if not 0 <= self.precision <= 10:
            raise ValueError("render_precision must be in [0, 10]")


@dataclass
class TurnResult:
    samples: list[str]
    vote: VoteResult | None
    answer: CanonicalAnswer | None
    fallback_used: bool
    latency_s: float


def run_turn(model_input: str, turn: DialogueTurn, generator: Generator, config: RunConfig) -> TurnResult:
    """Generate and vote (or greedy-select) one turn's answer.

    A turn sends one request: a greedy one, or in cv mode a sample one. When
    every sampled output is discarded, a second, greedy request is the
    fallback; `samples` then holds the sampled texts, and the greedy decode
    shows only in `answer`. If that decode is also unusable the turn yields
    the empty answer and scores zero. Malformed model output never aborts a run.
    """
    started = time.perf_counter()
    vote: VoteResult | None = None
    samples: list[str] | None = None  # the sampled texts, on a cv turn
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
        )
        samples = [o.text for o in outputs]
        try:
            vote = consensus_vote(outputs)
        except AllSamplesDiscarded:
            pass
    if vote is None:  # greedy mode, or the cv fallback
        outputs = generator.generate(
            GenerationRequest(model_input, GREEDY, max_target_length=config.max_target_length, turn_id=turn.turn_id)
        )
    return TurnResult(
        samples=[o.text for o in outputs] if samples is None else samples,
        vote=vote,
        answer=greedy_select(outputs) if vote is None else vote.winner,
        fallback_used=vote is None and samples is not None,
        latency_s=time.perf_counter() - started,
    )


def _turn_record(
    dialogue: Dialogue, turn: DialogueTurn, result: TurnResult, config: RunConfig
) -> tuple[ScoredTurn, dict]:
    scored = record_scores(result.answer, turn.gold, config.precision)
    log = {
        "turn_id": turn.turn_id,
        "dialogue_id": dialogue.dialogue_id,
        "mode": config.mode,
        "history": config.history,
        "final_response": scored.text,
        "clarification_pred": scored.clarification_pred,
        "clarification_gold": turn.gold.req_clari,
        "em": scored.em,
        "f1": round(scored.f1, 6),
        "fallback_used": result.fallback_used,
        "latency_ms": round(result.latency_s * 1000, 3),
        "vote": result.vote.to_record(config.precision) if result.vote else None,
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
    return scored, log


class _Schedule:
    """Which dialogue each of `workers` workers runs a turn of next.

    A dialogue is a chain: its turns run in order, one at a time. Handing out
    whole dialogues in corpus order leaves workers idle while a long dialogue
    that started late runs alone. Instead, a worker that is free, or has just
    finished a turn, puts its own dialogue (if it has turns left) among the
    waiting ones and takes:

    1. the waiting or unstarted dialogue with the most turns left (ties:
       waiting, then corpus order), an unstarted one only if its turns ×
       workers reach the turns not yet handed to a worker;
    2. else the next unstarted dialogue in corpus order.

    This is level scheduling (Hu 1961) that starts a dialogue no earlier than
    it must. In unit-time turns the run ends at max(longest dialogue,
    ceil(turns / workers)), the optimum for chains, whichever worker reaches
    the lock first, and never later than whole dialogues handed out in corpus
    order; at one worker it keeps corpus order. After a turn of dialogue j
    fails (`finish`), no dialogue from j on starts another turn. Callers hold
    `lock`; each call costs amortized O(log n) in the dialogues.
    """

    def __init__(self, lengths: list[int], workers: int):
        self.lock = threading.Lock()
        self.workers = workers
        self.left = list(lengths)  # turns not yet run, per dialogue
        self.pending = sum(lengths)  # turns not yet handed to a worker
        self.started = [n == 0 for n in lengths]
        # (-turns, index) of unstarted dialogues; started ones are dropped on sight
        self.unstarted = [(-n, i) for i, n in enumerate(lengths) if n]
        heapq.heapify(self.unstarted)
        self.waiting: list[tuple[int, int]] = []  # (-turns left, index), held by no worker
        self.cursor = 0  # every dialogue before it has started
        self.limit = len(lengths)  # dialogues from here on run no further turn
        self.error: Exception | None = None  # the failure of dialogue `limit`

    def finish(self, i: int, error: Exception | None) -> None:
        if error is None:
            self.left[i] -= 1
        elif i < self.limit:
            self.limit, self.error = i, error

    def stop(self) -> None:
        with self.lock:
            self.limit = 0

    def take(self, own: int | None) -> int | None:
        """The dialogue to run a turn of next, for a worker that holds `own`
        (None: it holds none); None when nothing is left for it to run."""
        limit = self.limit
        unstarted, waiting = self.unstarted, self.waiting
        if own is not None and self.left[own]:  # dropped below if past `limit`
            heapq.heappush(waiting, (-self.left[own], own))
        while unstarted and (self.started[unstarted[0][1]] or unstarted[0][1] >= limit):
            heapq.heappop(unstarted)
        while waiting and waiting[0][1] >= limit:
            heapq.heappop(waiting)
        longest = -unstarted[0][0] if unstarted else 0
        if longest > (-waiting[0][0] if waiting else 0) and longest * self.workers >= self.pending:
            chosen = heapq.heappop(unstarted)[1]
            self.started[chosen] = True
        elif waiting:
            chosen = heapq.heappop(waiting)[1]
        else:
            while self.cursor < limit and self.started[self.cursor]:
                self.cursor += 1
            if self.cursor >= limit:
                return None
            chosen = self.cursor
            self.started[chosen] = True
        self.pending -= 1
        return chosen


def run_eval(
    corpus: Corpus,
    generator: Generator,
    config: RunConfig = RunConfig(),
    log_stream: TextIO | None = None,
) -> tuple[MetricReport, list[dict]]:
    """Run every turn, score, and aggregate.

    Up to config.concurrency turns are in flight at once, at most one per
    dialogue (`_Schedule` picks which); the calling thread is one of the
    workers. Returns the metric report plus per-turn log records in corpus
    order, also streamed as JSON lines to log_stream as each prefix of
    dialogues finishes. If a turn raises (a transport failure, say), no later
    dialogue starts another turn, the earlier ones finish, and the earliest
    failing dialogue's error propagates after log_stream holds exactly the
    turns before the first failing turn in corpus order. A corpus with no
    dialogues, or none with a turn, raises EmptyRecordSet.
    """
    logger.info(
        "run start: mode=%s history=%s; inputs are transmitted untruncated, "
        "source-length budgeting is the generation service's concern",
        config.mode,
        config.history,
    )
    dialogues = corpus.dialogues
    workers = max(1, min(config.concurrency, len(dialogues)))
    schedule = _Schedule([len(d.turns) for d in dialogues], workers)
    contexts: list[str | None] = [None] * len(dialogues)
    done: list[list[tuple[ScoredTurn, dict]]] = [[] for _ in dialogues]
    records: list[ScoredTurn] = []
    logs: list[dict] = []
    emitted = 0  # dialogues whose turns are in `logs`
    gold_history = config.history == "gold"

    def run_next_turn(i: int) -> None:
        dialogue = dialogues[i]
        context = contexts[i]
        if context is None:
            context = linearize_document(corpus.documents[dialogue.doc_uid])
        turn = dialogue.turns[len(done[i])]
        model_input = build_model_input(context, turn.question)
        result = run_turn(model_input, turn, generator, config)
        scored, log = _turn_record(dialogue, turn, result, config)
        done[i].append((scored, log))
        response = turn.gold.response_text(config.precision) if gold_history else scored.text
        contexts[i] = add_response(model_input, response)

    def emit(i: int) -> None:
        for scored, log in done[i]:
            records.append(scored)
            logs.append(log)
            if log_stream is not None:
                log_stream.write(json.dumps(log, ensure_ascii=False) + "\n")
                log_stream.flush()

    def work() -> None:
        nonlocal emitted
        i: int | None = None
        error: Exception | None = None
        while True:
            with schedule.lock:
                if i is not None:
                    schedule.finish(i, error)
                    while emitted < schedule.limit and not schedule.left[emitted]:
                        emit(emitted)
                        emitted += 1
                i = schedule.take(i)
                if i is None:
                    return
            try:
                run_next_turn(i)
                error = None
            except Exception as err:
                error = err

    fatal: list[BaseException] = []

    def helper() -> None:
        try:
            work()
        except BaseException as err:  # not a turn's failure: the run ends
            fatal.append(err)
            schedule.stop()

    helpers = [threading.Thread(target=helper, name=f"pcqa-run-{k}") for k in range(1, workers)]
    for thread in helpers:
        thread.start()
    try:
        work()
        for thread in helpers:
            thread.join()
    except BaseException:  # Ctrl-C, say: each helper stops at its next turn boundary
        schedule.stop()
        for thread in helpers:
            thread.join()
        raise
    if fatal:
        raise fatal[0]
    if schedule.error is not None:
        emit(schedule.limit)
        raise schedule.error
    report = aggregate_report(records, config.precision)
    return report, logs


def score_predictions(
    predictions_path: str | Path,
    corpus: Corpus,
    precision: int = DEFAULT_PRECISION,
) -> tuple[MetricReport, list[dict]]:
    """Score an offline predictions file against a corpus, no generator needed.

    Predictions are JSON lines carrying either a raw decoded string or a
    pre-split flag and payload, plus an optional scale:

        {"turn_id": "q1", "output": "[clari.] False [resp.] (88-105)/105"}
        {"turn_id": "q2", "clarification": true, "response": "[\"...\"]", "scale": ""}

    Every corpus turn is scored; turns without a usable prediction score 0.
    A turn id on several usable lines is warned about; the last line counts.
    """
    predictions = _load_predictions(Path(predictions_path), corpus)
    records = []
    logs = []
    for dialogue in corpus.dialogues:
        for turn in dialogue.turns:
            raw, scale = predictions.get(turn.turn_id, (None, ""))
            answer = None if raw is None else canonicalize(raw)
            scored = record_scores(answer, turn.gold, precision, scale)
            records.append(scored)
            logs.append(
                {
                    "turn_id": turn.turn_id,
                    "dialogue_id": dialogue.dialogue_id,
                    "prediction": raw,
                    "final_response": scored.text,
                    "em": scored.em,
                    "f1": round(scored.f1, 6),
                }
            )
    return aggregate_report(records, precision), logs


def _load_predictions(path: Path, corpus: Corpus) -> dict[str, tuple[str, str]]:
    turn_ids = {turn.turn_id for d in corpus.dialogues for turn in d.turns}
    predictions: dict[str, tuple[str, str]] = {}
    lines: dict[str, int] = {}  # turn id -> the line its kept prediction is on
    for lineno, line in jsonl_lines(path):
        try:
            obj = json.loads(line)
            turn_id = read_id(obj["turn_id"], "turn_id", "turn id")
            if "output" in obj:
                raw = _string_field(obj, "output")
            else:
                flag = obj["clarification"]
                if not isinstance(flag, bool):
                    raise TypeError(f"clarification must be true or false, got {flag!r}")
                raw = format_target(Task.MULTI, flag, _string_field(obj, "response"))
            scale = _string_field(obj, "scale") if "scale" in obj else ""
        except Exception as err:  # malformed line: warn, the turn scores 0
            logger.warning("%s:%d: malformed prediction line (%s); skipped", path, lineno, err)
            continue
        if turn_id not in turn_ids:
            raise UnknownTurnId(f"{path}:{lineno}: unknown turn id {turn_id!r}")
        if turn_id in lines:
            logger.warning(
                "%s:%d: turn id %r repeats line %d; the later line is kept", path, lineno, turn_id, lines[turn_id]
            )
        lines[turn_id] = lineno
        predictions[turn_id] = (raw, scale)
    if not predictions:
        raise EmptyRecordSet(f"no usable prediction lines in {path}")
    return predictions


def _string_field(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
