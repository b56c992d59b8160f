"""Command-line surface for batch pipelines.

Exit codes: 0 ok, 1 input error, 2 schema error, 3 transport error,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from .corpus import (
    STAT_LABELS,
    CorpusError,
    gold_history_inputs,
    load_corpus,
    read_expectations,
    read_json,
    validate_corpus,
)
from .derivation import DEFAULT_PRECISION, DerivationError, SpanSetAnswer, execute_source
from .generation import GREEDY, GenerationError, HttpGenerator, ReplayGenerator, TransportError
from .metrics import EmptyRecordSet, MetricReport
from .runner import CV, RunConfig, UnknownTurnId, run_eval, score_predictions, write_jsonl

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCHEMA = 2
EXIT_TRANSPORT = 3
EXIT_INTERRUPTED = 130


def _add_report_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", choices=("text", "json", "both"), default="text")


def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(CV, GREEDY), default=RunConfig.mode)
    parser.add_argument("--num-samples", type=int, default=RunConfig.num_samples)
    parser.add_argument("--top-k", type=int, default=RunConfig.top_k)
    parser.add_argument("--temperature", type=float, default=RunConfig.temperature)
    parser.add_argument("--max-target-length", type=int, default=RunConfig.max_target_length)
    parser.add_argument("--history", choices=("gold", "predicted"), default=RunConfig.history)
    parser.add_argument(
        "--concurrency",
        type=int,
        default=RunConfig.concurrency,
        help="turns in flight at once (at least 1), at most one per dialogue",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqa",
        description="Derivation-language QA harness: validate corpora, execute "
        "derivations, linearize inputs, score predictions, and drive a generator.",
    )
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="decimal places for rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file, optionally against expected stats")
    p.add_argument("corpus")
    p.add_argument("--expected", help="JSON file with expected statistics")
    _add_report_flag(p)

    p = sub.add_parser("eval-derivation", help="execute one derivation expression")
    p.add_argument("expression")

    p = sub.add_parser("linearize", help="print the model input for one turn")
    p.add_argument("corpus")
    p.add_argument("--dialogue", required=True)
    p.add_argument("--turn", type=int, required=True, help="1-based turn index")

    p = sub.add_parser("score", help="score an offline predictions JSONL against a corpus")
    p.add_argument("predictions")
    p.add_argument("corpus")
    p.add_argument("--log", help="write per-turn JSONL records here")
    _add_report_flag(p)

    p = sub.add_parser("run", help="drive a generation service (or replay fixture) over a corpus")
    p.add_argument("corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--endpoint", help="base URL of the generation service")
    group.add_argument("--fixture", help="replay fixture JSONL")
    p.add_argument("--log", help="write per-turn JSONL records here")
    _add_decode_flags(p)
    _add_report_flag(p)
    return parser


def _emit_report(report: MetricReport, style: str) -> None:
    if style in ("text", "both"):
        print(report.format_text())
    if style in ("json", "both"):
        print(json.dumps(report.to_dict(), indent=2))


def cmd_validate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    expected = None
    if args.expected:
        expected = read_expectations(read_json(args.expected, "expected statistics"))
    report = validate_corpus(corpus, expected, args.precision)
    if args.report in ("text", "both"):
        for name, value in report.stats.summary().items():
            print(f"{STAT_LABELS[name]}: {value}")
        print(f"arithmetic turns validated: {report.validated_arithmetic_turns}/{report.arithmetic_turns}")
        for finding in report.findings:
            print(f"FINDING {finding.kind} at {finding.where}: {finding.detail}")
        print("OK" if report.passed else f"{len(report.findings)} findings")
    if args.report in ("json", "both"):
        print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_eval_derivation(args: argparse.Namespace) -> int:
    answer = execute_source(args.expression)
    spans = answer.text_spans(args.precision)
    print(json.dumps(spans) if isinstance(answer, SpanSetAnswer) else spans[0])
    return EXIT_OK


def cmd_linearize(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    matches = [d for d in corpus.dialogues if d.dialogue_id == args.dialogue]
    if not matches:
        print(f"unknown dialogue id {args.dialogue!r}", file=sys.stderr)
        return EXIT_INPUT
    dialogue = matches[0]
    if not 1 <= args.turn <= len(dialogue.turns):
        print(f"dialogue has {len(dialogue.turns)} turns, no turn {args.turn}", file=sys.stderr)
        return EXIT_INPUT
    inputs = gold_history_inputs(corpus, dialogue, args.precision)
    print(next(islice(inputs, args.turn - 1, None))[1])
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    report, logs = score_predictions(args.predictions, corpus, args.precision)
    if args.log:
        write_jsonl(logs, args.log)
    _emit_report(report, args.report)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    generator = (
        ReplayGenerator.from_jsonl(args.fixture)
        if args.fixture
        else HttpGenerator(endpoint=args.endpoint)
    )
    run_config = RunConfig(
        mode=args.mode,
        history=args.history,
        precision=args.precision,
        num_samples=args.num_samples,
        top_k=args.top_k,
        temperature=args.temperature,
        max_target_length=args.max_target_length,
        concurrency=args.concurrency,
    )
    log_handle = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        report, _ = run_eval(corpus, generator, run_config, log_stream=log_handle)
    finally:
        if log_handle is not None:
            log_handle.close()
        if isinstance(generator, HttpGenerator):
            generator.close()
    _emit_report(report, args.report)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 <= args.precision <= 10:
        print("error: render_precision must be in [0, 10]", file=sys.stderr)
        return EXIT_INPUT
    handlers = {
        "validate": cmd_validate,
        "eval-derivation": cmd_eval_derivation,
        "linearize": cmd_linearize,
        "score": cmd_score,
        "run": cmd_run,
    }
    try:
        return handlers[args.command](args)
    except TransportError as err:
        print(f"transport error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (CorpusError, OSError) as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DerivationError, GenerationError, EmptyRecordSet, UnknownTurnId, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
