"""Spans around the program's public functions, installed from outside src/.

Each wrapper replaces a name where its caller looks it up (for example
``pcqa.runner.consensus_vote``, which run_turn calls), so nothing in the
package changes. A span records wall time (perf_counter) and the CPU time of
its own thread (thread_time); a span's self CPU is its CPU minus that of its
child spans in the same thread. Only per-name totals are kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Callable

from gen import STUB_DELAY_MS


@dataclass
class Stat:
    walls: list[float] = field(default_factory=list)
    self_cpu: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def calls(self) -> int:
        return len(self.walls)

    def mean_wall(self) -> float:
        return sum(self.walls) / len(self.walls) if self.walls else 0.0

    def bump(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Frame:
    __slots__ = ("parent", "child_cpu", "sources")

    def __init__(self, parent):
        self.parent = parent
        self.child_cpu = 0.0
        self.sources: list[str] = []


# hook(stat, frame, args, result, error) runs under the tracer lock when a span ends.
Hook = Callable[[Stat, Frame, tuple, object, BaseException | None], None]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> None:
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, Stat())
        local, lock = self._local, self._lock

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = Frame(parent)
            stack.append(frame)
            result = error = None
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                wall = perf_counter() - t0
                cpu = thread_time() - c0
                stack.pop()
                if parent is not None:
                    parent.child_cpu += cpu
                with lock:
                    stat.walls.append(wall)
                    stat.self_cpu += cpu - frame.child_cpu
                    if hook is not None:
                        hook(stat, frame, args, result, error)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


# ---------------------------------------------------------------- hooks

def note_input_size(stat, frame, args, result, error):
    if error is None:
        stat.bump("input_bytes", len(result.encode("utf-8")))


def note_source(stat, frame, args, result, error):
    # execute_source(source, config): the enclosing voting span counts payloads.
    if frame.parent is not None:
        frame.parent.sources.append(args[0])


def note_vote(stat, frame, args, result, error):
    stat.bump("executions", len(frame.sources))
    stat.bump("distinct_payloads", len(set(frame.sources)))
    if error is not None and type(error).__name__ == "AllSamplesDiscarded":
        stat.bump("fallbacks")
        stat.bump("discarded", len(args[0]))
    elif error is None:
        stat.bump("discarded", result.discarded)


def note_single(stat, frame, args, result, error):
    # greedy_select / canonicalize: None means the decode was discarded.
    if error is None and result is None:
        stat.bump("discarded")


def install(tracer: Tracer, pcqa) -> None:
    """Wrap every layer boundary the workloads cross."""
    from pcqa import derivation, generation, metrics, runner, voting

    tracer.wrap(pcqa, "run_eval", "runner.run_eval")
    tracer.wrap(pcqa, "score_predictions", "runner.score_predictions")
    tracer.wrap(runner, "run_turn", "runner.run_turn")
    tracer.wrap(runner, "build_model_input", "linearize.build_input", note_input_size)
    tracer.wrap(runner, "consensus_vote", "voting.vote", note_vote)
    tracer.wrap(runner, "greedy_select", "voting.greedy_select", note_single)
    tracer.wrap(runner, "canonicalize", "voting.canonicalize", note_single)
    for module in (runner, metrics):
        tracer.wrap(module, "record_scores", "metrics.record_scores")
    tracer.wrap(runner, "aggregate_report", "metrics.aggregate")
    tracer.wrap(voting, "parse_output", "linearize.parse_output")
    tracer.wrap(voting, "execute_source", "derivation.execute", note_source)
    tracer.wrap(derivation, "tokenize", "derivation.tokenize")
    tracer.wrap(derivation, "parse", "derivation.parse")
    tracer.wrap(derivation, "evaluate", "derivation.evaluate")
    for cls in (generation.ReplayGenerator, generation.HttpGenerator):
        tracer.wrap(cls, "generate", "generation.generate")


# Spans each workload must hit; a rename in the package that leaves one of
# them with no calls stops the traced run instead of zeroing a layer.
EXPECTED_SPANS = {
    "cv-gold": [
        "runner.run_eval", "runner.run_turn", "linearize.build_input", "generation.generate",
        "voting.vote", "voting.greedy_select", "linearize.parse_output", "derivation.execute",
        "derivation.tokenize", "derivation.parse", "derivation.evaluate",
        "metrics.record_scores", "metrics.aggregate",
    ],
    "score-offline": [
        "runner.score_predictions", "voting.canonicalize", "linearize.parse_output",
        "derivation.execute", "derivation.tokenize", "derivation.parse", "derivation.evaluate",
        "metrics.record_scores", "metrics.aggregate",
    ],
    "predicted-http": [
        "runner.run_eval", "runner.run_turn", "linearize.build_input", "generation.generate",
        "voting.greedy_select", "linearize.parse_output", "derivation.execute",
        "derivation.tokenize", "derivation.parse", "derivation.evaluate",
        "metrics.record_scores", "metrics.aggregate",
    ],
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def per_layer(tracer: Tracer, workload: str, turns: int) -> dict[str, float]:
    """The per-layer metrics of traced rounds of `turns` turns in all (set-up
    aside). generation.max_in_flight is what the stub sees; run.py fills it
    in on predicted-http."""
    missing = [n for n in EXPECTED_SPANS[workload] if tracer.stat(n).calls == 0]
    if missing:
        raise RuntimeError(f"traced {workload} round recorded no calls for: {', '.join(missing)}")
    s = tracer.stat
    vote = s("voting.vote")
    generate = s("generation.generate")
    build = s("linearize.build_input")
    discarded = sum(s(n).extra.get("discarded", 0) for n in ("voting.vote", "voting.greedy_select", "voting.canonicalize"))
    runner_self = sum(s(n).self_cpu for n in ("runner.run_eval", "runner.score_predictions", "runner.run_turn"))
    distinct = vote.extra.get("distinct_payloads", 0)
    delay_ms = STUB_DELAY_MS if workload == "predicted-http" else 0.0
    return {
        "linearize.build_input_us": build.mean_wall() * 1e6,
        "linearize.input_kb": build.extra.get("input_bytes", 0) / max(1, build.calls) / 1024,
        "linearize.parse_output_us": s("linearize.parse_output").mean_wall() * 1e6,
        "generation.requests_per_turn": generate.calls / turns,
        "generation.wait_ms_p50": percentile(generate.walls, 50) * 1e3,
        "generation.wait_ms_p99": percentile(generate.walls, 99) * 1e3,
        "generation.client_overhead_ms": generate.mean_wall() * 1e3 - delay_ms if generate.calls else 0.0,
        "generation.max_in_flight": 0,
        "derivation.execute_per_turn": s("derivation.execute").calls / turns,
        "derivation.tokenize_us": s("derivation.tokenize").mean_wall() * 1e6,
        "derivation.parse_us": s("derivation.parse").mean_wall() * 1e6,
        "derivation.evaluate_us": s("derivation.evaluate").mean_wall() * 1e6,
        "voting.vote_ms": vote.mean_wall() * 1e3,
        "voting.executions_per_distinct_payload": vote.extra.get("executions", 0) / distinct if distinct else 0.0,
        "voting.discarded_per_turn": discarded / turns,
        "voting.fallback_turns": vote.extra.get("fallbacks", 0),
        "metrics.record_scores_per_turn": s("metrics.record_scores").calls / turns,
        "metrics.record_scores_us": s("metrics.record_scores").mean_wall() * 1e6,
        "metrics.aggregate_ms": s("metrics.aggregate").mean_wall() * 1e3,
        "runner.turn_ms_p50": percentile(s("runner.run_turn").walls, 50) * 1e3,
        "runner.turn_ms_p99": percentile(s("runner.run_turn").walls, 99) * 1e3,
        "runner.self_ms_per_turn": runner_self / turns * 1e3,
    }
