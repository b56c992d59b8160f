"""One workload's timed run in its own process, driving pcqa's public API.

The program receives only the files in --workdir. Set-up (loading the
corpus and the replay file) is repeated and each repetition timed. The
timed section then runs whole rounds over the corpus, each round a fixed
sequence of calls (slices of the corpus for run_eval, the whole corpus for
score_predictions), ending with the round whose end is nearest to
--seconds; every call's wall and process CPU time is one sample. From the second round on, the set-up is
repeated between calls whenever set-ups have taken less than SETUP_SHARE
of the time so far, so its samples are spread over the whole run. Peak RSS
is read after the first round. The outputs of the first round are written
out for checking, and each round's outputs are hashed so that later rounds
can be compared with it.

With --trace the run is untraced rounds, then as many rounds with spans
around each layer (see tracing.py), at least TRACED_TURNS turns each; the
difference in wall time is the tracing overhead.

Run from the repository root, with src/ on PYTHONPATH:
    python3 bench/workload.py --workload cv-gold --workdir .bench_work/cv-gold --seconds 30
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from pathlib import Path

import pcqa
import tracing

SETUP_REPEATS = 3  # before the first round
SETUP_SHARE = 0.15  # of the timed section's wall time, spent on further set-ups
TRACED_TURNS = 1000  # enough waits and turns for a p99 with ten beyond it
SLICES = {"cv-gold": 8, "score-offline": 1, "predicted-http": 8}
REPORT_FIELDS = ("records", "overall_em", "overall_f1", "cnp_precision", "cnp_recall", "cnp_f1")
LOG_FIELDS = ("turn_id", "final_response", "em", "f1", "fallback_used", "vote")


class Workload:
    def __init__(self, name: str, workdir: Path, endpoint: str | None):
        self.name = name
        self.workdir = workdir
        self.endpoint = endpoint
        self.load_ms: list[float] = []
        self.replay_ms: list[float] = []
        self.setup_s: list[float] = []

    def set_up(self) -> None:
        self.corpus = self.generator = self.slices = None  # peak RSS counts one set-up, not two
        gc.collect()  # each set-up starts from a heap with no garbage left by the calls
        t0 = time.perf_counter()
        self.corpus = pcqa.load_corpus(self.workdir / "corpus.json")
        t1 = time.perf_counter()
        if self.name == "cv-gold":
            self.generator = pcqa.ReplayGenerator.from_jsonl(self.workdir / "replay.jsonl")
            self.config = pcqa.RunConfig(mode="cv", history="gold", concurrency=1)
        elif self.name == "predicted-http":
            self.generator = pcqa.HttpGenerator(endpoint=self.endpoint)
            self.config = pcqa.RunConfig(
                mode="greedy", history="predicted", concurrency=len(os.sched_getaffinity(0))
            )
        t2 = time.perf_counter()
        self.load_ms.append((t1 - t0) * 1e3)
        self.replay_ms.append((t2 - t1) * 1e3 if self.name == "cv-gold" else 0.0)
        self.setup_s.append(t2 - t0)
        dialogues = self.corpus.dialogues
        k = SLICES[self.name]
        self.slices = [
            pcqa.Corpus(documents=self.corpus.documents, dialogues=dialogues[i * len(dialogues) // k : (i + 1) * len(dialogues) // k])
            for i in range(k)
        ]

    def call(self, part) -> tuple:
        if self.name == "score-offline":
            return pcqa.score_predictions(self.workdir / "predictions.jsonl", part)
        return pcqa.run_eval(part, self.generator, self.config)


def _outputs(report, logs) -> dict:
    return {
        "report": {k: getattr(report, k) for k in REPORT_FIELDS},
        "logs": [{k: log.get(k) for k in LOG_FIELDS if k in log} for log in logs],
    }


def run_round(work: Workload, samples: list[dict], between=lambda: None) -> tuple[str, list[dict]]:
    """One round of calls; `between` runs after each call and may set up anew."""
    digest = hashlib.sha256()
    outputs = []
    for i in range(len(work.slices)):
        c0 = time.process_time()
        t0 = time.perf_counter()
        report, logs = work.call(work.slices[i])
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        samples.append({"turns": len(logs), "wall_s": wall, "cpu_s": cpu})
        out = _outputs(report, logs)
        digest.update(json.dumps(out, sort_keys=True).encode())
        outputs.append(out)
        between()
    return digest.hexdigest(), outputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLICES))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--endpoint")
    args = parser.parse_args()

    work = Workload(args.workload, args.workdir, args.endpoint)
    for _ in range(SETUP_REPEATS):
        work.set_up()

    samples: list[dict] = []
    digests = []
    first_round = None
    result: dict = {"turns_per_round": work.corpus.turn_count()}
    peak_rss_mb = None
    if args.trace:
        rounds = -(-TRACED_TURNS // work.corpus.turn_count())
        t0 = time.perf_counter()
        for _ in range(rounds):
            digest, outputs = run_round(work, samples)
            digests.append(digest)
            first_round = first_round or outputs
        untraced = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracing.install(tracer, pcqa)
        try:
            t0 = time.perf_counter()
            for _ in range(rounds):
                digests.append(run_round(work, [])[0])
            traced = time.perf_counter() - t0
        finally:
            tracer.restore()
        turns = rounds * work.corpus.turn_count()
        layers = tracing.per_layer(tracer, args.workload, turns)
        layers["corpus.load_ms"] = statistics.median(work.load_ms)
        layers["generation.replay_load_ms"] = statistics.median(work.replay_ms)
        layers["trace.overhead_ms_per_turn"] = (traced - untraced) / turns * 1e3
        result.update(per_layer=layers, untraced_s=untraced, traced_s=traced)
    else:
        started = time.perf_counter()

        spent = 0.0  # on set-ups in the timed section, their gc.collect() included

        def set_up_in_share():
            nonlocal spent
            while spent < SETUP_SHARE * (time.perf_counter() - started):
                t0 = time.perf_counter()
                work.set_up()
                spent += time.perf_counter() - t0

        while True:
            t0 = time.perf_counter()
            # No set-ups during the first round, and peak RSS read after it:
            # the peak grew with each further set-up and call, so read later
            # it would depend on the run's length.
            digest, outputs = run_round(work, samples, set_up_in_share if digests else lambda: None)
            digests.append(digest)
            if first_round is None:
                first_round = outputs
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if now - started + (now - t0) / 2 >= args.seconds:
                break
    result.update(
        setup_s=work.setup_s,
        samples=samples,
        digests=digests,
        first_round=first_round,
        peak_rss_mb=peak_rss_mb,
    )
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
