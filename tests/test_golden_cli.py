"""Byte-for-byte contract for CLI output, reports and per-turn logs.

Each case runs one `pcqa` command in-process and compares its stdout, exit
code and (where the command writes one) its per-turn log with the files under
``tests/fixtures/golden/``. The only field dropped before comparing is the
wall-time ``latency_ms`` of `run` logs. The fixtures cover every answer kind:
numbers, counts, span sets, clarifying questions and discarded decodes, plus
a turn whose 40 samples are all discarded and fall back to the greedy decode.

To rewrite the expected files from the current code (only ever on purpose,
after checking the new output by hand):

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from pcqa.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
_LATENCY = re.compile(r'"latency_ms": [-0-9.e+]+, ')

SMALL = str(FIXTURES / "corpus_small.json")
T7 = str(FIXTURES / "table7_corpus.json")

CASES = {
    "validate_small": ["validate", SMALL, "--expected", str(FIXTURES / "corpus_small_expected.json"), "--report", "both"],
    "validate_small_mismatch": ["validate", SMALL, "--expected", str(FIXTURES / "corpus_small_mismatch_expected.json"), "--report", "both"],
    "score_small": ["score", str(FIXTURES / "corpus_small_predictions.jsonl"), SMALL, "--report", "both", "--log"],
    "score_small_p2": ["--precision", "2", "score", str(FIXTURES / "corpus_small_predictions.jsonl"), SMALL, "--report", "both", "--log"],
    "run_t7_cv": ["run", T7, "--fixture", str(FIXTURES / "table7_replay.jsonl"), "--mode", "cv", "--report", "both", "--log"],
    "run_t7_greedy": ["run", T7, "--fixture", str(FIXTURES / "table7_replay.jsonl"), "--mode", "greedy", "--report", "both", "--log"],
    "run_small_cv": ["run", SMALL, "--fixture", str(FIXTURES / "corpus_small_replay.jsonl"), "--mode", "cv", "--report", "both", "--log"],
    "run_small_greedy": ["run", SMALL, "--fixture", str(FIXTURES / "corpus_small_replay.jsonl"), "--mode", "greedy", "--report", "both", "--log"],
    "run_small_cv_predicted": ["run", SMALL, "--fixture", str(FIXTURES / "corpus_small_replay.jsonl"), "--mode", "cv", "--history", "predicted", "--report", "both", "--log"],
}


def run_case(name: str, log_path: Path) -> tuple[str, str | None]:
    """Exit code and stdout as one text, plus the log without latencies."""
    argv = list(CASES[name])
    if argv[-1] == "--log":
        argv.append(str(log_path))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    log = None
    if argv[-2] == "--log":
        log = _LATENCY.sub("", log_path.read_text(encoding="utf-8"))
    return f"exit {code}\n{stdout.getvalue()}", log


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path):
    stdout, log = run_case(name, tmp_path / "log.jsonl")
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    if log is not None:
        assert log == (GOLDEN / f"{name}.log.jsonl").read_text(encoding="utf-8")


def test_latency_is_the_only_field_dropped(tmp_path):
    _, log = run_case("run_small_cv", tmp_path / "log.jsonl")
    raw = (tmp_path / "log.jsonl").read_text(encoding="utf-8")
    assert raw.count('"latency_ms": ') == 16
    assert len(raw) - len(log) == sum(len(m) for m in _LATENCY.findall(raw))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    scratch = GOLDEN / "log.tmp"
    for case in sorted(CASES):
        out, written = run_case(case, scratch)
        (GOLDEN / f"{case}.stdout").write_text(out, encoding="utf-8")
        if written is not None:
            (GOLDEN / f"{case}.log.jsonl").write_text(written, encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
    scratch.unlink(missing_ok=True)
