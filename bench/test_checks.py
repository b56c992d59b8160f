"""Each benchmark check passes the right answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

Needs no program: the "program output" here is built from the generator's
own expectations, then broken one field at a time.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import stub  # noqa: E402


def log_for(e: gen.Expect, workload: str) -> dict:
    """The log a correct program writes for this turn."""
    log = {
        "turn_id": e.turn_id,
        "final_response": e.text,
        "em": e.em,
        "f1": round(checks.ref_f1(e.pred_spans, e.gold_spans), 6),
    }
    if workload == "score-offline":
        return log
    log["fallback_used"] = e.fallback
    log["vote"] = None
    if workload == "cv-gold" and not e.fallback:
        rest = gen.NUM_SAMPLES - e.winner_votes - e.discarded
        others = [rest] if rest < e.winner_votes else [rest - rest // 2, rest // 2]
        tallies = [{"votes": v} for v in [e.winner_votes] + others if v]
        log["vote"] = {"tallies": tallies, "discarded": e.discarded}
    return log


def call_for(expects: list[gen.Expect], workload: str) -> dict:
    logs = [log_for(e, workload) for e in expects]
    f1s = [checks.ref_f1(e.pred_spans, e.gold_spans) for e in expects]
    p, r, f = checks._prf([(e.pred_clarify, e.gold_clarify) for e in expects])
    report = {
        "records": len(expects),
        "overall_em": sum(e.em for e in expects) / len(expects),
        "overall_f1": sum(f1s) / len(f1s),
        "cnp_precision": p,
        "cnp_recall": r,
        "cnp_f1": f,
    }
    return {"logs": logs, "report": report}


@pytest.fixture(scope="module", params=["cv-gold", "score-offline", "predicted-http"])
def workload(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    expects = gen.WORKLOADS[request.param](3, workdir, turns=120)
    return request.param, expects


def test_reference_f1_pairs_optimally():
    assert checks.ref_f1(("a b c d", "a b"), ("a b c", "c d")) == pytest.approx(0.7333333, abs=1e-6)
    assert checks.ref_f1(("3,711",), ("3711.00",)) == 1.0
    assert checks.ref_f1(("0.2797",), ("0.2798",)) == 0.0
    assert checks.ref_f1(("x",), ()) == 0.0


def test_render_rounds_half_away_from_zero():
    assert gen.render((1, 8), 2) == "0.13"
    assert gen.render((-1, 8), 2) == "-0.13"
    assert gen.render((2, 3)) == "0.6667"
    assert gen.render((-1, 100_000)) == "0"
    assert gen.render((5, 1)) == "5"


def test_correct_output_passes(workload):
    name, expects = workload
    failed, errors = checks.check_round(name, expects, [call_for(list(expects.values()), name)])
    assert errors == []
    assert failed == []


@pytest.mark.parametrize(
    "field, wrong",
    [("final_response", "0.5"), ("em", None), ("f1", None), ("fallback_used", None), ("votes", None), ("discarded", 41)],
)
def test_each_turn_check_rejects_a_wrong_answer(workload, field, wrong):
    name, expects = workload
    if field in ("fallback_used", "votes", "discarded") and name != "cv-gold":
        pytest.skip("vote fields exist on cv-gold only")
    expect = next(e for e in expects.values() if not e.fallback)
    log = log_for(expect, name)
    if field == "em":
        log["em"] = 1 - expect.em
    elif field == "f1":
        log["f1"] = round(1 - log["f1"] if log["f1"] != 0.5 else 0.6, 6)
    elif field == "fallback_used":
        log["fallback_used"] = True
    elif field == "votes":
        log["vote"]["tallies"][0]["votes"] -= 1
        log["vote"]["discarded"] += 1
    elif field == "discarded":
        log["vote"]["discarded"] = wrong
    else:
        log[field] = wrong
    assert checks.check_turn(expect, log, name)


def test_fallback_turn_without_fallback_is_rejected(tmp_path):
    expects = gen.make_cv_gold(5, tmp_path, turns=200)
    expect = next(e for e in expects.values() if e.fallback)
    log = log_for(expect, "cv-gold")
    assert checks.check_turn(expect, log, "cv-gold") == []
    log["vote"] = {"tallies": [{"votes": 40}], "discarded": 0}
    assert checks.check_turn(expect, log, "cv-gold")


@pytest.mark.parametrize("field", ["records", "overall_em", "overall_f1", "cnp_f1"])
def test_report_check_rejects_a_wrong_report(workload, field):
    name, expects = workload
    call = call_for(list(expects.values()), name)
    call["report"][field] += 1
    _, errors = checks.check_round(name, expects, [call])
    assert errors


def test_round_check_rejects_missing_or_unexpected_failures(workload):
    name, expects = workload
    call = call_for(list(expects.values()), name)
    short = copy.deepcopy(call)
    short["logs"].pop()
    assert checks.check_round(name, expects, [short])[1]
    victim = call["logs"][0]
    victim["em"] = 1 - victim["em"]
    failed, errors = checks.check_round(name, expects, [call])
    assert victim["turn_id"] in failed and errors


def _greedy_short(e: gen.Expect) -> bool:
    return checks.ref_f1(e.pred_spans, e.gold_spans) - checks.greedy_f1(e.pred_spans, e.gold_spans) > 1e-6


def test_greedy_pairing_model_matches_the_known_shortfall():
    # numeracy_f1 pairs greedily: 0.40 here, where the optimal pairing gives 0.7333.
    pred, gold = ("a b c d", "a b"), ("a b c", "c d")
    assert checks.greedy_f1(pred, gold) == pytest.approx(0.4, abs=1e-6)
    assert checks.greedy_f1(("x", "y"), ("y", "x")) == checks.ref_f1(("x", "y"), ("y", "x")) == 1.0


def test_greedy_shortfall_counts_as_failed_and_nothing_else_does(tmp_path):
    expects = gen.make_score_offline(2, tmp_path, turns=300)
    short = [e for e in expects.values() if _greedy_short(e)]
    assert short and all(e.turn_id.startswith("cross-") for e in short)
    call = call_for(list(expects.values()), "score-offline")
    logs = {log["turn_id"]: log for log in call["logs"]}
    for e in short:
        logs[e.turn_id]["f1"] = round(checks.greedy_f1(e.pred_spans, e.gold_spans), 6)
    call["report"]["overall_f1"] = sum(log["f1"] for log in call["logs"]) / len(call["logs"])
    failed, errors = checks.check_round("score-offline", expects, [call])
    assert errors == [] and sorted(failed) == sorted(e.turn_id for e in short)
    # The same turn with any other wrong F1, or also a wrong EM, is an error.
    victim = logs[short[0].turn_id]
    victim["f1"] = round(victim["f1"] + 0.01, 6)
    assert checks.check_round("score-offline", expects, [call])[1]
    victim["f1"] = round(checks.greedy_f1(short[0].pred_spans, short[0].gold_spans), 6)
    victim["em"] = 1 - victim["em"]
    assert checks.check_round("score-offline", expects, [call])[1]


def test_greedy_shortfall_turns_are_the_same_for_every_seed(tmp_path):
    drawn = set()
    for seed in (1, 2, 3):
        expects = gen.make_score_offline(seed, tmp_path, turns=300)
        cross = [e for e in expects.values() if e.turn_id.startswith("cross-")]
        assert len(expects) == 300 and len(cross) == gen.CROSS_TURNS
        drawn.add(tuple((e.turn_id, e.pred_spans, e.gold_spans, _greedy_short(e)) for e in cross))
    assert len(drawn) == 1


def test_inputs_repeat_for_a_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    gen.make_cv_gold(9, a, turns=100)
    gen.make_cv_gold(9, b, turns=100)
    for f in ("corpus.json", "replay.jsonl"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_stub_history_check_rejects_gold_or_reordered_history(tmp_path):
    gen.make_predicted_http(4, tmp_path, turns=60)
    rows = [json.loads(line) for line in (tmp_path / "stub_book.jsonl").read_text().splitlines()]
    row = next(r for r in rows if "[system]" in r["history"])
    model_input = "[paragraph] x </p> [table] a : b " + row["history"]
    assert stub.history_ok(model_input, row["history"])
    swapped = row["history"].replace("[system]", "[system] gold answer", 1)
    assert not stub.history_ok("[paragraph] x " + swapped, row["history"])
    first_query = row["history"].split(" [system]")[0]
    assert not stub.history_ok(model_input.replace(first_query, "[user] other question"), row["history"])
