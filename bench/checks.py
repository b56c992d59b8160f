"""Correctness checks for the benchmark, apart from the program's own code.

Each turn is checked against the expectation the generator recorded when it
built the turn. F1 is checked against `ref_f1`, an exhaustive
optimal-assignment scorer written here from the metric's definition; it
shares no code with ``pcqa.metrics``. `greedy_f1` models the greedy
multi-span pairing of ``numeracy_f1`` so that the turns on which that pairing
falls short of the optimal one count as failed rather than as wrong.
"""

from __future__ import annotations

import itertools
import re
import string
from collections import Counter

from gen import NUM_SAMPLES, PRECISION, Expect, ratio, render

F1_TOLERANCE = 1e-6  # the per-turn log rounds F1 to 6 places
_NUMERAL = re.compile(r"^[$€£¥]?(-?)(\d{1,3}(?:,\d{3})+|\d+)?(?:\.(\d+))?%?$")
_ARTICLES = {"a", "an", "the"}
_STRIP = str.maketrans("", "", string.punctuation)


def _number(token: str) -> tuple[int, int] | None:
    match = _NUMERAL.match(token)
    if not match or not any(ch.isdigit() for ch in token):
        return None
    sign, whole, frac = match.groups()
    whole = (whole or "0").replace(",", "")
    frac = frac or ""
    value = ratio(int(whole + frac), 10 ** len(frac))
    return (-value[0], value[1]) if sign else value


def _normalize(text: str) -> list[str]:
    tokens = text.lower().split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    out = []
    for token in tokens:
        value = _number(token)
        if value is not None:
            out.append(render(value, PRECISION))
        elif token.translate(_STRIP):
            out.append(token.translate(_STRIP))
    return out


def ref_pair_f1(pred: str, gold: str) -> float:
    p, g = _normalize(pred), _normalize(gold)
    p_num = _number(p[0]) if len(p) == 1 else None
    g_num = _number(g[0]) if len(g) == 1 else None
    if p_num is not None or g_num is not None:
        return float(p_num is not None and g_num is not None and render(p_num) == render(g_num))
    if not p and not g:
        return 1.0
    common = sum((Counter(p) & Counter(g)).values())
    if not common:
        return 0.0
    precision, recall = common / len(p), common / len(g)
    return 2 * precision * recall / (precision + recall)


def ref_f1(pred: tuple[str, ...], gold: tuple[str, ...]) -> float:
    """Mean pair F1 under the best one-to-one pairing, over max(len) slots."""
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    short, long = (pred, gold) if len(pred) <= len(gold) else (gold, pred)
    flip = short is gold
    best = 0.0
    for chosen in itertools.permutations(long, len(short)):
        total = sum(
            ref_pair_f1(b, a) if flip else ref_pair_f1(a, b) for a, b in zip(short, chosen)
        )
        best = max(best, total)
    return best / len(long)


def greedy_f1(pred: tuple[str, ...], gold: tuple[str, ...]) -> float:
    """Mean pair F1 when the best remaining pair is taken first, ties going to
    the lowest predicted, then gold, index: the pairing numeracy_f1 uses."""
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    free_pred, free_gold = set(range(len(pred))), set(range(len(gold)))
    total = 0.0
    while free_pred and free_gold:
        score, i, j = max((ref_pair_f1(pred[i], gold[j]), -i, -j) for i in free_pred for j in free_gold)
        total += score
        free_pred.remove(-i)
        free_gold.remove(-j)
    return total / max(len(pred), len(gold))


def known_defect(expect: Expect, log: dict) -> bool:
    """The turn's F1 is the greedy pairing's, and that is below the optimal one."""
    greedy = greedy_f1(expect.pred_spans, expect.gold_spans)
    return (
        ref_f1(expect.pred_spans, expect.gold_spans) - greedy > F1_TOLERANCE
        and isinstance(log.get("f1"), (int, float))
        and abs(log["f1"] - greedy) <= F1_TOLERANCE
    )


def check_turn(expect: Expect, log: dict, workload: str) -> list[str]:
    """Reasons this turn's output is wrong; empty when it is right."""
    problems = []
    if log.get("final_response") != expect.text:
        problems.append(f"final_response {log.get('final_response')!r} != {expect.text!r}")
    if log.get("em") != expect.em:
        problems.append(f"em {log.get('em')} != {expect.em}")
    want_f1 = ref_f1(expect.pred_spans, expect.gold_spans)
    if not isinstance(log.get("f1"), (int, float)) or abs(log["f1"] - want_f1) > F1_TOLERANCE:
        problems.append(f"f1 {log.get('f1')} != reference {want_f1:.6f}")
    if workload == "score-offline":
        return problems
    if log.get("fallback_used") is not expect.fallback:
        problems.append(f"fallback_used {log.get('fallback_used')} != {expect.fallback}")
    vote = log.get("vote")
    if workload != "cv-gold" or expect.fallback:
        if vote is not None:
            problems.append("vote recorded where none was expected")
        return problems
    if not vote or not vote.get("tallies"):
        return problems + ["no vote recorded"]
    votes = [t["votes"] for t in vote["tallies"]]
    if votes[0] != expect.winner_votes or any(v >= votes[0] for v in votes[1:]):
        problems.append(f"tallies {votes} do not give the winner {expect.winner_votes} votes")
    if vote.get("discarded") != expect.discarded:
        problems.append(f"discarded {vote.get('discarded')} != {expect.discarded}")
    if sum(votes) + vote.get("discarded", 0) != NUM_SAMPLES:
        problems.append(f"tallies {votes} + discarded {vote.get('discarded')} != {NUM_SAMPLES}")
    return problems


def _prf(pairs: list[tuple[bool, bool]]) -> tuple[float, float, float]:
    tp = sum(p and g for p, g in pairs)
    fp = sum(p and not g for p, g in pairs)
    fn = sum(g and not p for p, g in pairs)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def check_report(expects: list[Expect], logs: list[dict], failed: set[str], report: dict) -> list[str]:
    """Report-level checks for one run_eval / score_predictions call.

    EM and the clarification-need scores come from construction. F1 is the
    reference mean, with the program's own value kept for turns already
    counted as failed.
    """
    n = len(expects)
    problems = []
    if report.get("records") != n:
        problems.append(f"report records {report.get('records')} != {n}")
    want_em = sum(e.em for e in expects) / n
    if abs(report.get("overall_em", -1) - want_em) > 1e-12:
        problems.append(f"overall EM {report.get('overall_em')} != {want_em}")
    f1s = [
        log["f1"] if e.turn_id in failed else ref_f1(e.pred_spans, e.gold_spans)
        for e, log in zip(expects, logs)
    ]
    if abs(report.get("overall_f1", -1) - sum(f1s) / n) > F1_TOLERANCE:
        problems.append(f"overall F1 {report.get('overall_f1')} != {sum(f1s) / n}")
    want_cnp = _prf([(e.pred_clarify, e.gold_clarify) for e in expects])
    got_cnp = (report.get("cnp_precision"), report.get("cnp_recall"), report.get("cnp_f1"))
    if any(g is None or abs(g - w) > 1e-12 for g, w in zip(got_cnp, want_cnp)):
        problems.append(f"CNP P/R/F1 {got_cnp} != {want_cnp}")
    return problems


def check_round(workload: str, expects: dict[str, Expect], calls: list[dict]) -> tuple[list[str], list[str]]:
    """Check one round of calls. Returns (failed turn ids, errors).

    A failed turn is counted in `failed`. An error makes the run incorrect:
    a turn missing or repeated, a report that disagrees with construction,
    or a failed turn whose one fault is not the greedy multi-span pairing.
    """
    failed: list[str] = []
    errors: list[str] = []
    seen: list[str] = []
    for call in calls:
        call_expects = []
        call_failed = set()
        for log in call["logs"]:
            expect = expects.get(log.get("turn_id"))
            if expect is None:
                errors.append(f"unexpected turn {log.get('turn_id')!r}")
                continue
            seen.append(expect.turn_id)
            call_expects.append(expect)
            problems = check_turn(expect, log, workload)
            if problems:
                failed.append(expect.turn_id)
                call_failed.add(expect.turn_id)
                if len(problems) > 1 or not known_defect(expect, log):
                    errors.append(f"{expect.turn_id}: " + "; ".join(problems))
        if len(call_expects) == len(call["logs"]) and call_expects:
            errors.extend(check_report(call_expects, call["logs"], call_failed, call["report"]))
    if sorted(seen) != sorted(expects):
        errors.append(f"{len(seen)} turns logged, {len(expects)} expected, or some repeated")
    return failed, errors
