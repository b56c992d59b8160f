"""pcqa benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload cv-gold --seed 1 --seconds 20 --trace 0

Generates the workload's input files from --seed under .bench_work/, starts
the stub service for predicted-http, runs bench/workload.py in a fresh
process against the program in src/, checks every output against the
generator's expectations and prints one JSON object as the last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The same object, with the details behind it, goes to BENCH_<workload>.json
(BENCH_<workload>.trace.json for a traced run) at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402

TIME_LIMIT_S = 170


class Stub:
    """The stub generation service, in its own process."""

    def __init__(self, book: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--book", str(book)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("stub service did not start")
        self.endpoint = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(args, workdir: Path, endpoint: str | None, deadline: float) -> dict:
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--workdir", str(workdir),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if endpoint:
        cmd += ["--endpoint", endpoint]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"  # the same string hashes in every run, one source of spread less
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # metric names and units

    if not (ROOT / "src" / "pcqa" / "__init__.py").is_file():
        print(f"no pcqa package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    expects = gen.WORKLOADS[args.workload](args.seed, workdir)

    stub_stats = None
    stub = Stub(workdir / "stub_book.jsonl") if args.workload == "predicted-http" else None
    try:
        result = run_workload(args, workdir, stub.endpoint if stub else None, deadline)
        if stub:
            stub_stats = stub.stats()
    finally:
        if stub:
            stub.close()

    rounds = len(result["digests"])
    attempted = rounds * result["turns_per_round"]
    failed_ids, errors = checks.check_round(args.workload, expects, result["first_round"])
    if len(set(result["digests"])) != 1:
        errors.append("rounds gave different outputs")
    if stub_stats is not None:
        for key in ("history_mismatches", "bad_requests"):
            if stub_stats[key]:
                errors.append(f"stub saw {stub_stats[key]} {key}")
        if stub_stats["requests"] != attempted:
            errors.append(f"stub saw {stub_stats['requests']} requests for {attempted} turns")

    if args.trace:
        layers = result["per_layer"]
        if stub_stats is not None:
            layers["generation.max_in_flight"] = stub_stats["max_in_flight"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        samples = result["samples"]
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "turns_per_s": statistics.median(s["turns"] / s["wall_s"] for s in samples),
            "cpu_ms_per_turn": statistics.median(s["cpu_s"] / s["turns"] * 1e3 for s in samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for problem in errors[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not errors,
        "attempted": attempted,
        "failed": rounds * len(failed_ids),
        "metrics": metrics,
    }
    details = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds, rounds=rounds,
                   failed_turns=failed_ids, errors=errors, stub=stub_stats, setup_s=result["setup_s"],
                   samples=result["samples"], peak_rss_mb=result["peak_rss_mb"])
    if args.trace:
        details.update(untraced_s=result["untraced_s"], traced_s=result["traced_s"])
    name = f"BENCH_{args.workload}{'.trace' if args.trace else ''}.json"
    (ROOT / name).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
