import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from pcqa.generation import (
    ContractViolation,
    GeneratedOutput,
    GenerationRequest,
    HttpGenerator,
    ReplayGenerator,
    TransportError,
)


class _StubState:
    def __init__(self):
        self.behaviors = []  # queue of callables(handler, payload)
        self.requests = []


def _echo_outputs(n, prefix="out"):
    return {"outputs": [{"text": f"{prefix}-{i}", "score": -float(i)} for i in range(n)]}


@pytest.fixture
def stub_server():
    state = _StubState()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            state.requests.append((self.path, payload))
            if state.behaviors:
                behavior = state.behaviors.pop(0)
            else:
                behavior = lambda p: (200, _echo_outputs(1 if p["mode"] == "greedy" else p["num_samples"]))
            status, body = behavior(payload)
            encoded = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    yield endpoint, state
    server.shutdown()
    thread.join(timeout=5)


class TestHttpGenerator:
    def test_greedy_returns_one(self, stub_server):
        endpoint, state = stub_server
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        response = generator.generate(GenerationRequest(input="x", mode="greedy", turn_id="t1"))
        assert len(response.outputs) == 1
        assert state.requests[0][0] == "/generate"
        assert state.requests[0][1]["turn_id"] == "t1"

    def test_sample_returns_n(self, stub_server):
        endpoint, _ = stub_server
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        response = generator.generate(
            GenerationRequest(input="x", mode="sample", num_samples=40)
        )
        assert len(response.outputs) == 40
        assert response.outputs[3].score == -3.0

    def test_decode_defaults_on_wire(self, stub_server):
        endpoint, state = stub_server
        HttpGenerator(endpoint=endpoint, backoff_base=0.01).generate(
            GenerationRequest(input="x", mode="sample")
        )
        payload = state.requests[0][1]
        assert payload["num_samples"] == 40
        assert payload["top_k"] == 40
        assert payload["temperature"] == 0.5

    def test_retries_transient_failure(self, stub_server):
        endpoint, state = stub_server
        state.behaviors.append(lambda p: (503, {}))
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        response = generator.generate(GenerationRequest(input="x", mode="greedy"))
        assert len(response.outputs) == 1
        assert len(state.requests) == 2

    def test_gives_up_after_bounded_attempts(self, stub_server):
        endpoint, state = stub_server
        state.behaviors.extend([lambda p: (500, {})] * 5)
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01, max_attempts=3)
        with pytest.raises(TransportError):
            generator.generate(GenerationRequest(input="x", mode="greedy"))
        assert len(state.requests) == 3

    def test_contract_violation_on_count(self, stub_server):
        endpoint, state = stub_server
        state.behaviors.append(lambda p: (200, _echo_outputs(39)))
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        with pytest.raises(ContractViolation):
            generator.generate(GenerationRequest(input="x", mode="sample", num_samples=40))

    @pytest.mark.parametrize(
        "body",
        [
            [{"text": "x"}],
            {"outputs": [{"text": "x", "score": "high"}]},
            {"outputs": [{"text": "x", "score": [1.0]}]},
        ],
        ids=["list-body", "score-not-numeric", "score-is-list"],
    )
    def test_malformed_body_is_contract_violation(self, stub_server, body):
        endpoint, state = stub_server
        state.behaviors.append(lambda p: (200, body))
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        with pytest.raises(ContractViolation):
            generator.generate(GenerationRequest(input="x", mode="greedy"))

    def test_unreachable_endpoint(self):
        generator = HttpGenerator(
            endpoint="http://127.0.0.1:1", backoff_base=0.01, max_attempts=2, timeout=0.3
        )
        with pytest.raises(TransportError):
            generator.generate(GenerationRequest(input="x", mode="greedy"))


class TestReplayGenerator:
    def test_keyed_by_turn_and_mode(self, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        greedy = generator.generate(
            GenerationRequest(input="ignored", mode="greedy", turn_id="t7c1-q1")
        )
        assert greedy.outputs == (
            GeneratedOutput(text="[clari.] False [resp.] (1.06+0.91+4.01)/3", score=None),
        )
        sampled = generator.generate(
            GenerationRequest(input="ignored", mode="sample", num_samples=40, turn_id="t7c1-q1")
        )
        assert len(sampled.outputs) == 40

    def test_missing_entry(self, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        with pytest.raises(TransportError):
            generator.generate(GenerationRequest(input="x", mode="greedy", turn_id="nope"))

    def test_contract_checked_against_request(self, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        with pytest.raises(ContractViolation):
            generator.generate(
                GenerationRequest(input="x", mode="sample", num_samples=39, turn_id="t7c1-q1")
            )

    def test_non_numeric_score_is_contract_violation(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(
            json.dumps({"turn_id": "t", "mode": "greedy", "outputs": [{"text": "x", "score": "high"}]})
            + "\n"
        )
        with pytest.raises(ContractViolation):
            ReplayGenerator.from_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TransportError):
            ReplayGenerator.from_jsonl(tmp_path / "nope.jsonl")


class TestGenerationRequest:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(input="x", mode="beam")

    def test_expected_outputs(self):
        assert GenerationRequest(input="x", mode="greedy").expected_outputs() == 1
        assert GenerationRequest(input="x", mode="sample", num_samples=7).expected_outputs() == 7
