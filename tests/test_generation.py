import json
import math
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pcqa.generation import (
    ContractViolation,
    GeneratedOutput,
    GenerationRequest,
    HttpGenerator,
    ReplayGenerator,
    TransportError,
    _parse_outputs,
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
            encoded = body if isinstance(body, bytes) else json.dumps(body).encode()
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
    server.server_close()
    thread.join(timeout=5)


class TestHttpGenerator:
    def test_greedy_returns_one(self, stub_server):
        endpoint, state = stub_server
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        outputs = generator.generate(GenerationRequest(input="x", mode="greedy", turn_id="t1"))
        assert len(outputs) == 1
        assert state.requests[0][0] == "/generate"
        assert state.requests[0][1]["turn_id"] == "t1"

    def test_sample_returns_n(self, stub_server):
        endpoint, _ = stub_server
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        outputs = generator.generate(
            GenerationRequest(input="x", mode="sample", num_samples=40)
        )
        assert len(outputs) == 40
        assert outputs[3].score == -3.0

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
        outputs = generator.generate(GenerationRequest(input="x", mode="greedy"))
        assert len(outputs) == 1
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
            {"outputs": [{"text": "x", "score": "nan"}]},
            b'{"outputs": [{"text": "x", "score": NaN}]}',
            b'{"outputs": [{"text": "x", "score": Infinity}]}',
            b"<html><body>Bad gateway</body></html>",
        ],
        ids=[
            "list-body",
            "score-not-numeric",
            "score-is-list",
            "score-nan-string",
            "score-raw-nan",
            "score-raw-infinity",
            "html-body",
        ],
    )
    def test_malformed_body_is_contract_violation(self, stub_server, body):
        endpoint, state = stub_server
        state.behaviors.append(lambda p: (200, body))
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01)
        with pytest.raises(ContractViolation):
            generator.generate(GenerationRequest(input="x", mode="greedy"))

    def test_client_error_fails_without_retry(self, stub_server):
        endpoint, state = stub_server
        state.behaviors.extend([lambda p: (404, {})] * 3)
        generator = HttpGenerator(endpoint=endpoint, backoff_base=0.01, max_attempts=3)
        with pytest.raises(TransportError, match="returned 404"):
            generator.generate(GenerationRequest(input="x", mode="greedy"))
        assert len(state.requests) == 1

    def test_unreachable_endpoint(self):
        generator = HttpGenerator(
            endpoint="http://127.0.0.1:1", backoff_base=0.01, max_attempts=2, timeout=0.3
        )
        with pytest.raises(TransportError):
            generator.generate(GenerationRequest(input="x", mode="greedy"))


class _KeepAliveStub(ThreadingHTTPServer):
    """HTTP/1.1 stub answering each request with its own turn id as the decode.

    Counts the TCP connections it accepts and the requests it serves; with
    close_after_reply it closes every connection after one keep-alive reply.
    """

    daemon_threads = True

    def __init__(self, close_after_reply: bool = False):
        self.close_after_reply = close_after_reply
        self.connections = 0
        self.paths = []
        self.closed = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with stub.lock:
                    stub.connections += 1

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with stub.lock:
                    stub.paths.append(self.path)
                encoded = json.dumps({"outputs": [{"text": payload["turn_id"]}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(encoded)))
                self.end_headers()
                self.wfile.write(encoded)
                self.close_connection = stub.close_after_reply

            def log_message(self, *args):
                pass

        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), Handler)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def keepalive_stub(request):
    server = _KeepAliveStub(close_after_reply=getattr(request, "param", False))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def generator(keepalive_stub):
    generator = HttpGenerator(endpoint=keepalive_stub.endpoint, backoff_base=0.01)
    yield generator
    generator.close()


def _greedy(turn_id: str) -> GenerationRequest:
    return GenerationRequest(input="x", mode="greedy", turn_id=turn_id)


class TestPersistentConnections:
    def test_sequential_requests_reuse_one_connection(self, keepalive_stub, generator):
        for i in range(10):
            assert generator.generate(_greedy(f"t{i}"))[0].text == f"t{i}"
        assert len(keepalive_stub.paths) == 10
        assert keepalive_stub.connections == 1

    @pytest.mark.parametrize("keepalive_stub", [True], indirect=True)
    def test_connection_closed_while_idle_costs_no_attempt(self, keepalive_stub):
        generator = HttpGenerator(endpoint=keepalive_stub.endpoint, backoff_base=5)
        try:
            assert generator.generate(_greedy("t1"))[0].text == "t1"
            assert keepalive_stub.closed.wait(5)
            time.sleep(0.05)  # let the FIN reach the client's idle socket
            started = time.perf_counter()
            assert generator.generate(_greedy("t2"))[0].text == "t2"
            assert time.perf_counter() - started < 1.0
        finally:
            generator.close()
        assert len(keepalive_stub.paths) == 2
        assert keepalive_stub.connections == 2

    def test_endpoint_path_prefix(self, keepalive_stub):
        generator = HttpGenerator(endpoint=keepalive_stub.endpoint + "/v1/", backoff_base=0.01)
        try:
            generator.generate(_greedy("t1"))
        finally:
            generator.close()
        assert keepalive_stub.paths == ["/v1/generate"]

    def test_threads_never_share_a_connection(self, keepalive_stub, generator):
        mismatches = []
        errors = []

        def worker(k: int) -> None:
            try:
                for i in range(20):
                    turn_id = f"w{k}-t{i}"
                    text = generator.generate(_greedy(turn_id))[0].text
                    if text != turn_id:
                        mismatches.append((turn_id, text))
            except Exception as err:  # surfaced by the assertion below
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the pool's critical sections too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        assert len(keepalive_stub.paths) == 160
        assert keepalive_stub.connections <= 8

    @pytest.mark.parametrize(
        "endpoint", ["127.0.0.1:8000", "ftp://127.0.0.1/", "http://", "http://127.0.0.1/a b", "http://hôst/"]
    )
    def test_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(ValueError):
            HttpGenerator(endpoint=endpoint)


class _ScriptedServer:
    """A raw TCP server on 127.0.0.1 that answers each request with the next
    scripted reply, byte for byte, and records what it receives.

    A script entry is (reply bytes, close): with close the server shuts the
    connection after the reply. `requests` holds (connection number, the
    bytes of the request, whether its first recv held all of them).
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.connections = 0
        self.lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.1)
        self.stop = threading.Event()
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.listener.getsockname()[1]}"

    def _accept(self) -> None:
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with self.lock:
                self.connections += 1
                number = self.connections
            thread = threading.Thread(target=self._serve, args=(conn, number), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, number: int) -> None:
        conn.settimeout(5)
        with conn:
            try:
                while True:
                    first = data = conn.recv(65536)
                    while b"\r\n\r\n" not in data or len(data) < _request_size(data):
                        more = conn.recv(65536)
                        if not more:
                            return  # the client closed the connection
                        data += more
                    with self.lock:
                        self.requests.append((number, data, first == data))
                        reply, close = self.script.pop(0) if self.script else (b"", True)
                    conn.sendall(reply)
                    if close:
                        return
            except OSError:
                pass  # the client gave up on the reply

    def close(self) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=5)
        self.listener.close()
        assert not any(thread.is_alive() for thread in self.threads)


def _request_size(data: bytes) -> int:
    """The size of the request whose head `data` starts with: head and body."""
    head = data.split(b"\r\n\r\n", 1)[0]
    return len(head) + 4 + int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])


def _json_reply(text: str, *headers: str, version: str = "1.1") -> bytes:
    body = json.dumps({"outputs": [{"text": text}]}).encode()
    head = "".join(f"{header}\r\n" for header in headers)
    return f"HTTP/{version} 200 OK\r\nContent-Length: {len(body)}\r\n{head}\r\n".encode() + body


@pytest.fixture
def scripted():
    """Starts a _ScriptedServer on a script; closes the server and the generator after the test."""
    servers, generators = [], []

    def start(*script):
        server = _ScriptedServer(script)
        generator = HttpGenerator(endpoint=server.endpoint, backoff_base=0.01, max_attempts=3, timeout=5.0)
        servers.append(server)
        generators.append(generator)
        return server, generator

    yield start
    for generator in generators:
        generator.close()
    for server in servers:
        server.close()


class TestWire:
    def test_request_is_one_head_and_body_in_one_write(self, scripted):
        server, generator = scripted((_json_reply("a"), False))
        request = _greedy("t1")
        assert generator.generate(request)[0].text == "a"
        (number, data, whole_in_first_recv), = server.requests
        head, body = data.split(b"\r\n\r\n", 1)
        port = server.endpoint.rsplit(":", 1)[1]
        assert head.split(b"\r\n") == [
            b"POST /generate HTTP/1.1",
            f"Host: 127.0.0.1:{port}".encode(),
            b"Content-Type: application/json",
            f"Content-Length: {len(body)}".encode(),
        ]
        assert json.loads(body) == request.to_payload()
        assert whole_in_first_recv

    def test_chunked_reply_keeps_the_connection(self, scripted):
        body = json.dumps({"outputs": [{"text": "chunked"}]}).encode()
        chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part) for part in (body[:5], body[5:]))
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\nX-Trailer: 1\r\n\r\n"
        server, generator = scripted((reply, False), (_json_reply("next"), False))
        assert generator.generate(_greedy("t1"))[0].text == "chunked"
        assert generator.generate(_greedy("t2"))[0].text == "next"
        assert [number for number, _, _ in server.requests] == [1, 1]

    def test_http10_reply_ends_at_close(self, scripted):
        body = json.dumps({"outputs": [{"text": "old"}]}).encode()
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + body
        server, generator = scripted((reply, True), (_json_reply("next"), False))
        assert generator.generate(_greedy("t1"))[0].text == "old"
        assert generator.generate(_greedy("t2"))[0].text == "next"
        assert [number for number, _, _ in server.requests] == [1, 2]

    def test_connection_close_is_not_reused(self, scripted):
        # The server leaves the socket open: only the header stops the reuse.
        server, generator = scripted((_json_reply("a", "Connection: close"), False), (_json_reply("b"), False))
        assert generator.generate(_greedy("t1"))[0].text == "a"
        assert generator.generate(_greedy("t2"))[0].text == "b"
        assert [number for number, _, _ in server.requests] == [1, 2]

    def test_bytes_after_the_reply_are_never_read_as_the_next_reply(self, scripted):
        server, generator = scripted((_json_reply("a") + _json_reply("stray"), False), (_json_reply("b"), False))
        assert generator.generate(_greedy("t1"))[0].text == "a"
        assert generator.generate(_greedy("t2"))[0].text == "b"
        assert [number for number, _, _ in server.requests] == [1, 2]

    def test_100_continue_is_skipped(self, scripted):
        reply = b"HTTP/1.1 100 Continue\r\n\r\n" + _json_reply("after-continue")
        server, generator = scripted((reply, False))
        assert generator.generate(_greedy("t1"))[0].text == "after-continue"

    def test_204_reply_does_not_wait_for_the_timeout(self, scripted):
        server, generator = scripted((b"HTTP/1.1 204 No Content\r\n\r\n", False), (_json_reply("b"), False))
        started = time.perf_counter()
        with pytest.raises(TransportError, match=r"^generation endpoint returned 204$"):
            generator.generate(_greedy("t1"))
        assert time.perf_counter() - started < 2.0
        assert generator.generate(_greedy("t2"))[0].text == "b"
        assert [number for number, _, _ in server.requests] == [1, 1]

    @pytest.mark.parametrize(
        "reply, error",
        [
            (b"HTTP/1.1 OK\r\n\r\n", "malformed status line"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", "connection closed with 98 body bytes unread"),
            (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", "reply line longer than 65536 bytes"),
        ],
        ids=["malformed-status-line", "truncated-body", "over-long-header-line"],
    )
    def test_malformed_reply_spends_every_attempt(self, scripted, reply, error):
        server, generator = scripted(*[(reply, True)] * 3)
        with pytest.raises(TransportError) as err:
            generator.generate(_greedy("t1"))
        assert str(err.value) == f"generation failed after 3 attempts: {error}"
        assert err.value.__cause__ is None and err.value.__context__ is None
        assert [number for number, _, _ in server.requests] == [1, 2, 3]


def _tls_reply_server(cert: Path, key: Path, stop: threading.Event, handshakes: list):
    """A TLS listener on 127.0.0.1 answering each request with one greedy decode.

    Returns the listening socket and the daemon thread that accepts
    connections until `stop` is set, appending each handshake's outcome to
    `handshakes`.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(5)
            try:
                with context.wrap_socket(conn, server_side=True) as tls:
                    handshakes.append("ok")
                    with tls.makefile("rb") as reader:
                        head = b"".join(iter(reader.readline, b"\r\n")).lower()
                        length = int(head.split(b"content-length:")[1].split(b"\r\n")[0])
                        turn_id = json.loads(reader.read(length))["turn_id"]
                    body = json.dumps({"outputs": [{"text": turn_id}]}).encode()
                    tls.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
            except (ssl.SSLError, OSError) as err:
                handshakes.append(type(err).__name__)
            finally:
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


_HTTPS_CLIENT = """
import sys
from pcqa.generation import GenerationRequest, HttpGenerator, TransportError
generator = HttpGenerator(endpoint=sys.argv[1], max_attempts=2, backoff_base=0.01, timeout=10)
try:
    print(generator.generate(GenerationRequest(input="x", turn_id="t-tls"))[0].text)
except TransportError as err:
    print("TransportError:", err)
finally:
    generator.close()
"""


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
class TestHttps:
    @pytest.fixture(scope="class")
    def certificate(self, tmp_path_factory):
        """A self-signed certificate for the IP address 127.0.0.1, and its key."""
        directory = tmp_path_factory.mktemp("tls")
        cert, key = directory / "cert.pem", directory / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
             "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
             "-keyout", str(key), "-out", str(cert)],
            check=True,
            capture_output=True,
        )
        return cert, key

    def _run_client(self, certificate, trust: bool) -> tuple[str, list]:
        stop, handshakes = threading.Event(), []
        listener, thread = _tls_reply_server(*certificate, stop, handshakes)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k not in ("SSL_CERT_FILE", "SSL_CERT_DIR")}
        env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        if trust:
            env["SSL_CERT_FILE"] = str(certificate[0])
        try:
            endpoint = f"https://127.0.0.1:{listener.getsockname()[1]}"
            done = subprocess.run(
                [sys.executable, "-c", _HTTPS_CLIENT, endpoint],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()
        return done.stdout.strip(), handshakes

    def test_trusted_certificate(self, certificate):
        out, handshakes = self._run_client(certificate, trust=True)
        assert out == "t-tls"
        assert handshakes == ["ok"]

    def test_untrusted_certificate_fails_after_the_retries(self, certificate):
        out, handshakes = self._run_client(certificate, trust=False)
        assert out.startswith("TransportError: generation failed after 2 attempts: ")
        assert "CERTIFICATE_VERIFY_FAILED" in out
        assert len(handshakes) == 2 and "ok" not in handshakes


def test_import_loads_no_third_party_http_client():
    # Nor ssl, which only an https:// endpoint needs.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import pcqa, sys; loaded = {'requests', 'http.client', 'email', 'ssl'} & set(sys.modules); "
            "assert not loaded, loaded",
        ],
        env=env,
        check=True,
    )


_CLOSE_IN_FLIGHT = """
import gc, json, socket, threading, time
from pcqa.generation import GenerationRequest, HttpGenerator

listener = socket.create_server(("127.0.0.1", 0))
listener.settimeout(0.1)
stop, received = threading.Event(), threading.Event()
connections = []

def serve(conn, delay):
    # Answers each request on a keep-alive connection, the first one `delay` s late.
    with conn:
        data = b""
        while True:
            more = conn.recv(65536)
            if not more:
                return  # the client closed the connection
            data += more
            head, sep, body = data.partition(b"\\r\\n\\r\\n")
            if not sep or len(body) < int(head.lower().split(b"content-length: ")[1].split(b"\\r\\n")[0]):
                continue
            received.set()
            time.sleep(delay)
            delay, data = 0, b""
            reply = json.dumps({"outputs": [{"text": json.loads(body)["turn_id"]}]}).encode()
            conn.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Length: %d\\r\\n\\r\\n%s" % (len(reply), reply))

def accept():
    threads = []
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        conn.settimeout(5)
        connections.append(conn)
        threads.append(threading.Thread(target=serve, args=(conn, 0.3 if len(connections) == 1 else 0)))
        threads[-1].start()
    for thread in threads:
        thread.join()

acceptor = threading.Thread(target=accept)
acceptor.start()
generator = HttpGenerator(endpoint=f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=5)
texts = []
request = threading.Thread(target=lambda: texts.append(generator.generate(GenerationRequest("x", turn_id="slow"))))
request.start()
received.wait(5)
generator.close()  # the slow request is still waiting for its reply
request.join()
print(texts[0][0].text, len(generator._idle))
print(generator.generate(GenerationRequest("x", turn_id="after"))[0].text, len(generator._idle), len(connections))
generator.close()
stop.set()
acceptor.join()
listener.close()
del generator
gc.collect()
"""


def test_close_during_a_request_leaves_no_connection_open():
    """A request in flight when close() runs closes its connection instead of
    pooling it; the generator stays usable, with a new connection."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _CLOSE_IN_FLIGHT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == ["slow 0", "after 1 2"]
    assert "ResourceWarning" not in done.stderr, done.stderr


class TestReplayGenerator:
    def test_keyed_by_turn_and_mode(self, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        greedy = generator.generate(
            GenerationRequest(input="ignored", mode="greedy", turn_id="t7c1-q1")
        )
        assert greedy == (
            GeneratedOutput(text="[clari.] False [resp.] (1.06+0.91+4.01)/3", score=None),
        )
        sampled = generator.generate(
            GenerationRequest(input="ignored", mode="sample", num_samples=40, turn_id="t7c1-q1")
        )
        assert len(sampled) == 40

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

    @pytest.mark.parametrize("score", ["NaN", "Infinity", '"-inf"'])
    def test_non_finite_score_is_contract_violation(self, tmp_path, score):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"turn_id": "t", "mode": "greedy", "outputs": [{"text": "x", "score": %s}]}\n' % score)
        with pytest.raises(ContractViolation, match="not finite"):
            ReplayGenerator.from_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TransportError):
            ReplayGenerator.from_jsonl(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}\n", b"[" * 100_000 + b"\n"], ids=["not-utf-8", "nested-too-deep"]
    )
    def test_unreadable_line_is_transport_error(self, tmp_path, content):
        path = tmp_path / "replay.jsonl"
        path.write_bytes(content)
        with pytest.raises(TransportError):
            ReplayGenerator.from_jsonl(path)


def reference_parse_outputs(body) -> list[GeneratedOutput]:
    """The per-entry loop: one new output per entry, nothing shared."""
    outputs = body.get("outputs") if isinstance(body, dict) else None
    if not isinstance(outputs, list):
        raise ContractViolation("response body must be an object carrying an outputs list")
    parsed = []
    for item in outputs:
        if not isinstance(item, dict) or "text" not in item:
            raise ContractViolation(f"malformed output entry: {item!r}")
        score = item.get("score")
        try:
            score = None if score is None else float(score)
        except (TypeError, ValueError, OverflowError) as err:
            raise ContractViolation(f"output score is not a number: {score!r}") from err
        if score is not None and not math.isfinite(score):
            raise ContractViolation(f"output score is not finite: {score!r}")
        parsed.append(GeneratedOutput(text=str(item["text"]), score=score))
    return parsed


def _exact(outputs) -> list[tuple]:
    """Outputs as comparable tuples that also tell 0.0 from -0.0."""
    return [(o.text, repr(o.score)) for o in outputs]


_SCORES = [None, -1.5, -0.25, 0.0, -0.0, 0, 1, True, False, "2.5", "high"]
_SCORES += [math.nan, math.inf, [1], {}, 10**400]
_output_entries = st.one_of(
    st.fixed_dictionaries(
        {"text": st.sampled_from(["a", "b", "", 1, 1.0, True, None])},
        optional={"score": st.sampled_from(_SCORES)},
    ),
    st.sampled_from([{"score": -1.0}, "a", 7, None, ["a"]]),
)


class TestParseOutputs:
    def test_repeats_share_one_output(self):
        a, b = {"text": "a", "score": -1.0}, {"text": "b"}
        outputs = _parse_outputs({"outputs": [a, b, dict(a), dict(b)]})
        assert outputs == [GeneratedOutput("a", -1.0), GeneratedOutput("b")] * 2
        assert outputs[0] is outputs[2] and outputs[1] is outputs[3]
        assert outputs[0] is not outputs[1]

    def test_equal_keys_with_unequal_outputs_are_not_shared(self):
        entries = [{"text": "a", "score": 0.0}, {"text": "a", "score": -0.0}, {"text": 1}, {"text": True}]
        outputs = _parse_outputs({"outputs": entries})
        assert _exact(outputs) == [("a", "0.0"), ("a", "-0.0"), ("1", "None"), ("True", "None")]

    def test_bad_repeat_after_good_entries_names_the_entry(self):
        good = {"text": "a", "score": -1.0}
        with pytest.raises(ContractViolation, match=r"^output score is not finite: inf$"):
            _parse_outputs({"outputs": [good, good, {"text": "a", "score": math.inf}]})
        with pytest.raises(ContractViolation, match=r"^malformed output entry: \{'score': -1.0\}$"):
            _parse_outputs({"outputs": [good, {"score": -1.0}]})

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_output_entries, max_size=8))
    def test_same_outputs_and_errors_as_the_per_entry_loop(self, entries):
        body = {"outputs": entries}
        try:
            expected = reference_parse_outputs(body)
        except ContractViolation as err:
            with pytest.raises(ContractViolation) as got:
                _parse_outputs(body)
            assert str(got.value) == str(err)
        else:
            assert _exact(_parse_outputs(body)) == _exact(expected)


class TestReplayLineErrors:
    def test_bad_line_is_named_by_path_and_line_number(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        good = json.dumps({"turn_id": "t", "mode": "greedy", "outputs": [{"text": "x"}]})
        path.write_text(f"{good}\n\n{good}\n{{\"mode\": \"greedy\"}}\n")
        with pytest.raises(TransportError) as err:
            ReplayGenerator.from_jsonl(path)
        assert str(err.value) == f"{path}:4: bad replay line: 'turn_id'"

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_separator_inside_a_decode(self, tmp_path, separator):
        """JSON allows these raw inside a string; only "\\n" ends a line."""
        path = tmp_path / "replay.jsonl"
        text = f"[clari.] False [resp.] 1{separator}2"
        line = json.dumps({"turn_id": "t", "mode": "greedy", "outputs": [{"text": text}]}, ensure_ascii=False)
        assert separator in line
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        generator = ReplayGenerator.from_jsonl(path)
        assert generator.generate(_greedy("t")) == (GeneratedOutput(text),)

    def test_crlf_file_names_the_bad_line(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        good = json.dumps({"turn_id": "t", "mode": "greedy", "outputs": [{"text": "x"}]})
        path.write_bytes(f"{good}\r\n\r\n{good}\r\n{{\"mode\": 1}}\r\n".encode())
        with pytest.raises(TransportError) as err:
            ReplayGenerator.from_jsonl(path)
        assert str(err.value) == f"{path}:4: bad replay line: 'turn_id'"
        path.write_bytes(f"{good}\r\n{good}\r\n".encode())
        assert ReplayGenerator.from_jsonl(path).generate(_greedy("t")) == (GeneratedOutput("x"),)

    @pytest.mark.parametrize("turn_id", [None, True, ["t"], {"a": 1}], ids=["null", "bool", "list", "object"])
    def test_turn_id_must_be_a_string_or_an_integer(self, tmp_path, turn_id):
        path = tmp_path / "replay.jsonl"
        lines = [{"turn_id": t, "mode": "greedy", "outputs": [{"text": "x"}]} for t in ("t", turn_id)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(TransportError) as err:
            ReplayGenerator.from_jsonl(path)
        assert str(err.value) == (
            f"{path}:2: bad replay line: turn_id: turn id must be a string or an integer, got {turn_id!r}"
        )

    @pytest.mark.parametrize("mode", [None, "beam", ["greedy"], 1])
    def test_mode_must_be_greedy_or_sample(self, tmp_path, mode):
        path = tmp_path / "replay.jsonl"
        path.write_text(json.dumps({"turn_id": "t", "mode": mode, "outputs": [{"text": "x"}]}) + "\n")
        with pytest.raises(TransportError) as err:
            ReplayGenerator.from_jsonl(path)
        assert str(err.value) == f"{path}:1: bad replay line: mode must be 'greedy' or 'sample', got {mode!r}"

    def test_integer_turn_id_and_absent_mode(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(json.dumps({"turn_id": 5, "outputs": [{"text": "x"}] * 2}) + "\n")
        assert list(ReplayGenerator.from_jsonl(path).entries) == [("5", "sample")]

    def test_bad_outputs_keep_their_message(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        outputs = [{"text": "x", "score": -1.0}] * 3 + [{"text": "x", "score": "high"}]
        path.write_text(json.dumps({"turn_id": "t", "outputs": outputs}) + "\n")
        with pytest.raises(ContractViolation) as err:
            ReplayGenerator.from_jsonl(path)
        assert str(err.value) == "output score is not a number: 'high'"


class TestGenerationRequest:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(input="x", mode="beam")

    def test_sample_request_needs_a_sample(self):
        for num_samples in (0, -1):
            with pytest.raises(ValueError, match="num_samples must be >= 1"):
                GenerationRequest(input="x", mode="sample", num_samples=num_samples)
        # a greedy request asks for one output whatever num_samples says
        assert GenerationRequest(input="x", mode="greedy", num_samples=0).expected_outputs() == 1

    def test_expected_outputs(self):
        assert GenerationRequest(input="x", mode="greedy").expected_outputs() == 1
        assert GenerationRequest(input="x", mode="sample", num_samples=7).expected_outputs() == 7
