"""Stub generation service for the predicted-http workload.

Serves POST /generate on 127.0.0.1 after gen.STUB_DELAY_MS, answering each turn
with the greedy decode from its answer book. From each request it checks
that the model input ends with the history the generator expects: the
previous turns' predicted responses, in order. GET /stats reports the
number of requests, the most seen in flight at once and the failed checks.

Each response goes out in one send on a TCP_NODELAY socket, so Nagle's
algorithm and delayed ACKs add no wait between the headers and the body.

Run: python3 bench/stub.py --book stub_book.jsonl
It prints "port <n>" once it listens.
"""

from __future__ import annotations

import argparse
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import STUB_DELAY_MS


def history_ok(model_input: str, expected_history: str) -> bool:
    return model_input.endswith(" " + expected_history)


class Book:
    def __init__(self, path: str):
        self.entries = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                self.entries[row["turn_id"]] = (row["text"], row["history"])
        self.lock = threading.Lock()
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.history_mismatches = 0
        self.bad_requests = 0

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "max_in_flight": self.max_in_flight,
                "history_mismatches": self.history_mismatches,
                "bad_requests": self.bad_requests,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):
        pass

    def _reply(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode()
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Bad Request'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + payload)

    def do_GET(self):
        if self.path != "/stats":
            return self._reply(400, {"error": "unknown path"})
        self._reply(200, self.server.book.stats())

    def do_POST(self):
        book = self.server.book
        with book.lock:
            book.requests += 1
            book.in_flight += 1
            book.max_in_flight = max(book.max_in_flight, book.in_flight)
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            entry = book.entries.get(body.get("turn_id")) if self.path == "/generate" else None
            if entry is None or body.get("mode") != "greedy":
                with book.lock:
                    book.bad_requests += 1
                return self._reply(400, {"error": "unknown turn or mode"})
            text, history = entry
            if not history_ok(body.get("input", ""), history):
                with book.lock:
                    book.history_mismatches += 1
            time.sleep(STUB_DELAY_MS / 1000)
            self._reply(200, {"outputs": [{"text": text}]})
        finally:
            with book.lock:
                book.in_flight -= 1


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, book: Book):
        super().__init__(("127.0.0.1", 0), Handler)
        self.book = book


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--book", required=True)
    args = parser.parse_args()
    server = StubServer(Book(args.book))
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
