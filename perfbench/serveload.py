"""Load generator for the ``serve-mix`` workload.

Requests are pre-encoded before any clock starts: each distinct request
body is JSON-encoded once, and a send writes a short ``{"id": ...,``
prefix followed by the shared body bytes, so the client spends no time
in the JSON encoder while the server is under load.

Two phases share one pair of connections:

* **open loop** — requests are due at a fixed rate, independent of the
  replies; latency is timed from each request's *due* time, so a stall
  also charges the requests queued behind it, and the sender records how
  late it actually sent;
* **closed loop** — each connection keeps a fixed window of requests
  outstanding and sends the next one as soon as a reply arrives.

Every request carries a server-side ``timeout``, and the client gives up
on a request ``deadline_s`` after it was due: an unanswered request is
counted as failed and the run still ends.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import SERVE


@dataclass
class Request:
    rid: int
    kind: str  # "hot" | "cold" | "large"
    space: int
    seed: int
    body: bytes  # the encoded request after its opening brace
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None

    def line_prefix(self) -> bytes:
        return b'{"id":"%d",' % self.rid


def encode_bodies(spaces: dict, large_paths: list[str]) -> dict:
    """One pre-encoded body per distinct (kind, space, seed)."""
    s = SERVE
    bodies = {}

    def body(payload: dict) -> bytes:
        return json.dumps(payload, separators=(",", ":")).encode()[1:] + b"\n"

    small = [("hot", 0, spaces["hot"])] + [
        ("cold", j, rows) for j, rows in enumerate(spaces["cold"])
    ]
    for kind, j, rows in small:
        points = rows.tolist()
        for seed in range(s["small_seeds"]):
            bodies[kind, j, seed] = body({
                "algo": "gon", "k": s["k_small"], "points": points,
                "seed": seed, "timeout": s["timeout_s"],
            })
    for j, path in enumerate(large_paths):
        for seed in range(s["large_seeds"]):
            bodies["large", j, seed] = body({
                "algo": "mrg", "k": s["k_large"], "data": path, "seed": seed,
                "options": {"m": s["m_large"]}, "timeout": s["timeout_s"],
            })
    return bodies


def request_stream(seed: int, phase: int, bodies: dict, first_id: int):
    """An endless, seed-determined sequence of mixed requests.

    Large requests sit at fixed positions, so every seed puts the same
    load on the server; the seed picks the spaces and solver seeds.
    """
    s = SERVE
    rng = np.random.default_rng([seed, 23, phase])
    rid, cold = first_id, 0
    while True:
        if rid % s["large_every"] == s["large_every"] - 1:
            key = ("large", int(rng.integers(s["large_spaces"])),
                   int(rng.integers(s["large_seeds"])))
        elif rng.random() < s["hot_share"]:
            key = ("hot", 0, int(rng.integers(s["small_seeds"])))
        else:
            key = ("cold", cold % s["cold_spaces"], int(rng.integers(s["small_seeds"])))
            cold += 1
        yield Request(rid, *key, body=bodies[key])
        rid += 1


class Connection:
    """One pipelined NDJSON connection; a reader thread matches replies."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A server that stops reading fails the send within the deadline.
        self.sock.settimeout(SERVE["deadline_s"])
        self.pending: dict[str, Request] = {}
        self.lock = threading.Lock()
        self.on_reply = None  # called with each completed Request
        self.closing = threading.Event()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def send(self, req: Request) -> None:
        with self.lock:
            self.pending[str(req.rid)] = req
        req.sent = time.perf_counter()
        self.sock.sendall(req.line_prefix())
        self.sock.sendall(req.body)

    def _read(self) -> None:
        buf = bytearray()
        while not self.closing.is_set():
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError:  # closed under us by close()
                return
            if not chunk:
                return
            buf += chunk
            while True:
                nl = buf.find(b"\n")
                if nl < 0:
                    break
                line = bytes(buf[:nl])
                del buf[: nl + 1]
                self._dispatch(json.loads(line))

    def _dispatch(self, msg: dict) -> None:
        now = time.perf_counter()
        with self.lock:
            req = self.pending.pop(msg.get("id"), None)
        if req is None:
            return
        req.done = now
        req.response = msg
        callback = self.on_reply
        if callback is not None:
            callback(req)

    def outstanding(self) -> int:
        with self.lock:
            return len(self.pending)

    def close(self) -> None:
        self.closing.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes the reader's recv
        except OSError:
            pass
        self.reader.join(timeout=5.0)
        self.sock.close()


def _wait_drained(conns, requests, deadline_s: float) -> None:
    """Wait until every request is answered or past its client deadline."""
    while any(c.outstanding() for c in conns):
        now = time.perf_counter()
        if all(r.done or now > r.due + deadline_s for r in requests):
            return
        time.sleep(0.01)


def open_loop(conns, stream, rate: float, seconds: float) -> list[Request]:
    """Send at a fixed rate for ``seconds``, round-robin over ``conns``."""
    count = max(1, int(rate * seconds))
    requests = [next(stream) for _ in range(count)]
    start = time.perf_counter() + 0.05
    for i, req in enumerate(requests):
        req.due = start + i / rate

    def sender(conn, lane):
        for req in lane:
            delay = req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                conn.send(req)
            except OSError:
                return  # the rest of the lane misses its deadline

    lanes = [requests[i :: len(conns)] for i in range(len(conns))]
    threads = [
        threading.Thread(target=sender, args=(conn, lane))
        for conn, lane in zip(conns, lanes)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _wait_drained(conns, requests, SERVE["deadline_s"])
    return requests


def closed_loop(conns, stream, window: int, seconds: float):
    """Keep ``window`` requests outstanding per connection for ``seconds``.

    Returns ``(requests, start, end)``; throughput counts the replies
    that arrived inside ``[start, end]``.
    """
    requests: list[Request] = []
    stop = threading.Event()
    draw = threading.Lock()  # the stream is one generator shared by lanes

    def lane(conn):
        slots = threading.Semaphore(window)
        conn.on_reply = lambda _req: slots.release()
        while not stop.is_set():
            if not slots.acquire(timeout=0.05):
                continue
            if stop.is_set():
                break
            with draw:
                req = next(stream)
                requests.append(req)
            req.due = time.perf_counter()
            try:
                conn.send(req)
            except OSError:
                return

    start = time.perf_counter()
    threads = [threading.Thread(target=lane, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    time.sleep(seconds)
    end = time.perf_counter()
    stop.set()
    for t in threads:
        t.join()
    for c in conns:
        c.on_reply = None
    _wait_drained(conns, requests, SERVE["deadline_s"])
    return requests, start, end
