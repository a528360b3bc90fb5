"""The service workloads: a ``repro serve`` subprocess driven over HTTP,
and the in-process replay the traced run uses.

Load is a closed loop: two client threads, each on one keep-alive
HTTP/1.1 connection, take the next request of the generated sequence
only after their previous one completed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.spans import Recorder

CLIENTS = 2
SERVER_ARGS = ("--shards", "2", "--capacity", "32")
BOOT_TIMEOUT_S = 60.0

#: (generated graph index, task, request body)
Request = Tuple[int, str, bytes]
#: (HTTP status, response body, latency seconds)
Reply = Tuple[int, bytes, float]


class Server:
    """One ``repro serve`` process on a free port with a fresh warehouse
    cache; ``boot_s`` runs from spawning it to its first healthy
    ``GET /healthz``."""

    def __init__(self, env: Dict[str, str], cache_path: str, log_path: str):
        start = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache", cache_path, *SERVER_ARGS],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        try:
            self.port = self._read_port(start + BOOT_TIMEOUT_S)
            self._wait_healthy(start + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        while True:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter())
            )
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line:
                raise RuntimeError("repro serve exited or hung before serving")
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (a clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.proc.stdout.close()
        self._log.close()


def closed_loop(requests: List[Request], send) -> Tuple[List[Reply], float]:
    """Run ``requests`` through :data:`CLIENTS` threads; each thread makes
    its own sender with ``send()`` and calls it with each request's index,
    task and body.  Returns the replies in request order and the wall
    time."""
    replies: List[Optional[Reply]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    errors: List[BaseException] = []

    def client() -> None:
        try:
            one = send()
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                _, task, body = requests[i]
                t0 = time.perf_counter()
                status, payload = one(i, task, body)
                replies[i] = (status, payload, time.perf_counter() - t0)
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return replies, wall


def http_sender(port: int):
    """A sender factory: one keep-alive connection per client thread; a
    transport error counts as status 0 and reconnects."""

    def make():
        state = {"conn": http.client.HTTPConnection("127.0.0.1", port, timeout=120)}

        def one(i: int, task: str, body: bytes) -> Tuple[int, bytes]:
            conn = state["conn"]
            try:
                conn.request("POST", f"/v1/{task}", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                state["conn"] = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=120
                )
                return 0, repr(exc).encode()

        return one

    return make


def inprocess_replay(
    requests: List[Request], cache_path: str, rec: Optional[Recorder] = None
) -> Tuple[List[Reply], float]:
    """The same request sequence against an in-process ``ServiceCore``
    with the server's settings: body decode and graph parse, then the
    query — everything ``repro serve`` does except HTTP.  With ``rec``,
    each request is a ``bench.request`` span whose request id is the
    request's index."""
    from repro.service import ResultCache, ServiceCore
    from repro.service.api import parse_graph_payload

    core = ServiceCore(ResultCache(path=cache_path, capacity=32), shards=2)
    try:
        def make():
            def one(i: int, task: str, body: bytes) -> Tuple[int, bytes]:
                if rec is None:
                    graph = parse_graph_payload(json.loads(body))
                    core.query(task, graph)
                    return 200, b""
                rec.request = str(i)
                with rec.span("bench.request"):
                    with rec.span("service.api.parse"):
                        graph = parse_graph_payload(json.loads(body))
                    core.query(task, graph)
                return 200, b""

            return one

        return closed_loop(requests, make)
    finally:
        core.close()


def check(requests: List[Request], replies: List[Reply]) -> int:
    """Failed requests: a non-200 reply; a fingerprint that differs
    between relabelings of one generated graph; a record that differs
    between replies for one ``(fingerprint, task)``; or a cold reply
    whose record is not byte-identical to the offline engine record on
    the canonical graph (rebuilt through the reply's ``to_canonical``)."""
    from repro.engine import EngineConfig, record_to_json, run_stream
    from repro.graphs.serialization import from_payload, to_json

    failed = 0
    fingerprint_of: Dict[int, str] = {}
    record_of: Dict[Tuple[str, str], str] = {}
    cold: Dict[str, List[Tuple[str, object, str]]] = {}
    for (k, task, body), (status, payload, _) in zip(requests, replies):
        if status != 200:
            failed += 1
            continue
        reply = json.loads(payload)
        fp = reply["fingerprint"]
        record = record_to_json(reply["record"])
        if fingerprint_of.setdefault(k, fp) != fp or (
            record_of.setdefault((fp, task), record) != record
        ):
            failed += 1
            continue
        if not reply["cached"]:
            graph = json.loads(body)
            perm = reply["to_canonical"]
            canon = from_payload({
                "n": graph["n"],
                "edges": [[perm[u], p, perm[v], q]
                          for u, p, v, q in graph["edges"]],
            })
            if hashlib.sha256(to_json(canon).encode()).hexdigest() != fp:
                failed += 1
                continue
            cold.setdefault(task, []).append((reply["name"], canon, record))
    for task, items in cold.items():
        offline = run_stream(
            ((name, g) for name, g, _ in items), task, EngineConfig(workers=2)
        )
        for (_, _, served), record in zip(items, offline):
            failed += record_to_json(record) != served
    return failed


def run_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env
