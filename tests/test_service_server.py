"""The HTTP layer and the CLI client, over a real socket.

A server on an ephemeral port, driven through urllib and through
``repro query`` — the same path CI's service-smoke job exercises."""

import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.graphs import grid_torus, random_tree, relabel_nodes, ring, to_dict
from repro.service import (
    ResultCache,
    ServiceCore,
    make_server,
    serve_until_shutdown,
)
from repro.service.server import ServiceHTTPServer


@pytest.fixture()
def service():
    core = ServiceCore()
    server = make_server(core)
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_until_shutdown,
        kwargs=dict(server=server, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield url, core
    server.shutdown()
    thread.join(5)


def post(url, path, payload):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.load(resp)


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as resp:
        return resp.status, json.load(resp)


def post_error(url, path, body: bytes):
    request = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)
    raise AssertionError("expected an HTTP error")


class TestEndpoints:
    def test_query_then_isomorphic_hit(self, service):
        url, _core = service
        g = random_tree(10, seed=2)
        status, first = post(url, "/v1/index", {"graph": to_dict(g)})
        assert status == 200 and first["cached"] is False
        perm = list(reversed(range(g.n)))
        status, second = post(url, "/v1/index", to_dict(relabel_nodes(g, perm)))
        assert status == 200 and second["cached"] is True
        assert second["record"] == first["record"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_healthz_and_metrics(self, service):
        url, _core = service
        status, health = get(url, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert "elect" in health["tasks"]
        post(url, "/v1/quotient", to_dict(grid_torus(3, 3)))
        status, metrics = get(url, "/metrics")
        assert status == 200
        assert metrics["misses"] == 1 and metrics["tasks"]["quotient"]

    def test_batch_roundtrip(self, service):
        url, _core = service
        g = random_tree(9, seed=4)
        body = {
            "requests": [
                {"task": "index", "graph": to_dict(g)},
                {"task": "index", "graph": to_dict(g)},
                {"task": "quotient", "graph": to_dict(ring(6))},
            ]
        }
        status, payload = post(url, "/v1/batch", body)
        assert status == 200 and len(payload["results"]) == 3
        assert payload["results"][0]["record"] == payload["results"][1]["record"]

    def test_concurrent_batches_agree(self, service):
        url, _core = service
        g = random_tree(11, seed=6)
        body = {"requests": [{"task": "index", "graph": to_dict(g)}] * 2}
        results = [None] * 4

        def one(i):
            results[i] = post(url, "/v1/batch", body)[1]

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert all(r is not None for r in results)
        records = {
            json.dumps(r["results"][0]["record"], sort_keys=True)
            for r in results
        }
        assert len(records) == 1

    def test_error_mapping(self, service):
        url, _core = service
        # bad JSON -> 400
        code, body = post_error(url, "/v1/index", b"{not json")
        assert code == 400 and body["error"] == "ServiceError"
        # bad graph -> 400
        code, body = post_error(url, "/v1/index", json.dumps({"edges": 1}).encode())
        assert code == 400
        # unknown task route -> 404
        code, body = post_error(
            url, "/v1/messages", json.dumps(to_dict(ring(5))).encode()
        )
        assert code == 404 and "served tasks" in body["detail"]
        # unknown route -> 404 (GET and POST)
        code, _ = post_error(url, "/nope", json.dumps({}).encode())
        assert code == 404
        try:
            get(url, "/nope")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        # infeasible elect -> 422, counted as an error
        code, body = post_error(
            url, "/v1/elect", json.dumps(to_dict(ring(6))).encode()
        )
        assert code == 422 and body["error"] == "InfeasibleGraphError"
        # malformed batch envelopes -> 400
        code, _ = post_error(url, "/v1/batch", json.dumps({"requests": 3}).encode())
        assert code == 400
        code, _ = post_error(url, "/v1/batch", json.dumps({"requests": [5]}).encode())
        assert code == 400
        # batch with a failing task -> 422
        code, body = post_error(
            url,
            "/v1/batch",
            json.dumps(
                {"requests": [{"task": "elect", "graph": to_dict(ring(6))}]}
            ).encode(),
        )
        assert code == 422
        # empty body -> 400
        code, _ = post_error(url, "/v1/index", b"")
        assert code == 400
        _status, metrics = get(url, "/metrics")
        assert metrics["errors"] == 2

    def test_non_numeric_content_length_gets_a_400(self, service):
        """A garbage Content-Length must produce a JSON 400, not a dead
        connection (regression: uncaught ValueError in the handler)."""
        import http.client

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.load(resp)["error"] == "ServiceError"
        finally:
            conn.close()

    def test_chunked_request_gets_a_411_naming_the_problem(self, service):
        """A chunked request has no Content-Length; it used to fall into
        the empty-body branch and get the misleading "body must be a
        JSON document".  It must get a 411 that names the actual problem
        (regression)."""
        import http.client

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b"2\r\n{}\r\n0\r\n\r\n")
            resp = conn.getresponse()
            assert resp.status == 411
            body = json.load(resp)
            assert body["error"] == "ServiceError"
            assert "chunked" in body["detail"]
            assert "Content-Length" in body["detail"]
            assert resp.will_close  # the chunked body was never consumed
        finally:
            conn.close()

    def test_oversized_body_rejection_closes_the_connection(self, service):
        """Rejecting a body without consuming it must not leave its bytes
        to desynchronize a keep-alive connection (regression)."""
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        url, _core = service
        host, port = url[len("http://") :].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/index")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "exceeds" in json.load(resp)["detail"]
            assert resp.will_close  # server closed: nothing left to parse
        finally:
            conn.close()


class _CountingSocket(socket.socket):
    """An accepted connection that records each socket write, with the
    TCP_NODELAY flag the write went out under."""

    def _record(self, data):
        nodelay = self.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        self.writes.append((len(data), bool(nodelay)))

    def sendall(self, data, *args):
        self._record(data)
        return super().sendall(data, *args)

    def send(self, data, *args):
        self._record(data)
        return super().send(data, *args)


class _CountingServer(ServiceHTTPServer):
    """Hands every handler a :class:`_CountingSocket` over the accepted
    file descriptor, shared as ``self.writes``."""

    def __init__(self, core):
        super().__init__(("127.0.0.1", 0), core)
        self.writes = []

    def get_request(self):
        sock, addr = super().get_request()
        counted = _CountingSocket(
            sock.family, sock.type, sock.proto, fileno=sock.detach()
        )
        counted.writes = self.writes
        return counted, addr


@pytest.fixture()
def counting_service():
    server = _CountingServer(ServiceCore())
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_until_shutdown,
        kwargs=dict(server=server, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(5)
    yield server
    server.shutdown()
    thread.join(5)


def _exchange(port, method, path, body=None, headers=()):
    """One request on a fresh connection; returns (status, headers,
    body) once the whole response is read."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.putrequest(method, path)
        for key, value in headers:
            conn.putheader(key, value)
        if body is not None:
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if body is not None:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, resp.getheaders(), resp.read()
    finally:
        conn.close()


class TestOneSegmentPerResponse:
    """Every response leaves in one write on a NODELAY socket: a reply
    split into headers and body meets Nagle's algorithm and the client's
    delayed ACK, ~40 ms per keep-alive request."""

    def test_every_response_is_one_socket_write(self, counting_service):
        server = counting_service
        port = server.server_address[1]
        graph = json.dumps(to_dict(random_tree(10, seed=2))).encode()
        infeasible = json.dumps(to_dict(ring(6))).encode()
        batch = json.dumps(
            {"requests": [{"task": "index", "graph": json.loads(graph)}]}
        ).encode()
        cases = [
            ("elect 200", 200, "POST", "/v1/elect", graph, ()),
            ("bad JSON", 400, "POST", "/v1/index", b"{not json", ()),
            ("unknown route", 404, "POST", "/nope", b"{}", ()),
            (
                "chunked",
                411,
                "POST",
                "/v1/index",
                None,
                (("Transfer-Encoding", "chunked"),),
            ),
            ("infeasible", 422, "POST", "/v1/elect", infeasible, ()),
            ("batch", 200, "POST", "/v1/batch", batch, ()),
            ("healthz", 200, "GET", "/healthz", None, ()),
            ("metrics JSON", 200, "GET", "/metrics", None, ()),
            (
                "metrics Prometheus",
                200,
                "GET",
                "/metrics",
                None,
                (("Accept", "text/plain"),),
            ),
        ]
        for label, status, method, path, body, headers in cases:
            del server.writes[:]
            got, _headers, payload = _exchange(port, method, path, body, headers)
            assert got == status, label
            assert payload, label
            assert len(server.writes) == 1, (label, server.writes)
            ((size, nodelay),) = server.writes
            assert size > len(payload), label  # head and body together
            assert nodelay, label

    def test_close_is_announced_on_every_content_type(self, service):
        """A request that asks to close gets ``Connection: close`` back
        on JSON and Prometheus bodies alike."""
        url, _core = service
        port = int(url.rsplit(":", 1)[1])
        for headers in (
            (("Connection", "close"),),
            (("Connection", "close"), ("Accept", "text/plain")),
        ):
            status, got, _body = _exchange(port, "GET", "/metrics", None, headers)
            assert status == 200
            assert dict(got).get("Connection") == "close", headers

    def test_expect_100_continue_is_answered_before_the_body(self, service):
        """The interim ``100 Continue`` must leave at once, not sit in a
        buffer while the server blocks reading the body."""
        url, _core = service
        port = int(url.rsplit(":", 1)[1])
        body = json.dumps(to_dict(random_tree(10, seed=2))).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=2)
        try:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/index HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Expect: 100-continue\r\n\r\n"
            )
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            assert reader.readline().startswith(b"HTTP/1.1 200 ")
            length = None
            while True:
                line = reader.readline()
                if line == b"\r\n":
                    break
                key, _, value = line.decode("latin-1").partition(":")
                if key.lower() == "content-length":
                    length = int(value)
            assert json.loads(reader.read(length))["cached"] is False
        finally:
            sock.close()

    def test_warm_keep_alive_queries_are_not_delayed(self, service):
        """40 sequential warm queries on one keep-alive connection: the
        median must be far below the ~40 ms delayed-ACK stall."""
        url, _core = service
        port = int(url.rsplit(":", 1)[1])
        body = json.dumps(to_dict(random_tree(10, seed=2))).encode()
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/v1/index", body, headers)
            assert json.load(conn.getresponse())["cached"] is False
            latencies = []
            for _ in range(40):
                start = time.perf_counter()
                conn.request("POST", "/v1/index", body, headers)
                resp = conn.getresponse()
                assert json.load(resp)["cached"] is True
                latencies.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.015, latencies


class TestSignalHandlers:
    def test_serve_until_shutdown_restores_previous_handlers(self):
        """Embedding the server must not permanently hijack SIGTERM and
        SIGINT: whatever handlers were installed before the accept loop
        must be back after it exits (regression: the handlers leaked)."""
        import signal

        def custom_handler(signum, frame):  # pragma: no cover - never fired
            pass

        previous_term = signal.signal(signal.SIGTERM, custom_handler)
        previous_int = signal.signal(signal.SIGINT, custom_handler)
        try:
            server = make_server(ServiceCore())
            stopper = threading.Timer(0.3, server.shutdown)
            stopper.start()
            # main thread, so the handlers really are installed
            serve_until_shutdown(server, install_signal_handlers=True)
            stopper.join(5)
            assert signal.getsignal(signal.SIGTERM) is custom_handler
            assert signal.getsignal(signal.SIGINT) is custom_handler
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)

    def test_no_handlers_touched_off_main_thread(self):
        """The worker-thread path (the tests' own fixture) must leave
        the process signal table alone entirely."""
        import signal

        before = (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
        )
        server = make_server(ServiceCore())
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_until_shutdown,
            kwargs=dict(
                server=server, install_signal_handlers=True, ready=ready
            ),
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        server.shutdown()
        thread.join(5)
        assert (
            signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
        ) == before


class TestShardedServer:
    def test_sharded_server_answers_and_reports_health(self):
        """End to end over a socket with shards=2: answers byte-identical
        to a single-process server, /healthz reports live shards."""
        cores = [ServiceCore(shards=2), ServiceCore()]
        servers = [make_server(core) for core in cores]
        threads = []
        try:
            for server in servers:
                ready = threading.Event()
                thread = threading.Thread(
                    target=serve_until_shutdown,
                    kwargs=dict(server=server, ready=ready),
                    daemon=True,
                )
                thread.start()
                assert ready.wait(5)
                threads.append(thread)
            urls = [
                f"http://127.0.0.1:{server.server_address[1]}"
                for server in servers
            ]
            g = random_tree(11, seed=13)
            payloads = [
                post(url, "/v1/elect", to_dict(g))[1] for url in urls
            ]
            assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
                payloads[1], sort_keys=True
            )
            _status, health = get(urls[0], "/healthz")
            assert health["shards"] == 2
            assert health["shards_alive"] == [True, True]
            _status, single_health = get(urls[1], "/healthz")
            assert single_health["shards"] == 0
            assert single_health["shards_alive"] == []
            # a 422 maps identically through a shard worker
            code, body = post_error(
                urls[0], "/v1/elect", json.dumps(to_dict(ring(6))).encode()
            )
            assert code == 422 and body["error"] == "InfeasibleGraphError"
        finally:
            for server in servers:
                server.shutdown()
            for thread in threads:
                thread.join(5)


class TestPersistenceAcrossRestart:
    def test_restart_serves_warm(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        g = random_tree(10, seed=5)

        core = ServiceCore(ResultCache(path=path))
        first = core.query("elect", g)
        assert not first.cached
        core.close()

        core = ServiceCore(ResultCache(path=path))
        second = core.query("elect", relabel_nodes(g, list(reversed(range(g.n)))))
        assert second.cached and second.record == first.record
        core.close()


class TestCLIClient:
    def test_query_roundtrip(self, service, tmp_path, capsys):
        url, _core = service
        g = random_tree(8, seed=7)
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps({"name": "g", "graph": to_dict(g)}))
        assert cli_main(["query", "index", f"@{spec}", "--url", url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["feasible"] is True
        assert cli_main(
            ["query", "index", f"@{spec}", "--url", url, "--record"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == payload["record"]

    def test_query_stdin(self, service, capsys, monkeypatch):
        url, _core = service
        g = random_tree(8, seed=7)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(to_dict(g)) + "\n")
        )
        assert cli_main(["query", "quotient", "-", "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["task"] == "quotient"

    def test_query_service_rejection_exits_2(self, service, capsys):
        url, _core = service
        spec = to_dict(ring(6))
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            json.dump(spec, fh)
        try:
            code = cli_main(["query", "elect", f"@{fh.name}", "--url", url])
        finally:
            os.unlink(fh.name)
        assert code == 2
        assert "InfeasibleGraphError" in capsys.readouterr().err

    def test_query_unreachable_exits_2(self, capsys):
        code = cli_main(
            ["query", "index", "ring:5", "--url", "http://127.0.0.1:1",
             "--timeout", "2"]
        )
        assert code == 2
        assert "no service reachable" in capsys.readouterr().err


class TestServeCommand:
    def test_warm_requires_warm_corpus(self, capsys):
        assert cli_main(["serve", "--warm", "store.jsonl"]) == 2
        assert "--warm-corpus" in capsys.readouterr().err

    def test_warm_corpus_requires_warm(self, capsys):
        assert cli_main(["serve", "--warm-corpus", "lifts:2"]) == 2
        assert "no effect without --warm" in capsys.readouterr().err

    def test_full_serve_path(self, tmp_path, monkeypatch, capsys):
        """`repro serve` end to end: warm from a store, answer a warmed
        query over HTTP, shut down cleanly, persist the cache."""
        import repro.service as svc
        from repro.engine import ResultStore, run_stream

        corpus = list(
            __import__("repro.corpus", fromlist=["get_family"])
            .get_family("random-trees")
            .generate(2, seed=1)
        )
        store = tmp_path / "store.jsonl"
        with ResultStore(str(store)) as s:
            for record in run_stream(iter(corpus), "index"):
                s.append(record)

        captured = {}
        real_make = svc.make_server

        def grab(core, host="127.0.0.1", port=0):
            captured["server"] = real_make(core, host=host, port=port)
            return captured["server"]

        monkeypatch.setattr(svc, "make_server", grab)
        cache = tmp_path / "cache.jsonl"
        exit_code = {}
        thread = threading.Thread(
            target=lambda: exit_code.setdefault(
                "code",
                cli_main(
                    ["serve", "--port", "0", "--cache", str(cache),
                     "--warm", str(store),
                     "--warm-corpus", "random-trees:2,seed=1"]
                ),
            ),
            daemon=True,
        )
        thread.start()
        for _ in range(100):
            if "server" in captured:
                break
            import time

            time.sleep(0.05)
        server = captured["server"]
        url = f"http://127.0.0.1:{server.server_address[1]}"
        _status, health = get(url, "/healthz")
        assert health["cache"]["persisted_entries"] == 2  # the warm set
        _status, payload = post(
            url, "/v1/index", to_dict(corpus[0][1])
        )
        assert payload["cached"] is True  # served from the warmed cache
        server.shutdown()
        thread.join(10)
        assert exit_code["code"] == 0
        out = capsys.readouterr().out
        assert "warm: 2 entries" in out
        assert "entries persisted" in out
        assert cache.exists()


class TestGraphSpecUX:
    def test_spec_accepts_emit_envelope_file(self, tmp_path, capsys):
        g = random_tree(9, seed=1)
        spec = tmp_path / "g.jsonl"
        spec.write_text(json.dumps({"name": "g", "graph": to_dict(g)}) + "\n")
        assert cli_main(["index", f"@{spec}"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_spec_stdin_plain_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(to_dict(random_tree(9, seed=1))))
        )
        assert cli_main(["index", "-"]) == 0

    def test_spec_stdin_invalid(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("garbage"))
        assert cli_main(["index", "-"]) == 2
        assert "not valid graph JSON" in capsys.readouterr().err

    def test_single_graph_file_keeps_legacy_entry_name(self, tmp_path):
        """`sweep --corpus @g.json` must keep keying its record by the
        historical name `@<path>` (one- or multi-line single graph), so
        stores written before the JSONL stream existed stay resumable."""
        import json as _json

        from repro.cli import open_corpus_stream
        from repro.graphs import to_dict, to_json

        g = random_tree(7, seed=2)
        one_line = tmp_path / "one.json"
        one_line.write_text(to_json(g) + "\n")
        pretty = tmp_path / "pretty.json"
        pretty.write_text(_json.dumps(to_dict(g), indent=2))
        for path in (one_line, pretty):
            stream, _hint = open_corpus_stream(f"@{path}")
            entries = list(stream)
            assert entries == [(f"@{path}", g)]
        # several plain graphs are a stream, named by line
        many = tmp_path / "many.jsonl"
        many.write_text(to_json(g) + "\n" + to_json(ring(5)) + "\n")
        stream, _hint = open_corpus_stream(f"@{many}")
        assert [name for name, _g in stream] == [
            f"{many}:1", f"{many}:2"
        ]

    def test_sweep_consumes_emitted_corpus(self, tmp_path, capsys):
        out = tmp_path / "emitted.jsonl"
        assert cli_main(
            ["corpus", "emit", "random-trees:3,seed=4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        store = tmp_path / "store.jsonl"
        assert cli_main(
            ["sweep", "--corpus", f"@{out}", "--task", "index",
             "--out", str(store)]
        ) == 0
        records = [json.loads(l) for l in open(store) if l.strip()]
        assert len(records) == 3
        assert all(r["name"].startswith("random-trees-s4-") for r in records)
