"""Due-time scheduling, lateness arithmetic and the open-loop timing."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from perfbench import loadgen
from perfbench.inputs import Query


def test_latency_counts_from_the_due_time_and_lateness_is_never_negative():
    assert loadgen.latency_from_due(due=1.0, done=1.0125) == pytest.approx(12.5)
    assert loadgen.lateness(due=2.0, sent=2.004) == pytest.approx(4.0)
    assert loadgen.lateness(due=2.0, sent=1.999) == 0.0


def test_poisson_schedule_is_seeded_sorted_and_bounded():
    first = loadgen.poisson_schedule(500.0, 4.0, np.random.default_rng(3))
    again = loadgen.poisson_schedule(500.0, 4.0, np.random.default_rng(3))
    assert np.array_equal(first, again)
    assert np.all(np.diff(first) > 0) and first[0] > 0 and first[-1] < 4.0
    assert len(first) == pytest.approx(2000, rel=0.1)


def synthetic(due, sent, done, failures=()):
    phase = loadgen.Phase("light", 100.0, 1.0, np.asarray(due), np.zeros(len(due), int))
    phase.sent, phase.done, phase.failures = list(sent), list(done), list(failures)
    return phase


def test_meets_rejects_a_growing_backlog_and_failures():
    due = [i / 100 for i in range(100)]
    steady = synthetic(due, due, [d + 0.002 for d in due])
    assert steady.meets(limit_ms=50)
    # Each send slips 0.2 ms further: every answer is within the limit, but
    # the queue keeps growing.
    sent = [d + 0.0002 * i for i, d in enumerate(due)]
    growing = synthetic(due, sent, [s + 0.002 for s in sent])
    assert max(growing.latencies_ms()) < 50
    assert not growing.meets(limit_ms=50)
    assert not synthetic(due, due, [d + 0.002 for d in due], [(3, "HTTP 503")]).meets(50)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802
        if self.path == "/stall":
            time.sleep(0.2)
        body = b'{"generation": 3}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(5)


def test_a_stall_counts_against_the_requests_it_delays(server):
    queries = [Query("bases", "GET", "/fast"), Query("bases", "GET", "/stall")]
    generator = loadgen.LoadGenerator("127.0.0.1", server.server_address[1], queries,
                                      threads=1, sample={1})
    try:
        qids = [1] + [0] * 399
        phase = generator.run("light", 400.0, 0.5, qids, np.random.default_rng(0))
    finally:
        generator.close()
    assert phase.failed == 0 and phase.attempted > 100
    latencies = phase.latencies_ms()
    # One connection: requests due during the 200 ms stall wait for it, and
    # their latency counts that wait although each is served in ~1 ms.
    assert latencies[0] >= 200
    assert sum(ms >= 100 for ms in latencies) >= 20
    assert max(phase.late_ms()) >= 100
    assert np.median(phase.service_ms()) < 50
    assert phase.first_seen.keys() == {3}
    assert phase.bodies == {1: (200, b'{"generation": 3}')}


def test_proc_probes_read_this_process():
    assert loadgen.peak_rss_mb() > 1.0
    assert loadgen.cpu_seconds(__import__("os").getpid()) > 0.0
