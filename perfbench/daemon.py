"""Start, probe and stop a serving daemon; and the traced daemon launcher.

Every run serves through the real user path, ``repro serve --store S
--port 0`` with every default (one process, the 1,024-entry answer cache,
``verify=full``, the file watch on).  Traced runs start it through this
module, which first puts a traced subclass of
:class:`~repro.serve.ServeApp` in its place: construction runs in a
``serve.boot`` span, ``handle`` in a per-route span and ``maybe_reload`` in
a span recorded whenever the generation changes.  The spans are written
out when the command returns.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import loadgen, spans

#: Route of a request path, as the per-route spans name it.
ROUTES = {"bases": "bases", "derive": "derive", "recommend": "recommend"}


def route_of(path: str) -> str:
    parts = [part for part in path.split("?", 1)[0].split("/") if part]
    if len(parts) == 3 and parts[0] == "bases":
        return "rules"
    return ROUTES.get(parts[0], "other") if len(parts) == 1 else "other"


class Daemon:
    """One serving daemon process, started and health-checked from the benchmark."""

    def __init__(self, root: Path, store: Path, trace_out: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        command = [sys.executable, "-m", "repro.experiments.cli"]
        if trace_out is not None:
            command = [sys.executable, "-m", "perfbench.daemon", "--trace-out", str(trace_out)]
        command += ["serve", "--store", str(store), "--port", "0"]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._read_port()
            self._wait_healthy(started + 120.0)
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn to the first 200 from ``/healthz``.
        self.boot_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_port(self) -> int:
        line = self.process.stdout.readline()
        if " on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        # The rest of stdout is drained so the daemon never blocks on it.
        threading.Thread(target=self.process.stdout.read, daemon=True).start()
        return int(line.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("daemon never became healthy")

    def get(self, path: str) -> tuple[int, dict]:
        """One request on a fresh connection; returns status and JSON body."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        return loadgen.cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return loadgen.peak_rss_mb(self.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


def _serve_traced(argv: list[str], trace_out: Path) -> int:
    """Run ``repro`` with *argv*, its :class:`~repro.serve.ServeApp` traced."""
    import repro.serve
    from repro.experiments import cli

    tracer = spans.Tracer(True)
    requests = itertools.count(1)

    class TracedServeApp(repro.serve.ServeApp):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("serve.boot"):
                super().__init__(*args, **kwargs)

        def handle(self, method, path, params=None, body=None):
            with tracer.span(f"serve.handle.{route_of(path)}", request=next(requests)):
                return super().handle(method, path, params, body)

        def maybe_reload(self) -> None:
            generation, start = self.loaded.generation, time.perf_counter()
            super().maybe_reload()
            if self.loaded.generation != generation:
                tracer.add("serve.reload", start, time.perf_counter())

    # ``repro serve`` imports ServeApp from repro.serve when it runs.
    repro.serve.ServeApp = TracedServeApp
    try:
        return cli.main(argv)
    finally:
        tracer.count("trace.span_cost_s", spans.span_cost_seconds())
        tracer.dump(trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, required=True)
    args, rest = parser.parse_known_args(argv)
    return _serve_traced(rest, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
