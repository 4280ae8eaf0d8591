"""Loopback OpenAI-compatible server for the ``remote-loopback`` workload.

Run as its own process (``python3 perfbench/loopback.py --trigger-prob 0.8``)
so its CPU does not contend with the client for one interpreter lock.  It
serves ``/v1/completions`` with the test stub's ``_serve_completion`` over
the overthinking toy model and keeps server-side counts: requests, prompt
bytes, busy time, probe (``logprobs``) and masked (``logit_bias``) requests,
and every non-200 reply with its reason.  ``GET /stats`` returns them;
``POST /trace`` with ``{"on": true}`` also times the stub's sampling calls and
checks each masked request for nonzero trigger mass.  The first line it
prints is its port.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Stub functions timed in the traced run: the server-side sampling layer.
SAMPLING_FUNCTIONS = ("distribution_to_logits", "softmax", "nucleus_filter")


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.data = {
            "requests": 0,
            "prompt_bytes": 0,
            "busy_ns": 0,
            "logprob_requests": 0,
            "bias_requests": 0,
            "bias_requests_with_trigger_mass": 0,
            "non_200": 0,
            "errors": [],
            "sampling": {name: [0, 0] for name in SAMPLING_FUNCTIONS},  # calls, ns
        }


def _timed(stats: _Stats, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            with stats.lock:
                entry = stats.data["sampling"][name]
                entry[0] += 1
                entry[1] += dt

    return wrapper


def serve(trigger_prob: float) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import remote_stub
    from cgrs import ToyBackend, overthinking_spec

    backend = ToyBackend(overthinking_spec(trigger_prob))
    originals = {name: getattr(remote_stub, name) for name in SAMPLING_FUNCTIONS}
    stats = _Stats()
    tracing = {"on": False}

    def set_trace(on: bool) -> None:
        for name, fn in originals.items():
            setattr(remote_stub, name, _timed(stats, name, fn) if on else fn)
        tracing["on"] = on

    def trigger_mass(payload: dict) -> float:
        ids = [int(i) for i in payload["logit_bias"]]
        ctx = backend.vocabulary.encode(payload["prompt"])
        return float(backend.next_distribution(ctx).probs[ids].sum())

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as a real inference server
        disable_nagle_algorithm = True  # headers and body go out as separate writes

        def log_message(self, *args):
            pass

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b"{}")
                return
            with stats.lock:
                body = json.dumps(stats.data).encode()
            self._reply(200, body)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/trace":
                set_trace(bool(json.loads(raw)["on"]))
                self._reply(200, b"{}")
                return
            t0 = time.perf_counter_ns()
            status = 200
            try:
                if self.path != "/v1/completions":
                    raise LookupError(f"unknown path {self.path}")
                payload = json.loads(raw)
                body = json.dumps(remote_stub._serve_completion(backend, payload)).encode()
            except Exception as exc:  # reported to the client and kept as a reason
                status = 500
                payload = {}
                body = json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode()
            self._reply(status, body)
            busy = time.perf_counter_ns() - t0
            masked_with_mass = (
                tracing["on"] and payload.get("logit_bias") and trigger_mass(payload) > 0.0
            )
            with stats.lock:
                d = stats.data
                d["requests"] += 1
                d["busy_ns"] += busy
                d["prompt_bytes"] += len(str(payload.get("prompt", "")).encode())
                d["logprob_requests"] += bool(payload.get("logprobs"))
                d["bias_requests"] += bool(payload.get("logit_bias"))
                d["bias_requests_with_trigger_mass"] += bool(masked_with_mass)
                if status != 200:
                    d["non_200"] += 1
                    if len(d["errors"]) < 20:
                        d["errors"].append(body.decode()[:200])

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # stop when the client closes our stdin, or dies without closing it
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(server.server_port, flush=True)
    server.serve_forever()
    server.server_close()


class LoopbackServer:
    """Client-side handle: starts the server process, reads its stats, stops it."""

    def __init__(self, trigger_prob: float):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--trigger-prob", str(trigger_prob)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError(f"loopback server failed to start (printed {line!r})")
        self.url = f"http://127.0.0.1:{line}"

    def _call(self, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        with urllib.request.urlopen(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def set_trace(self, on: bool) -> None:
        self._call("/trace", {"on": on})

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(timeout=10)
        self._proc.stdout.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trigger-prob", type=float, required=True)
    serve(parser.parse_args().trigger_prob)
