"""In-process OpenAI-compatible completions server backed by a toy model.

Serves POST /v1/completions with the request fields the remote client uses
(prompt, max_tokens, temperature, top_p, logprobs, logit_bias, stop, seed) so
wire-format behavior is testable without a real endpoint.  ``logit_bias``
adds to the model logits before sampling, matching server conventions where
-100 effectively bans a token; ``top_logprobs`` report the post-bias model
distribution.

Fault injection: the first ``fail_first`` requests get the ``fault`` instead
of a normal reply.  ``"http_500"`` answers with a server error,
``"non_json"`` with a 200 whose body is not JSON, ``"multi_token"`` with a
completion that ignores ``max_tokens`` and returns one token more than asked,
``"list_text"`` with a completion whose ``text`` is a list, not a string,
``"timeout"`` with a normal reply sent only after ``TIMEOUT_FAULT_DELAY_S``
seconds, so a client whose timeout is shorter gives up first, and
``"truncated"`` with a normal reply cut off after half its ``Content-Length``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from cgrs.backend import ToyBackend, ToyModelSpec
from cgrs.sampling import distribution_to_logits, nucleus_filter, softmax


def _serve_completion(backend: ToyBackend, payload: dict) -> dict:
    vocab = backend.vocabulary
    ctx = vocab.encode(payload["prompt"])
    max_tokens = int(payload.get("max_tokens", 16))
    temperature = float(payload.get("temperature", 1.0))
    top_p = float(payload.get("top_p", 1.0))
    k = payload.get("logprobs")
    bias = {int(i): float(b) for i, b in (payload.get("logit_bias") or {}).items()}
    stops = payload.get("stop") or []
    rng = np.random.default_rng(int(payload.get("seed", 0)))

    tokens: list[str] = []
    token_logprobs: list[float] = []
    top_logprobs: list[dict[str, float]] = []
    text = ""
    finish_reason = "length"
    for _ in range(max_tokens):
        logits = distribution_to_logits(backend.next_distribution(ctx).probs)
        for token_id, b in bias.items():
            logits[token_id] += b
        model_probs = softmax(logits)
        if temperature == 0.0:
            token = int(np.argmax(logits))
        else:
            probs = nucleus_filter(softmax(logits / temperature), top_p)
            token = int(rng.choice(len(probs), p=probs))
        if token == backend.eos_token_id:
            finish_reason = "stop"
            break
        surface = vocab.id_to_token[token]
        if k:
            order = np.argsort(-model_probs, kind="stable")[: int(k)]
            top_logprobs.append(
                {
                    vocab.id_to_token[int(i)]: float(np.log(model_probs[int(i)]))
                    for i in order
                    if model_probs[int(i)] > 0.0
                }
            )
            token_logprobs.append(float(np.log(max(model_probs[token], 1e-300))))
            tokens.append(surface)
        ctx.append(token)
        text += surface
        hit = min((h for h in (text.find(s) for s in stops) if h != -1), default=-1)
        if hit != -1:
            text = text[:hit]
            finish_reason = "stop"
            break
    choice = {"text": text, "index": 0, "finish_reason": finish_reason}
    if k:
        choice["logprobs"] = {
            "tokens": tokens,
            "token_logprobs": token_logprobs,
            "top_logprobs": top_logprobs,
        }
    return {"object": "text_completion", "choices": [choice]}


FAULTS = ("http_500", "non_json", "multi_token", "list_text", "timeout", "truncated")

#: How long a ``"timeout"`` fault holds its reply; clients under test use less.
TIMEOUT_FAULT_DELAY_S = 1.0


def _make_handler(backend: ToyBackend, fail_first: int, fault: str):
    state = {"failures_left": fail_first}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep test output clean
            pass

        def do_POST(self):
            if self.path != "/v1/completions":
                self.send_error(404)
                return
            with lock:
                faulty = state["failures_left"] > 0
                if faulty:
                    state["failures_left"] -= 1
            if faulty and fault == "http_500":
                self.send_error(500, "transient failure")
                return
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            if faulty and fault == "multi_token":
                payload["max_tokens"] = int(payload.get("max_tokens", 16)) + 1
            if faulty and fault == "non_json":
                body, content_type = b"<html>502 Bad Gateway</html>", "text/html"
            else:
                reply = _serve_completion(backend, payload)
                if faulty and fault == "list_text":
                    reply["choices"][0]["text"] = [reply["choices"][0]["text"]]
                body = json.dumps(reply).encode()
                content_type = "application/json"
            if faulty and fault == "timeout":
                time.sleep(TIMEOUT_FAULT_DELAY_S)
            try:
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if faulty and fault == "truncated":
                    body = body[: len(body) // 2]
                self.wfile.write(body)
            except OSError:
                pass  # the client gave up on a delayed reply and closed the socket

    return Handler


@contextmanager
def toy_completion_server(spec: ToyModelSpec, fail_first: int = 0, fault: str = "http_500"):
    """Yield (base_url, toy_backend) for a live stub server."""
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; expected one of {FAULTS}")
    backend = ToyBackend(spec)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(backend, fail_first, fault))
    # a short poll interval lets shutdown() return in ~10 ms instead of 0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", backend
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
