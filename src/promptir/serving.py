"""Frozen-backbone encoding service over HTTP/1.1 with JSON bodies.

The backbone loads once and never changes for the process lifetime; its
fingerprint is echoed in every response. Clients either register a prompt
set (encoder.prefix_kv projects its per-layer prefix key/value tensors
once, at registration) and encode by prompt_id, or ship the prompt set
inline with each request. The registry keeps only the projected prefixes,
{"query": prefix, "passage": prefix} per prompt_id, a shared set's one
prefix under both keys; the prompt set itself is dropped. Nothing requires
a gradient, so the prefixes carry no tape; tests/test_serving.py checks
served vectors against encode().

Endpoints:
    GET    /health          -> {"status": "ok", "fingerprint": ...}
    GET    /model           -> {"config": {...}, "fingerprint": ...}
    POST   /prompts         -> prompt-set file JSON -> {"prompt_id": ...}
    DELETE /prompts/<id>    -> {"prompt_id": ...}; the id then gets 404
    POST   /encode          -> EncodeRequest -> EncodeResponse

EncodeRequest: exactly one of {"prompt_id", "inline_prompt"}; exactly one
of {"text", "token_ids"}; optional "role" in {"query", "passage"} (default
"query") and "precision" in {"f32", "f64"} (default "f32"). The response
vector is a JSON number array at the requested precision; with
``Accept: application/octet-stream`` the body is instead the raw
little-endian float32 array (so "precision", if given, must be "f32")
and metadata moves into response headers.

Errors are JSON {"code", "message", "detail"} with 4xx status codes. A
body that is not a JSON object, a field of the wrong JSON type, or a
Content-Length that is not a non-negative integer, gets 400 bad_request
(an inline_prompt that is not a prompt-set object gets 400 bad_promptset,
one whose geometry prefix_kv rejects 400 dimension_mismatch);
for a bad Content-Length the body is not read and the connection closes.
A chunked body (any Transfer-Encoding) gets 411 length_required, and a
Content-Length above MAX_BODY_BYTES 413 payload_too_large; neither body
is read, and the connection closes. JSON that nests too deep to parse is
a 400 bad_request. An unknown prompt_id, to encode or to delete, gets
404 unknown_prompt.

Connections are kept alive, with TCP_NODELAY set and the writer buffered,
so each reply's headers and body leave in one send when the request ends.
Two sends without TCP_NODELAY let Nagle's algorithm hold the body until
the client's delayed ACK, about 40 ms per keep-alive reply. A read that
waits longer than _Handler.timeout, on an idle connection or a body
shorter than its Content-Length, closes the connection without a reply.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .encoder import encode_states, prefix_kv
from .prompts import promptset_from_json
from .tokenizer import CLS_ID

log = logging.getLogger(__name__)

MAX_BODY_BYTES = 64 << 20  # a prompt set at the benchmark's geometry is about 22 KB


class ServiceError(Exception):
    def __init__(self, status, code, message, detail=None):
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail or {}
        super().__init__(message)

    def to_body(self):
        return {"code": self.code, "message": self.message, "detail": self.detail}


def _reply_dtype(request, allowed):
    """The dtype of a reply's vector; 400 before any forward for a
    "precision" that is not one of the reply kind's allowed names."""
    precision = request.get("precision", "f32")
    if precision not in allowed:  # a tuple compares with ==, so a JSON list or object is fine
        raise ServiceError(400, "bad_request",
                           f"precision must be one of {', '.join(allowed)}, got {precision!r}")
    return {"f32": "<f4", "f64": "<f8"}[precision]


class EncodingService:
    """Request handling core, independent of the HTTP transport."""

    def __init__(self, model):
        model.set_trainable(False)
        self.model = model
        self.fingerprint = model.fingerprint()
        self._registry = {}  # prompt_id -> {"query": prefix, "passage": prefix}
        self._ids = itertools.count()
        self._lock = threading.Lock()

    # -- prompt registration -------------------------------------------------

    def _prefixes(self, doc, roles):
        """{role: prefix} of a prompt-set document for the given roles; a
        shared set is projected once and its prefix serves every role."""
        try:
            ps = promptset_from_json(doc)
        except ValueError as exc:
            raise ServiceError(400, "bad_promptset", f"invalid prompt set: {exc}")
        try:
            if ps.shared:
                return dict.fromkeys(roles, prefix_kv(self.model, ps, "shared"))
            return {role: prefix_kv(self.model, ps, role) for role in roles}
        except ValueError as exc:
            raise ServiceError(400, "dimension_mismatch", str(exc))

    def register(self, doc):
        entry = self._prefixes(doc, ("query", "passage"))
        with self._lock:
            prompt_id = f"prompt-{next(self._ids):04d}"
            self._registry[prompt_id] = entry
        return prompt_id

    def unregister(self, prompt_id):
        with self._lock:
            if self._registry.pop(prompt_id, None) is None:
                raise ServiceError(404, "unknown_prompt", f"no prompt {prompt_id!r}")

    # -- encoding -------------------------------------------------------------

    def _resolve_prefix(self, request):
        has_id = "prompt_id" in request
        has_inline = "inline_prompt" in request
        if has_id == has_inline:
            raise ServiceError(
                400, "bad_request",
                "request must carry exactly one of prompt_id / inline_prompt",
            )
        role = request.get("role", "query")
        if role not in ("query", "passage"):
            raise ServiceError(400, "bad_request", f"unknown role {role!r}")
        if has_inline:
            return self._prefixes(request["inline_prompt"], (role,))[role]
        if not isinstance(request["prompt_id"], str):
            raise ServiceError(400, "bad_request", "prompt_id must be a string")
        entry = self._registry.get(request["prompt_id"])
        if entry is None:
            raise ServiceError(404, "unknown_prompt", f"no prompt {request['prompt_id']!r}")
        return entry[role]

    def _resolve_tokens(self, request):
        has_text = "text" in request
        has_ids = "token_ids" in request
        if has_text == has_ids:
            raise ServiceError(
                400, "bad_request",
                "request must carry exactly one of text / token_ids",
            )
        cfg = self.model.config
        if has_text:
            if not isinstance(request["text"], str):
                raise ServiceError(400, "bad_request", "text must be a string")
            return self.model.vocab.encode(request["text"], max_len=cfg.max_seq_len)
        ids = request["token_ids"]
        # type(...) is int: JSON true/false arrive as bool, a subclass of int
        if not isinstance(ids, list) or not all(type(i) is int for i in ids):
            raise ServiceError(400, "bad_request", "token_ids must be a list of integers")
        if not ids or ids[0] != CLS_ID:
            raise ServiceError(400, "bad_request", "token_ids must begin with [CLS]")
        if len(ids) > cfg.max_seq_len:
            raise ServiceError(
                400, "sequence_too_long",
                f"sequence length {len(ids)} exceeds {cfg.max_seq_len}",
            )
        bad = [i for i in ids if i < 0 or i >= cfg.vocab_size]
        if bad:
            raise ServiceError(400, "unknown_token", f"unknown token id {bad[0]}")
        return ids

    def encode_vector(self, request):
        """The d-dim float64 vector for an EncodeRequest dict."""
        prefix = self._resolve_prefix(request)
        ids = self._resolve_tokens(request)
        states, _ = encode_states(self.model, [ids], prefix, rows=[0])
        return states.data[0]

    def encode_response(self, request):
        start = time.perf_counter()
        dtype = _reply_dtype(request, ("f32", "f64"))
        vec = self.encode_vector(request)
        return {
            "vector": vec.astype(dtype).tolist(),
            "fingerprint": self.fingerprint,
            "timing_ms": (time.perf_counter() - start) * 1e3,
        }

    def encode_binary(self, request):
        start = time.perf_counter()
        dtype = _reply_dtype(request, ("f32",))
        vec = self.encode_vector(request)
        body = np.ascontiguousarray(vec, dtype=dtype).tobytes()
        timing = (time.perf_counter() - start) * 1e3
        return body, timing


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY
    wbufsize = -1  # headers and body leave in one send, at the end of each request
    timeout = 10.0  # seconds a read may wait; a stalled client no longer holds a thread

    @property
    def service(self):
        return self.server.service

    def log_message(self, fmt, *args):
        if log.isEnabledFor(logging.DEBUG):  # formatting every reply's line costs
            log.debug("%s - %s", self.address_string(), fmt % args)

    def _send(self, status, body, content_type, headers=()):
        """The one reply writer: status, headers and body of any reply."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status, obj):
        self._send(status, json.dumps(obj, sort_keys=True).encode("utf-8"), "application/json")

    def _read_json(self):
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True  # the unread chunks would be taken for the next request
            raise ServiceError(411, "length_required", "send the body with a Content-Length")
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self.close_connection = True  # the unread body would be taken for the next request
            raise ServiceError(400, "bad_request", f"bad Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body would be taken for the next request
            raise ServiceError(413, "payload_too_large", f"body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(int(length))
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ServiceError(400, "bad_request", f"body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ServiceError(400, "bad_request", "body must be a JSON object")
        return doc

    def do_GET(self):
        if self.path == "/health":
            self._send_json(200, {"status": "ok", "fingerprint": self.service.fingerprint})
        elif self.path == "/model":
            self._send_json(200, {
                "config": self.service.model.config.to_dict(),
                "fingerprint": self.service.fingerprint,
            })
        else:
            self._send_json(404, {"code": "not_found", "message": self.path,
                                  "detail": {}})

    def do_POST(self):
        try:
            request = self._read_json()
            if self.path == "/prompts":
                prompt_id = self.service.register(request)
                self._send_json(200, {"prompt_id": prompt_id})
            elif self.path == "/encode":
                accept = self.headers.get("Accept", "")
                if "application/octet-stream" in accept:
                    body, timing = self.service.encode_binary(request)
                    self._send(200, body, "application/octet-stream",
                               (("X-Model-Fingerprint", self.service.fingerprint),
                                ("X-Timing-Ms", f"{timing:.3f}")))
                else:
                    self._send_json(200, self.service.encode_response(request))
            else:
                raise ServiceError(404, "not_found", self.path)
        except ServiceError as err:
            self._send_json(err.status, err.to_body())
        except TimeoutError:
            raise  # handle_one_request closes the connection without a reply
        except Exception as exc:  # defensive: never drop the connection silently
            log.exception("unhandled error")
            self._send_json(500, {"code": "internal_error", "message": str(exc),
                                  "detail": {}})

    def do_DELETE(self):
        if self.headers.get("Content-Length", "0") != "0" or "Transfer-Encoding" in self.headers:
            self.close_connection = True  # an unread body would be taken for the next request
        head, _, prompt_id = self.path.rpartition("/")
        try:
            if head != "/prompts":
                raise ServiceError(404, "not_found", self.path)
            self.service.unregister(prompt_id)
            self._send_json(200, {"prompt_id": prompt_id})
        except ServiceError as err:
            self._send_json(err.status, err.to_body())


def make_server(model, host="127.0.0.1", port=0):
    """Threaded HTTP server bound to host:port (0 picks a free port)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = EncodingService(model)
    return server


def serve(model, host="127.0.0.1", port=8080):
    """Run the service until interrupted."""
    server = make_server(model, host, port)
    log.info("serving on %s:%d (fingerprint %s)",
             host, server.server_address[1], server.service.fingerprint[:12])
    try:
        server.serve_forever()
    finally:
        server.server_close()


class running_server:
    """Context manager: serve `model` on a background thread."""

    def __init__(self, model, host="127.0.0.1", port=0):
        self.server = make_server(model, host, port)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        addr, bound_port = self.server.server_address
        self.base_url = f"http://{addr}:{bound_port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        return False
