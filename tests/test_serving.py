"""The HTTP encoder against in-process encode, and its request validation.

Served vectors must equal encoder.encode: bitwise with precision f64, and
to float32 rounding for JSON f32 and application/octet-stream replies.
"""

import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
from urllib.parse import urlsplit

import numpy as np
import pytest

from promptir.autodiff import Tensor
from promptir.encoder import encode
from promptir.prompts import PromptSet, promptset_to_json
from promptir import serving
from promptir.serving import EncodingService, ServiceError, running_server
from promptir.tokenizer import CLS_ID, SEP_ID

from conftest import (BAD_PROMPTSET_HEADERS, get_json, make_tiny_model, make_tiny_prompts,
                      post_json)

TEXTS = ["the cat sat on the mat.", "", "bright stars fill the sky far from the city lights."]


@pytest.fixture(scope="module")
def served(tiny_vocab):
    model = make_tiny_model(tiny_vocab)
    shared = make_tiny_prompts(model, seed=1)
    separate = make_tiny_prompts(model, seed=2, separate_roles=True)
    with running_server(model) as srv:
        ids = {name: post_json(srv.base_url + "/prompts", promptset_to_json(ps))[0]["prompt_id"]
               for name, ps in (("shared", shared), ("separate", separate))}
        yield srv, model, {"shared": shared, "separate": separate}, ids


def post_error(url, body, headers=None):
    with pytest.raises(urllib.error.HTTPError) as exc:
        post_json(url, body, headers)
    return exc.value.code, json.loads(exc.value.read().decode("utf-8"))


def connect(srv):
    url = urlsplit(srv.base_url)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=5)


def exchange(conn, method, path, body=None, headers=None):
    """One request on an open connection; (status, headers, raw body)."""
    conn.request(method, path, body, headers or {})
    resp = conn.getresponse()
    return resp.status, resp.headers, resp.read()


def delete(srv, path, body=None):
    conn = connect(srv)
    try:
        status, headers, raw = exchange(conn, "DELETE", path, body)
    finally:
        conn.close()
    return status, headers, json.loads(raw.decode("utf-8"))


def raw_reply(srv, request):
    """Send raw request bytes; (status line and headers, JSON body) of the
    one reply the server sends before it closes the connection."""
    head, body = raw_exchange(srv, request)
    return head, json.loads(body)


def raw_exchange(srv, request):
    """Send raw request bytes; (status line and headers, body bytes) of the
    one reply the server sends before it closes the connection."""
    url = urlsplit(srv.base_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(4096):
            raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    length = int(next(line.split(b":")[1] for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:")))
    assert len(rest) == length  # one reply, nothing after it
    return head, rest


def prompt_fields(ps_name, served, inline):
    _, _, sets, ids = served
    if inline:
        return {"inline_prompt": promptset_to_json(sets[ps_name])}
    return {"prompt_id": ids[ps_name]}


@pytest.mark.parametrize("ps_name", ["shared", "separate"])
@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("role", ["query", "passage"])
class TestServedVectors:
    def test_f64_is_bitwise_encode(self, served, ps_name, inline, role):
        srv, model, sets, _ = served
        for text in TEXTS:
            body = {"text": text, "role": role, "precision": "f64",
                    **prompt_fields(ps_name, served, inline)}
            reply, _ = post_json(srv.base_url + "/encode", body)
            want = encode(model, sets[ps_name], model.vocab.encode(text), role=role)
            np.testing.assert_array_equal(np.array(reply["vector"]), want)
            assert reply["fingerprint"] == model.fingerprint()

    def test_f32_json_and_binary_round_encode(self, served, ps_name, inline, role):
        srv, model, sets, _ = served
        for text in TEXTS:
            body = {"text": text, "role": role, **prompt_fields(ps_name, served, inline)}
            want = encode(model, sets[ps_name], model.vocab.encode(text), role=role)
            want32 = want.astype(np.float32)
            reply, _ = post_json(srv.base_url + "/encode", body)
            np.testing.assert_array_equal(np.array(reply["vector"], dtype=np.float32), want32)
            raw, headers = post_json(srv.base_url + "/encode", body,
                                     headers={"Accept": "application/octet-stream"})
            np.testing.assert_array_equal(np.frombuffer(raw, dtype="<f4"), want32)
            assert headers["X-Model-Fingerprint"] == model.fingerprint()


class TestRequests:
    def test_token_ids_equal_text(self, served):
        srv, model, sets, ids = served
        tokens = model.vocab.encode("the cat sat.")
        by_ids, _ = post_json(srv.base_url + "/encode", {
            "token_ids": tokens, "prompt_id": ids["shared"], "precision": "f64"})
        want = encode(model, sets["shared"], tokens)
        np.testing.assert_array_equal(np.array(by_ids["vector"]), want)

    @pytest.mark.parametrize("token_ids", [[False, True], [CLS_ID, True, SEP_ID],
                                           [CLS_ID, 5.0, SEP_ID], "0 1", []])
    def test_non_integer_token_ids_rejected(self, served, token_ids):
        srv, _, _, ids = served
        status, body = post_error(srv.base_url + "/encode",
                                  {"token_ids": token_ids, "prompt_id": ids["shared"]})
        assert status == 400 and body["code"] == "bad_request"

    @pytest.mark.parametrize("case", ["too_long", "negative", "vocab_size"])
    def test_token_id_codes(self, served, case):
        srv, model, _, ids = served
        cfg = model.config
        token_ids, code = {
            "too_long": ([CLS_ID] * (cfg.max_seq_len + 1), "sequence_too_long"),
            "negative": ([CLS_ID, -1, SEP_ID], "unknown_token"),
            "vocab_size": ([CLS_ID, cfg.vocab_size, SEP_ID], "unknown_token"),
        }[case]
        status, body = post_error(srv.base_url + "/encode",
                                  {"token_ids": token_ids, "prompt_id": ids["shared"]})
        assert status == 400 and body["code"] == code

    @pytest.mark.parametrize("inline", [False, True])
    def test_pinned_prompt_length_enforced_on_both_paths(self, served, inline):
        srv, model, _, ids = served
        cfg = model.config
        wrong = PromptSet.create("wrong", cfg.prompt_length + 2, cfg.hidden_size, cfg.num_layers)
        doc = promptset_to_json(wrong)
        if inline:
            status, body = post_error(srv.base_url + "/encode",
                                      {"text": "the cat", "inline_prompt": doc})
        else:
            status, body = post_error(srv.base_url + "/prompts", doc)
        assert status == 400 and body["code"] == "dimension_mismatch"
        assert "prompt length" in body["message"]

    @pytest.mark.parametrize("inline", [False, True])
    def test_hidden_size_mismatch_on_both_paths(self, served, inline):
        srv, model, _, _ = served
        cfg = model.config
        doc = promptset_to_json(PromptSet.create("wide", cfg.prompt_length,
                                                 2 * cfg.hidden_size, cfg.num_layers))
        if inline:
            status, body = post_error(srv.base_url + "/encode",
                                      {"text": "the cat", "inline_prompt": doc})
        else:
            status, body = post_error(srv.base_url + "/prompts", doc)
        assert status == 400 and body["code"] == "dimension_mismatch"

    @pytest.mark.parametrize("inline", [False, True])
    @pytest.mark.parametrize("edit", BAD_PROMPTSET_HEADERS.values(), ids=BAD_PROMPTSET_HEADERS)
    def test_bad_promptset_header_on_both_paths(self, served, inline, edit):
        srv, _, sets, _ = served
        doc = edit(promptset_to_json(sets["shared"]))
        if inline:
            status, body = post_error(srv.base_url + "/encode",
                                      {"text": "the cat", "inline_prompt": doc})
        else:
            status, body = post_error(srv.base_url + "/prompts", doc)
        assert status == 400 and body["code"] == "bad_promptset"

    @pytest.mark.parametrize("fields, code", [
        ({"prompt_id": ["x"]}, "bad_request"), ({"prompt_id": 7}, "bad_request"),
        ({"text": 5}, "bad_request"), ({"text": ["the", "cat"]}, "bad_request"),
        ({"inline_prompt": []}, "bad_promptset"), ({"inline_prompt": "doc"}, "bad_promptset"),
    ])
    def test_wrong_field_type_is_400(self, served, fields, code):
        srv, _, _, ids = served
        request = {"text": "the cat", **fields}
        if "inline_prompt" not in request:
            request.setdefault("prompt_id", ids["shared"])
        with pytest.raises(ServiceError) as exc:
            srv.server.service.encode_vector(request)
        assert (exc.value.status, exc.value.code) == (400, code)

    def test_wrong_field_type_is_400_over_http(self, served):
        srv, _, _, _ = served
        status, body = post_error(srv.base_url + "/encode", {"prompt_id": ["x"], "text": "a"})
        assert status == 400 and body["code"] == "bad_request"

    def test_unknown_prompt_is_404(self, served):
        srv, _, _, _ = served
        status, body = post_error(srv.base_url + "/encode", {"text": "x", "prompt_id": "nope"})
        assert status == 404 and body["code"] == "unknown_prompt"

    def test_health_echoes_fingerprint(self, served):
        srv, model, _, _ = served
        assert get_json(srv.base_url + "/health") == {"status": "ok",
                                                       "fingerprint": model.fingerprint()}


@pytest.mark.parametrize("ps_name", ["shared", "separate"])
def test_registry_keeps_only_prefixes(served, ps_name):
    srv, _, _, ids = served
    entry = srv.server.service._registry[ids[ps_name]]
    assert sorted(entry) == ["passage", "query"]
    assert (entry["query"] is entry["passage"]) == (ps_name == "shared")
    # pairs of tensors with no tape entry, so no PromptSet is reachable from the entry
    for prefix in entry.values():
        for pair in prefix:
            assert [type(t) for t in pair] == [Tensor, Tensor]
            assert all(t._entry is None and not t.requires_grad for t in pair)


@pytest.mark.parametrize("precision, formula", [
    ("f32", lambda vec: [float(np.float32(x)) for x in vec]),
    ("f64", lambda vec: [float(x) for x in vec]),
])
def test_reply_vector_equals_elementwise_formula(served, monkeypatch, precision, formula):
    _, model, _, _ = served
    service = EncodingService(model)
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=64) * scale for scale in (1e-42, 1e-8, 1.0, 1e20)]
    vectors.append(np.array([0.0, -0.0, 1 + 2.0 ** -24, 1 + 3 * 2.0 ** -24, -1e-45, 7e-46]))
    for vec in vectors:
        monkeypatch.setattr(service, "encode_vector", lambda request, vec=vec: vec)
        numbers = service.encode_response({"precision": precision})["vector"]
        assert json.dumps(numbers) == json.dumps(formula(vec))


class TestDelete:
    def test_deleted_prompt_is_404(self, served):
        srv, _, sets, _ = served
        doc = promptset_to_json(sets["separate"])
        prompt_id = post_json(srv.base_url + "/prompts", doc)[0]["prompt_id"]
        request = {"text": "the cat", "prompt_id": prompt_id}
        post_json(srv.base_url + "/encode", request)
        status, _, body = delete(srv, "/prompts/" + prompt_id)
        assert (status, body) == (200, {"prompt_id": prompt_id})
        assert prompt_id not in srv.server.service._registry
        status, body = post_error(srv.base_url + "/encode", request)
        assert status == 404 and body["code"] == "unknown_prompt"

    @pytest.mark.parametrize("path, code", [("/prompts/nope", "unknown_prompt"),
                                            ("/prompts/", "unknown_prompt"),
                                            ("/encode/prompt-0000", "not_found")])
    def test_unknown_id_or_path_is_404(self, served, path, code):
        srv, _, _, _ = served
        before = dict(srv.server.service._registry)
        status, _, body = delete(srv, path)
        assert status == 404 and body["code"] == code
        assert srv.server.service._registry == before

    def test_body_closes_connection(self, served):
        srv, _, _, _ = served
        status, headers, body = delete(srv, "/prompts/nope", body=b"{}")
        assert status == 404 and body["code"] == "unknown_prompt"
        assert headers["Connection"] == "close"


class TestTransport:
    def test_access_line_logged_only_at_debug(self, served, monkeypatch, caplog):
        srv, _, _, _ = served
        formatted = []
        original = serving._Handler.address_string

        def counted(handler):
            formatted.append(1)
            return original(handler)

        monkeypatch.setattr(serving._Handler, "address_string", counted)
        with caplog.at_level(logging.INFO, logger="promptir.serving"):
            get_json(srv.base_url + "/health")
        assert not formatted  # below DEBUG the line is never formatted
        with caplog.at_level(logging.DEBUG, logger="promptir.serving"):
            get_json(srv.base_url + "/health")
        assert formatted
        assert any('"GET /health HTTP/1.1" 200' in r.getMessage() for r in caplog.records)

    def test_keep_alive_replies_do_not_stall(self, served):
        srv, model, _, ids = served
        d = model.config.hidden_size
        body = json.dumps({"text": TEXTS[0], "prompt_id": ids["shared"]})
        json_headers = {"Content-Type": "application/json"}
        conn = connect(srv)
        try:
            conn.connect()
            conn.auto_open = 0  # a request that would need a new connection raises
            # a reply sent as two writes waits about 40 ms for the client's
            # delayed ACK; sent as one it takes a few ms in process
            rtts = []
            for _ in range(20):
                start = time.perf_counter()
                status, _, raw = exchange(conn, "POST", "/encode", body, json_headers)
                rtts.append(time.perf_counter() - start)
                assert status == 200 and len(json.loads(raw)["vector"]) == d
            status, headers, raw = exchange(conn, "POST", "/encode", body, {
                **json_headers, "Accept": "application/octet-stream"})
            assert status == 200 and len(raw) == 4 * d
            assert headers["X-Model-Fingerprint"] == model.fingerprint()
            status, _, raw = exchange(conn, "POST", "/encode",
                                      json.dumps({"text": "x", "prompt_id": "nope"}), json_headers)
            assert status == 404 and json.loads(raw)["code"] == "unknown_prompt"
            status, _, raw = exchange(conn, "POST", "/encode", body, json_headers)
            assert status == 200 and len(json.loads(raw)["vector"]) == d
        finally:
            conn.close()
        assert np.median(rtts) < 0.020


    @pytest.mark.parametrize("path, body", [("/prompts", []), ("/encode", 5),
                                            ("/encode", "the cat")])
    def test_non_object_body_is_400(self, served, path, body):
        srv, _, _, _ = served
        status, reply = post_error(srv.base_url + path, body)
        assert status == 400 and reply["code"] == "bad_request"

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", ""])
    def test_bad_content_length_is_400_without_reading(self, served, length):
        srv, _, _, _ = served
        # a server that tried to read the body would block past the timeout
        conn = connect(srv)
        try:
            conn.putrequest("POST", "/encode", skip_accept_encoding=True)
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            reply = json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()
        assert resp.status == 400 and reply["code"] == "bad_request"
        assert resp.getheader("Connection") == "close"

    def test_chunked_body_gets_one_411(self, served):
        srv, _, _, ids = served
        body = json.dumps({"text": "cat", "prompt_id": ids["shared"]}).encode()
        head, reply = raw_reply(srv, b"POST /encode HTTP/1.1\r\nHost: x\r\n"
                                     b"Content-Type: application/json\r\n"
                                     b"Transfer-Encoding: chunked\r\n\r\n"
                                     + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ") and b"Connection: close" in head
        assert reply["code"] == "length_required"

    def test_oversized_body_gets_413_without_reading(self, served):
        srv, _, _, _ = served
        # a server that tried to read the body would fail to allocate 100 GB,
        # answer 500 and keep the connection open
        head, reply = raw_reply(srv, b"POST /encode HTTP/1.1\r\nHost: x\r\n"
                                     b"Content-Length: 100000000000\r\n\r\n{}")
        assert head.startswith(b"HTTP/1.1 413 ") and b"Connection: close" in head
        assert reply["code"] == "payload_too_large"

    def test_json_nested_too_deep_is_400(self, served):
        srv, _, _, _ = served
        body = b"[" * 100_000
        head, reply = raw_reply(srv, b"POST /prompts HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                                     b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert head.startswith(b"HTTP/1.1 400 ") and reply["code"] == "bad_request"

    @pytest.mark.parametrize("accept", ["application/json", "application/octet-stream"])
    def test_reply_says_connection_close(self, served, accept):
        srv, model, sets, ids = served
        body = json.dumps({"text": TEXTS[0], "prompt_id": ids["shared"]}).encode()
        head, reply = raw_exchange(srv, b"POST /encode HTTP/1.1\r\nHost: x\r\n"
                                        b"Connection: close\r\nAccept: %s\r\n"
                                        b"Content-Length: %d\r\n\r\n" % (accept.encode(), len(body))
                                        + body)
        assert head.startswith(b"HTTP/1.1 200 ") and b"Connection: close" in head
        assert b"Content-Type: " + accept.encode() in head
        want = encode(model, sets["shared"], model.vocab.encode(TEXTS[0])).astype(np.float32)
        got = (np.frombuffer(reply, dtype="<f4") if accept.endswith("octet-stream")
               else np.array(json.loads(reply)["vector"], dtype=np.float32))
        np.testing.assert_array_equal(got, want)

    def test_bad_precision_rejected_before_the_forward(self, served, monkeypatch):
        srv, _, _, ids = served
        calls = []
        original = serving.encode_states

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(serving, "encode_states", counted)
        json_reply, binary_reply = {}, {"Accept": "application/octet-stream"}
        # the octet-stream body is float32 by contract, so f64 is refused there
        for precision, headers in [("f16", json_reply), (["f32"], json_reply),
                                   ({"a": 1}, json_reply), (None, json_reply),
                                   ("f16", binary_reply), ("bogus", binary_reply),
                                   (["f32"], binary_reply), ("f64", binary_reply)]:
            status, reply = post_error(srv.base_url + "/encode", {
                "text": TEXTS[0], "prompt_id": ids["shared"], "precision": precision}, headers)
            assert (status, reply["code"]) == (400, "bad_request"), (precision, headers)
        assert calls == []
        post_json(srv.base_url + "/encode", {"text": TEXTS[0], "prompt_id": ids["shared"]})
        assert len(calls) == 1  # the counter sees the server's forwards

    def test_short_body_times_out_and_closes(self, served, monkeypatch):
        srv, _, _, _ = served
        handlers = []
        original = serving._Handler.handle

        def handle(self):
            handlers.append(threading.current_thread())
            original(self)

        # above every gap between one client's requests, under 1 s at serve's base rate
        assert serving._Handler.timeout >= 5.0
        monkeypatch.setattr(serving._Handler, "timeout", 0.2)
        monkeypatch.setattr(serving._Handler, "handle", handle)
        url = urlsplit(srv.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(b"POST /encode HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{}")
            assert sock.recv(4096) == b""  # closed without a reply, neither 400 nor 500
        handlers[0].join(timeout=5)
        assert not handlers[0].is_alive()


@pytest.mark.parametrize("role", ["query", "passage"])
def test_inline_prompt_projects_one_role(served, monkeypatch, role):
    _, model, sets, _ = served
    original, calls = serving.prefix_kv, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(serving, "prefix_kv", counted)
    service = EncodingService(model)
    request = {"text": TEXTS[0], "role": role, "precision": "f64",
               "inline_prompt": promptset_to_json(sets["separate"])}
    vec = service.encode_vector(request)
    assert [args[2] for args in calls] == [role]
    np.testing.assert_array_equal(
        vec, encode(model, sets["separate"], model.vocab.encode(TEXTS[0]), role=role))
