"""serve: the multi-prompt HTTP encoder under open-loop load.

The server runs in a child process, so client and server never share a
GIL. Eight prompt sets are registered at set-up: DPTDR's deployment of many
tasks on one frozen backbone. Load comes from this process over two
keep-alive connections (one per core). Phases:

1. bulk: passages encoded back to back on both connections (closed loop),
   the service's way to build an index;
2. base: Poisson arrivals at a fixed rate for ``--seconds``, a request mix
   of mostly prompt_id query encodes; every request is timed from when it
   was due, so a stall also delays the requests queued behind it;
3. ladder: short steps at fixed rates above the base rate, stopping at the
   first step that misses the latency limit.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (CALIBRATION_REF_S, OUT_DIR, Calibration, build_model, build_promptset,
                    dataset, model_seed, peak_rss_mb, prompt_seed, summarize)
from promptir import encoder, prompts
import tracing

HOST = "127.0.0.1"
CONNECTIONS = 2
CHILD = Path(__file__).resolve().parent / "server_child.py"

# While the base phase runs, this process samples the machine's speed this
# often (common.Calibration); a sample holds the GIL for about 3 ms.
SPEED_EVERY_S = 0.2

# Request mix of the base phase and the ladder: kind -> share.
MIX = {"query": 0.80, "passage": 0.10, "inline": 0.04, "binary": 0.04, "register": 0.02}


@dataclass
class Request:
    kind: str
    path: str
    body: bytes
    headers: dict
    ref: tuple  # (prompt set, text, role) to recompute the vector in process


@dataclass
class Reply:
    due: float
    sent: float
    done: float
    status: int
    headers: dict
    body: bytes


# ---------------------------------------------------------------------------
# Server child
# ---------------------------------------------------------------------------


class Child:
    """The server process; stopped by closing its standard input."""

    def __init__(self, size, seed, trace, inject, spans):
        cmd = [sys.executable, str(CHILD), "--size", size, "--seed", str(seed),
               "--trace", str(int(trace)), "--spans", str(spans), "--inject", inject]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else b""
        if not line.strip():
            self.stop()
            raise RuntimeError("server child did not start")
        self.port = int(line)

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def post(conn, path, body, headers=None):
    conn.request("POST", path, body, {"Content-Type": "application/json", **(headers or {})})
    resp = conn.getresponse()
    return resp.status, dict(resp.getheaders()), resp.read()


def register_all(port, sets):
    """POST every prompt set; their registry ids in order."""
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        ids = []
        for ps in sets:
            body = json.dumps(prompts.promptset_to_json(ps)).encode()
            status, _, reply = post(conn, "/prompts", body)
            if status != 200:
                raise RuntimeError(f"registration failed: {status} {reply[:200]!r}")
            ids.append(json.loads(reply)["prompt_id"])
        return ids
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def drive(port, requests, due, first_id, speed=None):
    """Send requests at their due offsets over CONNECTIONS keep-alive sockets.

    Each connection takes the next request in schedule order, waits until it
    is due and sends it; an all-zero schedule is a closed loop. With a
    ``speed`` list, the calling thread appends machine-speed samples to it
    until the last reply is in.
    """
    n = len(requests)
    replies = [None] * n
    counter = itertools.count()
    start = time.perf_counter() + 0.02

    def worker():
        conn = http.client.HTTPConnection(HOST, port, timeout=60)
        try:
            while (i := next(counter)) < n:
                req = requests[i]
                t_due = start + due[i]
                wait = t_due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                headers = {"X-Request-Id": str(first_id + i), **req.headers}
                t_sent = time.perf_counter()
                try:
                    status, reply_headers, body = post(conn, req.path, req.body, headers)
                except (OSError, http.client.HTTPException) as exc:
                    status, reply_headers, body = 0, {}, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(HOST, port, timeout=60)
                replies[i] = Reply(t_due, t_sent, time.perf_counter(), status,
                                   reply_headers, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    if speed is not None:
        cal = Calibration()
        while any(t.is_alive() for t in threads):
            time.sleep(SPEED_EVERY_S)
            speed.append(cal.sample())
    for t in threads:
        t.join()
    return replies


class Traffic:
    """Seeded requests over the corpus, the queries and the prompt sets."""

    def __init__(self, ds, model, sets, ids, seed):
        self.ds, self.model, self.sets, self.ids = ds, model, sets, ids
        self.inline = [prompts.promptset_to_json(ps) for ps in sets]
        self.rng = np.random.default_rng(seed + 31)
        self.seed = seed
        self.fresh = 0

    def encode(self, kind, k, text, role):
        body = {"text": text, "role": role}
        if kind == "inline":
            body["inline_prompt"] = self.inline[k]
        else:
            body["prompt_id"] = self.ids[k]
        headers = {"Accept": "application/octet-stream"} if kind == "binary" else {}
        return Request(kind, "/encode", json.dumps(body).encode(), headers,
                       (self.sets[k], text, role))

    def make(self, kind):
        if kind == "register":
            self.fresh += 1
            ps = build_promptset(self.model, prompt_seed(self.seed, 50 + self.fresh), "fresh")
            return Request(kind, "/prompts", json.dumps(prompts.promptset_to_json(ps)).encode(),
                           {}, None)
        k = int(self.rng.integers(len(self.sets)))
        items, role = (self.ds.corpus, "passage") if kind == "passage" else (self.ds.queries, "query")
        return self.encode(kind, k, items[int(self.rng.integers(len(items)))][1], role)

    def poisson(self, rate, seconds):
        """Requests of the mix with Poisson arrival offsets over ``seconds``."""
        gaps = self.rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 10)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        kinds = self.rng.choice(list(MIX), size=len(due), p=list(MIX.values()))
        return [self.make(str(k)) for k in kinds], due

    def bulk(self, n):
        corpus = self.ds.corpus
        reqs = [self.encode("passage", i % len(self.sets), corpus[i % len(corpus)][1], "passage")
                for i in range(n)]
        return reqs, np.zeros(n)


# ---------------------------------------------------------------------------
# Checking and statistics
# ---------------------------------------------------------------------------


class Checker:
    """Checks every reply; keeps served vectors for the in-process comparison."""

    def __init__(self, fingerprint, run):
        self.fingerprint = fingerprint
        self.run = run
        self.vectors = []  # (ref, served float32 vector)

    def reply(self, req, rep):
        """The server-reported milliseconds of an encode reply, else None."""
        run = self.run
        if not run.check("request_ok", rep.status == 200,
                         f"{req.kind} {rep.status} {rep.body[:160]!r}"):
            return None
        if req.kind == "register":
            run.check("register_reply", isinstance(json.loads(rep.body).get("prompt_id"), str))
            return None
        if req.kind == "binary":
            served_fp = rep.headers.get("X-Model-Fingerprint")
            timing = float(rep.headers.get("X-Timing-Ms", "nan"))
            vec = np.frombuffer(rep.body, dtype="<f4")
        else:
            doc = json.loads(rep.body)
            served_fp, timing = doc.get("fingerprint"), float(doc["timing_ms"])
            vec = np.asarray(doc["vector"], dtype=np.float32)
        run.check("fingerprint_echo", served_fp == self.fingerprint, served_fp)
        self.vectors.append((req.ref, vec))
        return timing

    def phase(self, requests, replies, limit_ms=None, planned=None):
        """Check a phase's replies; its latency, transport and schedule figures.

        ``planned`` is the request count the schedule was drawn for; it fixes
        which tail percentile the phase reports.
        """
        server, transport = [], []
        ok = True
        for req, rep in zip(requests, replies):
            timing = self.reply(req, rep)
            ok &= rep.status == 200
            if timing is not None:
                server.append(timing)
                transport.append((rep.done - rep.sent) * 1e3 - timing)
        due = np.array([r.due for r in replies])
        sent = np.array([r.sent for r in replies])
        backlog = np.searchsorted(due, sent, side="right") - np.arange(1, len(replies) + 1)
        lat = summarize([(r.done - r.due) * 1e3 for r in replies], planned)
        out = {
            "requests": len(replies),
            "latency_ms": lat,
            "query_latency_ms": summarize([(rep.done - rep.due) * 1e3
                                           for req, rep in zip(requests, replies)
                                           if req.kind == "query"]),
            "server_ms": summarize(server, planned),
            "transport_ms": summarize(transport, planned),
            "send_lag_ms": summarize((sent - due) * 1e3, planned),
            "backlog_max": int(max(0, backlog.max())) if len(replies) else 0,
            "wall_s": float(max(r.done for r in replies) - min(r.sent for r in replies)),
        }
        if limit_ms is not None:
            out["meets_limit"] = bool(ok and lat["tail"] <= limit_ms)
        return out

    def verify_vectors(self, model, n, seed):
        """A seeded sample of served vectors equals in-process encode, to f32 rounding."""
        rng = np.random.default_rng(seed + 17)
        cfg = model.config
        for i in rng.choice(len(self.vectors), size=min(n, len(self.vectors)), replace=False):
            (ps, text, role), served = self.vectors[int(i)]
            ref = encoder.encode(model, ps, model.vocab.encode(text, max_len=cfg.max_seq_len),
                                 role=role)
            ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
            ok = served.shape == ref.shape and bool(
                np.all(np.abs(served.astype(np.float64) - ref) <= ulp))
            self.run.check("served_vector_matches_encode", ok, text[:40])


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _start(size_name, seed, trace, inject, sets, spans):
    child = Child(size_name, seed, trace, inject, spans)
    try:
        return child, register_all(child.port, sets)
    except Exception:
        child.stop()
        raise


def _warm_up(port, traffic):
    reqs = [traffic.make(kind) for kind in MIX if kind != "register"] * 3
    drive(port, reqs, np.zeros(len(reqs)), -1)


def measure(size_name, size, seed, seconds, trace, inject, run):
    """Run every phase; the end-to-end values and the details of the run."""
    p = size["serve"]
    ds = dataset(seed, p["topics"], p["passages_per_topic"], p["queries_per_topic"])
    model = build_model(ds, size["model"], model_seed(seed))
    sets = [build_promptset(model, prompt_seed(seed, k), f"task{k}")
            for k in range(p["prompt_sets"])]
    checker = Checker(model.fingerprint(), run)
    spans = OUT_DIR / "trace-serve.npz"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    d = {"rates": {"base": p["base_rate"], "ladder": list(p["ladder"])},
         "limit_ms": p["limit_ms"], "connections": CONNECTIONS, "mix": MIX}

    # set-up: start the server child and register the prompt sets
    setup_times, child = [], None
    for _ in range(p["setup_repeats"]):
        if child is not None:
            child.stop()
        t0 = time.perf_counter()
        child, ids = _start(size_name, seed, False, inject, sets, spans)
        setup_times.append(time.perf_counter() - t0)
    d["setup_s_samples"] = setup_times
    traffic = Traffic(ds, model, sets, ids, seed)
    try:
        _warm_up(child.port, traffic)
        reqs, due = traffic.bulk(p["bulk_passages"])
        bulk = checker.phase(reqs, drive(child.port, reqs, due, 0))
        if trace:
            # the same bulk phase on a traced child gives the tracing overhead
            d["untraced_bulk"] = bulk
            child.stop()
            spans.unlink(missing_ok=True)
            child, traffic.ids = _start(size_name, seed, True, inject, sets, spans)
            _warm_up(child.port, traffic)
            bulk = checker.phase(reqs, drive(child.port, reqs, due, 0))
        d["bulk"] = bulk

        reqs, due = traffic.poisson(p["base_rate"], seconds)
        speed = []
        d["base"] = checker.phase(reqs, drive(child.port, reqs, due, 100_000, speed),
                                  p["limit_ms"], p["base_rate"] * seconds)
        d["base"]["speed_factor"] = float(np.median(speed)) / CALIBRATION_REF_S
        max_rps = p["base_rate"] if d["base"]["meets_limit"] else 0.0
        d["ladder"] = []
        for j, rate in enumerate(p["ladder"]):
            if not max_rps:
                break
            reqs, due = traffic.poisson(rate, p["ladder_step_s"])
            step = checker.phase(reqs, drive(child.port, reqs, due, 200_000 + 10_000 * j),
                                 p["limit_ms"], rate * p["ladder_step_s"])
            d["ladder"].append({"rate": rate, **step})
            if not step["meets_limit"]:
                break
            max_rps = rate
    finally:
        child.stop()
    checker.verify_vectors(model, p["check_sample"], seed)

    base = d["base"]
    values = {
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(children=True),
        "index_passages_per_s": bulk["requests"] / bulk["wall_s"],
        # the median of the dominant class: over the whole mix it falls between
        # the query mode (4-6 ms) and the passage mode (10-20 ms). It is CPU
        # work in both processes, so it is read at the reference machine speed;
        # the tail is set by the 40 ms delayed ACK, a timer, and is not.
        "latency_p50_ms": base["query_latency_ms"]["p50"] / base["speed_factor"],
        "latency_tail_ms": base["latency_ms"]["tail"],
        "throughput_per_s": max_rps,
    }
    probe = {
        "serving.server_ms_p50": base["server_ms"]["p50"],
        "serving.server_ms_tail": base["server_ms"]["tail"],
        "serving.transport_ms_p50": base["transport_ms"]["p50"],
        "serving.transport_ms_tail": base["transport_ms"]["tail"],
        "serving.send_lag_ms_tail": base["send_lag_ms"]["tail"],
        "serving.backlog_max": float(base["backlog_max"]),
    }
    d["probe"] = probe
    if trace:
        d["spans"] = tracing.load(spans)
        d["overhead_s"] = bulk["wall_s"] - d["untraced_bulk"]["wall_s"]
        d["untraced_wall_s"] = d["untraced_bulk"]["wall_s"]
    return values, d
