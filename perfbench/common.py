"""Shared pieces of the benchmark: sizes, inputs, statistics and the run record.

Every workload builds its inputs here from the workload seed, so the
program under test receives only generated data. Model and prompt-set
seeds are derived from the workload seed, which lets the server child and
the client process build bit-identical models independently.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

from promptir import encoder, prompts, synth  # noqa: E402  (path set by run.py)
from promptir.tokenizer import Vocabulary  # noqa: E402

# The backbone of ROADMAP's baselines: L=4, d=64, 4 heads, ffn=256, l=8.
MODEL_SHAPE = dict(num_layers=4, hidden_size=64, num_heads=4, ffn_size=256,
                   max_seq_len=64, prompt_length=8)
TINY_MODEL_SHAPE = dict(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                        max_seq_len=64, prompt_length=4)

# Workload sizes. "full" is what BENCHMARK.json runs; "tiny" only proves the
# harness end to end in a few seconds (the smoke test).
SIZES = {
    "full": {
        "model": MODEL_SHAPE,
        "setup_repeats": 9,
        "train": dict(topics=10, passages_per_topic=30, queries_per_topic=12,
                      n_train=80, n_test=40, rip_steps=16, rip_batch=8,
                      dpt_steps=20, dpt_batch=8, negatives=8, mine_top_n=100,
                      rounds=3, index_chunks=10, encode_per_call=15, latency_passes=3,
                      check_sample=8),
        "retrieve": dict(topics=40, passages_per_topic=30, queries_per_topic=12,
                         mine_top_n=100, negatives=8, chunks=12, encode_per_call=20,
                         reencode=20, latency_passes=5, check_sample=8),
        "serve": dict(topics=10, passages_per_topic=30, queries_per_topic=12,
                      setup_repeats=3, prompt_sets=8, bulk_passages=160,
                      base_rate=10.0, ladder=(20.0, 60.0, 120.0, 240.0, 480.0),
                      ladder_step_s=4.0, limit_ms=150.0, check_sample=64),
    },
    "tiny": {
        "model": TINY_MODEL_SHAPE,
        "setup_repeats": 2,
        "train": dict(topics=4, passages_per_topic=6, queries_per_topic=4,
                      n_train=8, n_test=8, rip_steps=2, rip_batch=4,
                      dpt_steps=2, dpt_batch=4, negatives=4, mine_top_n=10,
                      rounds=2, index_chunks=2, encode_per_call=4, latency_passes=1,
                      check_sample=4),
        "retrieve": dict(topics=4, passages_per_topic=6, queries_per_topic=4,
                         mine_top_n=10, negatives=4, chunks=2, encode_per_call=4,
                         reencode=2, latency_passes=1, check_sample=4),
        "serve": dict(topics=4, passages_per_topic=6, queries_per_topic=4,
                      setup_repeats=2, prompt_sets=2, bulk_passages=12,
                      base_rate=10.0, ladder=(20.0, 60.0), ladder_step_s=0.5,
                      limit_ms=150.0, check_sample=8),
    },
}

# Names of deliberate corruptions the smoke test injects; each one must make
# the run fail its correctness checks.
INJECTIONS = ("none", "served_vector", "fingerprint", "backbone",
              "index_fingerprint", "leaked_positive", "traced_quality")


def dataset(seed, topics, passages_per_topic, queries_per_topic):
    """Topic-clustered synthetic corpus; about 37 tokens per passage."""
    return synth.generate(synth.SynthConfig(
        num_topics=topics, passages_per_topic=passages_per_topic,
        queries_per_topic=queries_per_topic, seed=seed,
    ))


def build_model(ds, shape, seed):
    """Fresh backbone over the dataset's vocabulary (no training)."""
    vocab = Vocabulary.build([t for _, t in ds.corpus] + [q for _, q in ds.queries])
    config = encoder.EncoderConfig(vocab_size=len(vocab), **shape)
    return encoder.init_model(config, vocab, seed=seed)


def build_promptset(model, seed, name="task"):
    cfg = model.config
    return prompts.PromptSet.create(
        name, cfg.prompt_length, cfg.hidden_size, cfg.num_layers, seed=seed,
    )


def model_seed(seed):
    return 1000 + seed


def prompt_seed(seed, k=0):
    return 2000 + 100 * seed + k


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def summarize(values, planned=None):
    """Median and supported tail of a sample, with the sample size.

    The tail percentile follows from ``planned``, the sample size the
    workload is designed to draw, when that varies from run to run.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return {"n": 0, "p50": 0.0, "tail_p": 0.0, "tail": 0.0}
    p = tail_percentile(planned or v.size)
    return {"n": int(v.size), "p50": float(np.median(v)), "tail_p": p,
            "tail": float(np.percentile(v, p))}


# Median seconds of one Calibration kernel run on the 2-core Xeon VM these
# baselines come from, in a quiet period. Only a scale: it cancels out when
# two commits are compared.
CALIBRATION_REF_S = 0.00135

# A timed call that starts within this many seconds of the kernel run that
# closed the previous one shares that run as its opening one.
_ADJACENT_S = 0.002
# A call this long evicts the kernel's data from the caches: right after a
# DPT step a kernel run takes 1.5 times as long as the next one. The run
# right after the call still closes it: timed cold, it tracked the machine
# better than a warm run did (over 10-second windows, encode_corpus calls
# spread 0.017 against 0.035). One more run then re-warms the caches before
# the next call opens.
_EVICTING_S = 0.02


class Calibration:
    """Machine speed, measured beside every timed call of a workload.

    The shared machine's speed swings by 15-30% within a fraction of a
    second, as other tenants load the host's cores, but two runs of the
    same code a millisecond apart slow down alike. So every timed call is
    bracketed by two runs of a fixed kernel: a 4-layer miniature
    transformer forward in plain numpy, shaped like one passage encode but
    sharing no code with promptir. A slower machine slows the kernel and
    the call alike, while a change to promptir cannot move the kernel. The
    call's seconds, divided by the mean of the two kernel times over
    ``CALIBRATION_REF_S``, read as if measured at the reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(38, 64))
        self._w = [rng.normal(size=(64, 64)) * 0.1 for _ in range(3)]
        self._w1 = rng.normal(size=(64, 256)) * 0.1
        self._w2 = rng.normal(size=(256, 64)) * 0.1
        self._last = None  # (end time, seconds) of the latest kernel run
        self.factors = []
        self.cold_penalties = []  # closing kernel run over the re-warmed one

    def _forward(self):
        x = self._x
        for _ in range(4):
            q, k, v = (x @ w + 0.1 for w in self._w)
            heads = []
            for h in range(4):
                s = (q[:, h * 16:(h + 1) * 16] @ k[:, h * 16:(h + 1) * 16].T) * 0.25
                s = np.exp(s - s.max(axis=-1, keepdims=True))
                heads.append((s / s.sum(axis=-1, keepdims=True)) @ v[:, h * 16:(h + 1) * 16])
            x = np.concatenate(heads, axis=1) + x
            f = np.tanh(x @ self._w1) @ self._w2
            x = (f - f.mean(axis=-1, keepdims=True)) / np.sqrt(f.var(axis=-1, keepdims=True) + 1e-5)

    def _kernel(self):
        t0 = time.perf_counter()
        self._forward()
        t1 = time.perf_counter()
        self._last = (t1, t1 - t0)
        return t1 - t0

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` between two kernel runs.

        Returns its result and its seconds at the reference speed.
        """
        last = self._last
        if last is not None and time.perf_counter() - last[0] < _ADJACENT_S:
            before = last[1]
        else:
            self._kernel()  # warms the caches up after unmeasured work
            before = self._kernel()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = self._kernel()
        if dt > _EVICTING_S:
            self.cold_penalties.append(after / self._kernel())
        factor = (before + after) / (2.0 * CALIBRATION_REF_S)
        self.factors.append(factor)
        return out, dt / factor

    def sample(self):
        """Seconds of one kernel run with warm caches, for untimed stretches."""
        self._kernel()
        return self._kernel()

    def summary(self):
        """Median speed factor, and median cold penalty of long calls.

        A change to promptir's memory footprint can move the cold penalty,
        and the calibrated figures of long calls by as much; so it is recorded.
        """
        return {"speed_factor": float(np.median(self.factors or [1.0])),
                "cold_penalty": float(np.median(self.cold_penalties or [1.0]))}


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def machine():
    """What a result depends on besides the code: cores, BLAS, versions."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Counts the operations and correctness checks of one run."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def ops(self, n=1):
        self.attempted += n

    def check(self, name, ok, detail=""):
        """One correctness check; a failure counts as a failed operation."""
        self.attempted += 1
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": []})
        if ok:
            entry["passed"] += 1
        else:
            self.failed += 1
            entry["failed"] += 1
            if len(entry["detail"]) < 5:
                entry["detail"].append(str(detail))
        return ok

    @property
    def correct(self):
        return self.failed == 0
