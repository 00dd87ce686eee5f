"""Span tracing of the promptir layers, installed from outside the program.

Tracing replaces the public functions of each measured module (and a few
public methods) with wrappers that record one span per call: name, start,
end, parent span and request id. Names that other modules rebound with
``from .module import name`` are replaced too, by identity, so a call is
traced whichever module it goes through. Spans stay in per-thread memory
buffers and are written out once, when the run ends.

Self time is a span's duration minus the durations of its direct children;
children run on the same thread inside their parent, so they never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

MEASURED = ("autodiff", "encoder", "prompts", "tokenizer", "pretrain", "mining",
            "training", "vector_index", "evaluation", "serving")

# Public methods traced beside each module's public functions.
METHODS = {
    "autodiff": {"AdamW": ("step",)},
    "encoder": {"EncoderModel": ("fingerprint", "checksums")},
    "prompts": {"PromptSet": ("realize",)},
    "tokenizer": {"Vocabulary": ("encode",)},
    "mining": {"DenseRetriever": ("__call__",), "LexicalOverlapScorer": ("score",)},
    "serving": {"EncodingService": ("register", "encode_vector", "encode_response",
                                    "encode_binary")},
}

# Rebound names the trace must reach; install() fails if one is missed.
REBOUND = {
    "serving": ("encode_states", "prefix_kv", "promptset_from_json"),
    "pretrain": ("encode_states", "mlm_logits", "prefix_kv"),
    "training": ("prefix_kv",),
    "vector_index": ("encode",),
}

# autodiff entry points that are not tensor ops
_NOT_OPS = {"backward", "grad_check", "AdamW.step"}


class _Buffer:
    """Spans of one thread, in start order (a parent precedes its children)."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request_id = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_request(self, request_id):
        """Tag the spans this thread records from now on with a request id."""
        self._buffer().request_id = request_id

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, hook=None):
        """``fn`` recording a span per call; ``hook`` sees each result."""
        nid = self._name_id(name)
        buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            i = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.request.append(buf.request_id)
            buf.end.append(0.0)
            buf.stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                buf.end[i] = clock()
                buf.stack.pop()

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra=(), hooks=None):
        """Wrap every measured layer.

        ``extra`` adds (owner, attr, span name) triples; ``hooks`` maps a span
        name to a callable that receives each result of that call.
        """
        hooks = hooks or {}
        mods = {m: importlib.import_module(f"promptir.{m}") for m in MEASURED}
        wrapped = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
                    self._patch(mod, attr, wrapped[id(obj)])
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}",
                                                     cls.__dict__[meth]))
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        # names rebound by ``from .x import f`` still point at the originals
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("promptir.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for short, names in REBOUND.items():
            for attr in names:
                if not hasattr(getattr(mods[short], attr), "__wrapped__"):
                    raise RuntimeError(f"trace misses {short}.{attr}")
        return self

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def spans(self):
        """All spans as numpy arrays; parent indexes the same arrays."""
        parts = {k: [] for k in ("name", "parent", "request", "start", "end", "thread")}
        offset = 0
        for t, buf in enumerate(list(self._buffers)):
            n = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int32)[:n].astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n].astype(np.int64))
            parts["request"].append(np.frombuffer(buf.request, dtype=np.int64)[:n].copy())
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64)[:n].copy())
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:n].copy())
            parts["thread"].append(np.full(n, t, dtype=np.int64))
            offset += n
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in parts.items()}
        out["names"] = np.array(self.names)
        return out


def load(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _within(spans, names):
    """Mask of spans that have an ancestor (strictly above) named in names."""
    ids = [i for i, n in enumerate(spans["names"]) if n in names]
    n = len(spans["end"])
    if not ids or n == 0:
        return np.zeros(n, dtype=bool)
    parent = spans["parent"].astype(np.int64)
    is_target = np.isin(spans["name"], ids)
    # walk every span's ancestry up one level per pass
    flag = np.zeros(n, dtype=bool)
    has = parent >= 0
    flag[has] = is_target[parent[has]]
    hop = parent.copy()
    while True:
        live = hop >= 0
        if not live.any():
            break
        nxt = np.full(n, -1, dtype=np.int64)
        nxt[live] = parent[hop[live]]
        upd = nxt >= 0
        flag[upd] |= is_target[nxt[upd]]
        hop = nxt
    return flag


def layer_stats(spans):
    """Per span name: calls, total seconds and self seconds."""
    n_names = len(spans["names"])
    name = spans["name"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur)) if len(dur) else dur
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_s = np.bincount(name, weights=dur - child, minlength=n_names)
    return {str(nm): {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, nm in enumerate(spans["names"])}


def autodiff_ops_within(spans, outer):
    """Public autodiff op calls made inside spans named ``outer``, per such span."""
    names = spans["names"]
    op_ids = [i for i, n in enumerate(names)
              if n.startswith("autodiff.") and n[len("autodiff."):] not in _NOT_OPS]
    calls = int(np.isin(spans["name"], [i for i, n in enumerate(names) if n == outer]).sum())
    if not calls:
        return 0.0
    return float((_within(spans, {outer}) & np.isin(spans["name"], op_ids)).sum()) / calls


def per_layer(names, spans, known):
    """Values of the declared per-layer metrics.

    ``<span name>.calls``, ``.s`` and ``.self_s`` come from the spans; other
    names come from ``known`` (counts and ratios measured elsewhere) and are
    0 on a workload that does not measure them.
    """
    stats = layer_stats(spans)
    known = dict(known)
    known["autodiff.ops_per_dpt_step"] = autodiff_ops_within(spans, "training.train_step")
    known["autodiff.ops_per_sequence"] = autodiff_ops_within(spans, "encoder.encode_states")
    known["trace.spans"] = float(len(spans["end"]))
    values = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "s", "self_s") and name not in known:
            values[name] = float(stats.get(base, {}).get(stat, 0.0))
        else:
            values[name] = float(known.get(name, 0.0))
    return values
