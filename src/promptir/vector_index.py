"""Exact inner-product vector index.

No approximation anywhere: search is a full matrix-vector product, an
exact partial selection of the rows scoring at least the k-th best score
(every tie included), then a sort of those survivors. Ties break by
ascending passage id, so passage ids must be distinct. The index records
the fingerprint of the model that produced it. DenseRetriever is the one
query path (fingerprint check, tokenize, encode, search) and mining's
dense retriever. It projects its prompt prefix once, at construction, so a
call only tokenizes, encodes and searches; the prefix is a snapshot of the
prompts, and prompts trained afterwards need a new retriever. Build it
from frozen prompts, as training.fit leaves them: a trainable set's prefix
carries a tape, which every query through it would extend. run_queries
encodes its queries in packed forwards with one retriever's prefix, then
searches them one at a time, so its rankings are bitwise a lone call's.

Packed forwards hold consecutive sequences up to ROW_BUDGET token rows
(one sequence longer than that gets a forward alone). A budget in rows,
not sequences, keeps every array of a forward small -- the FFN's
(rows, ffn) intermediates are the largest -- so a forward works in cache
and the allocator reuses its memory rather than handing it back to the
OS and faulting it in again for the next. Batch invariance keeps each
row bitwise a lone encode whatever the budget.

The packs of one call run on the calling thread and one module-level
worker thread, each taking the next pack and writing its rows; a call
with one pack, or any call in a process allowed one CPU, runs inline. A
forward only reads the frozen weights and the tapeless prefix, plain
arrays (autodiff.Tensor), so threads can share them. One worker, because
each op's Python work holds the GIL: on 2 cores two threads encode about
a quarter faster than one. A caller never waits for a worker still busy
with another caller's packs.

An index lives in memory only. It is rebuilt from what training writes, the
checkpoint and the prompt set, so it has no file format to trust.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .encoder import encode, pooled, prefix_kv

ROW_BUDGET = 256  # token rows per packed forward; see the module docstring
# the one thread that shares packs with the caller; it starts at its first task
_WORKER = (ThreadPoolExecutor(max_workers=1, thread_name_prefix="promptir-encode")
           if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1 else None)


@dataclass
class RetrievalResult:
    query_id: str
    ranking: list  # [(passage_id, score)], scores non-increasing


class VectorIndex:
    def __init__(self, vectors, passage_ids, fingerprint):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(passage_ids):
            raise ValueError("index rows must match passage id count")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("index contains non-finite vectors")
        self.vectors = vectors
        self.passage_ids = list(passage_ids)
        if len(set(self.passage_ids)) != len(self.passage_ids):
            raise ValueError("index has a duplicate passage id")
        self.fingerprint = fingerprint
        # tie-break key: position of each row's pid in ascending pid order
        order = np.argsort(np.array(self.passage_ids))
        self._pid_rank = np.empty(len(order), dtype=np.int64)
        self._pid_rank[order] = np.arange(len(order))

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.passage_ids)


def encode_corpus(corpus, model, prompts):
    """Encode every passage in corpus order into a fresh index.

    The passage prefix is projected once; passages go through packed
    forwards of up to ROW_BUDGET token rows each, and each row is bitwise
    what encode() gives for that passage alone (see the encoder module).
    """
    items = list(corpus.items()) if isinstance(corpus, dict) else list(corpus)
    seqs = []
    for pid, text in items:
        try:
            seqs.append(model.vocab.encode(text, max_len=model.config.max_seq_len))
        except (AttributeError, TypeError) as exc:
            raise RuntimeError(f"failed to encode passage {pid}: {exc}") from exc
    vecs = _encode_packed(model, prefix_kv(model, prompts, "passage"), seqs)
    return VectorIndex(vecs, [pid for pid, _ in items], model.fingerprint())


def _encode_packed(model, prefix, seqs):
    """(len(seqs), d) vectors; each packed forward takes consecutive
    sequences while their rows fit ROW_BUDGET, and at least one."""
    vecs = np.empty((len(seqs), model.config.hidden_size))
    todo, lo, rows = [], 0, 0  # (lo, hi) of each pack
    for hi, ids in enumerate(seqs):
        if hi > lo and rows + len(ids) > ROW_BUDGET:
            todo.append((lo, hi))
            lo, rows = hi, 0
        rows += len(ids)
    if lo < len(seqs):
        todo.append((lo, len(seqs)))
    todo.reverse()  # popped from the end, so taken in order

    def drain():  # list.pop is atomic: each pack runs once, on one thread
        while True:
            try:
                start, stop = todo.pop()
            except IndexError:
                return
            vecs[start:stop] = pooled(model, seqs[start:stop], prefix).data

    if _WORKER is None or len(todo) < 2:
        drain()
        return vecs
    helper = _WORKER.submit(drain)
    try:
        drain()
    finally:
        todo.clear()  # after an error the worker stops at its current pack
        if not helper.cancel():  # still queued behind another call: not needed
            helper.result()
    return vecs


def search(index, query_vector, k):
    """Exact top-k by inner product; ties by ascending passage id."""
    if k < 1:
        raise ValueError("search: k must be >= 1")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(
            f"search: query dimension {q.shape} does not match index ({index.dim},)"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("search: query vector has non-finite values")
    scores = index.vectors @ q
    rows = np.arange(len(scores))
    if k < len(scores):  # keep every row scoring at least the k-th best, ties included
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        rows = np.flatnonzero(scores >= kth)
    order = rows[np.lexsort((index._pid_rank[rows], -scores[rows]))][:k]
    return list(zip([index.passage_ids[i] for i in order.tolist()], scores[order].tolist()))


class DenseRetriever:
    """Exact inner-product retrieval bound to one model/index pair.

    Validates the index fingerprint against the model and projects the
    prompts' query prefix once, so per-query calls stay cheap.
    """

    def __init__(self, index, model, prompts):
        fp = model.fingerprint()
        if index.fingerprint != fp:
            raise ValueError(
                f"index was built with model {index.fingerprint[:12]}..., "
                f"got {fp[:12]}..."
            )
        self.index = index
        self.model = model
        self.prefix = prefix_kv(model, prompts, "query")

    def tokens(self, query_text):
        return self.model.vocab.encode(query_text, max_len=self.model.config.max_seq_len)

    def __call__(self, query_text, k):
        return search(self.index, encode(self.model, self.prefix, self.tokens(query_text)), k)


def run_queries(index, model, prompts, queries, k):
    """Search every (qid, text) query; returns RetrievalResults in order."""
    retrieve = DenseRetriever(index, model, prompts)
    queries = list(queries)
    vecs = _encode_packed(model, retrieve.prefix, [retrieve.tokens(text) for _, text in queries])
    return [RetrievalResult(query_id=qid, ranking=search(index, vec, k))
            for (qid, _), vec in zip(queries, vecs)]
