"""Exact inner-product vector index.

No approximation anywhere: search is a full matrix-vector product, an
exact partial selection of the rows scoring at least the k-th best score
(every tie included), then a sort of those survivors. Ties break by
ascending passage id, so passage ids must be distinct. The index records
the fingerprint of the model that produced it. DenseRetriever is the one
query path (fingerprint check, tokenize, encode, search); run_queries
loops over it and mining uses it as its dense retriever.

An index lives in memory only. It is rebuilt from what training writes, the
checkpoint and the prompt set, so it has no file format to trust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import encode, encode_batch

ENCODE_BATCH = 128  # passages per packed forward; bounds encode_corpus memory


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


def encode_corpus(corpus, model, prompts, role="passage"):
    """Encode every passage in corpus order into a fresh index.

    Passages go through packed forwards of up to ENCODE_BATCH each; each
    row is bitwise what encode() gives for that passage alone (see the
    encoder module).
    """
    items = list(corpus.items()) if isinstance(corpus, dict) else list(corpus)
    seqs = []
    for pid, text in items:
        try:
            seqs.append(model.vocab.encode(text, max_len=model.config.max_seq_len))
        except (AttributeError, TypeError) as exc:
            raise RuntimeError(f"failed to encode passage {pid}: {exc}") from exc
    vecs = np.empty((len(seqs), model.config.hidden_size))
    for lo in range(0, len(seqs), ENCODE_BATCH):
        vecs[lo:lo + ENCODE_BATCH] = encode_batch(model, prompts, seqs[lo:lo + ENCODE_BATCH],
                                                  role=role)
    return VectorIndex(vecs, [pid for pid, _ in items], model.fingerprint())


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

    Validates the index fingerprint against the model once, so per-query
    calls stay cheap.
    """

    def __init__(self, index, model, prompts, role="query"):
        fp = model.fingerprint()
        if index.fingerprint != fp:
            raise ValueError(
                f"index was built with model {index.fingerprint[:12]}..., "
                f"got {fp[:12]}..."
            )
        self.index = index
        self.model = model
        self.prompts = prompts
        self.role = role

    def __call__(self, query_text, k):
        ids = self.model.vocab.encode(query_text, max_len=self.model.config.max_seq_len)
        return search(self.index, encode(self.model, self.prompts, ids, role=self.role), k)


def run_queries(index, model, prompts, queries, k, role="query"):
    """Search every (qid, text) query; returns RetrievalResults in order."""
    retrieve = DenseRetriever(index, model, prompts, role=role)
    return [RetrievalResult(query_id=qid, ranking=retrieve(text, k)) for qid, text in queries]
