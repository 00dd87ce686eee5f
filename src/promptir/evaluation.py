"""Retrieval metrics and representation-quality diagnostics.

MRR@k and Recall@k of vector_index.RetrievalResults over qrels, plus the
alignment/uniformity pair of representation measures (squared-distance
alignment with alpha=2, log-mean-exp uniformity with t=2, computed on
L2-normalized vectors by default; a no-normalize mode is provided for
diagnostics on raw spaces). Reports are returned as dataclasses; nothing
here writes a file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_rankings(results):
    """{query_id: [passage_id, ...]} in rank order from RetrievalResults."""
    return {res.query_id: [pid for pid, _score in res.ranking] for res in results}


def _check_qrels(rankings, qrels):
    missing = [qid for qid in rankings if qid not in qrels]
    if missing:
        raise ValueError(f"queries missing from qrels: {missing[:5]}")


def mrr_at_k(results, qrels, k=10):
    """Mean reciprocal rank of the first relevant passage within top k.

    Returns (value, per-query reciprocal ranks).
    """
    rankings = _as_rankings(results)
    _check_qrels(rankings, qrels)
    per_query = {}
    for qid, ranked in rankings.items():
        relevant = qrels[qid]
        rr = 0.0
        for rank, pid in enumerate(ranked[:k], start=1):
            if pid in relevant:
                rr = 1.0 / rank
                break
        per_query[qid] = rr
    value = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return value, per_query


def recall_at_k(results, qrels, k):
    """Mean over queries of |relevant ∩ top-k| / |relevant|."""
    rankings = _as_rankings(results)
    _check_qrels(rankings, qrels)
    per_query = {}
    for qid, ranked in rankings.items():
        relevant = qrels[qid]
        if not relevant:
            raise ValueError(f"query {qid} has no relevant passages in qrels")
        hits = sum(1 for pid in ranked[:k] if pid in relevant)
        per_query[qid] = hits / len(relevant)
    value = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return value, per_query


@dataclass
class EvalReport:
    mrr10: float
    recalls: dict  # cut -> value
    per_query_rr: dict
    query_count: int


def evaluate(results, qrels, recall_cuts=(5, 20, 100, 1000)):
    mrr, per_query = mrr_at_k(results, qrels, k=10)
    recalls = {k: recall_at_k(results, qrels, k)[0] for k in recall_cuts}
    return EvalReport(
        mrr10=mrr, recalls=recalls, per_query_rr=per_query,
        query_count=len(per_query),
    )


# ---------------------------------------------------------------------------
# Alignment / uniformity
# ---------------------------------------------------------------------------


@dataclass
class RepresentationQuality:
    l_align: float
    l_uniform: float
    pair_count: int
    normalized: bool


def _l2_normalize(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return x / norms


def alignment_uniformity(pairs, normalize=True):
    """Representation diagnostics over positive pairs.

    l_align = mean over pairs of ||x - x+||^2 (alpha=2).
    l_uniform = log mean over all ordered i != j of exp(-2 ||x_i - x_j||^2)
    (t=2), computed over the union of all pair members.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("alignment_uniformity: empty input")
    left = np.asarray([np.asarray(a, dtype=np.float64) for a, _ in pairs])
    right = np.asarray([np.asarray(b, dtype=np.float64) for _, b in pairs])
    if normalize:
        left, right = _l2_normalize(left), _l2_normalize(right)

    l_align = float(np.mean(np.sum((left - right) ** 2, axis=1)))

    points = np.vstack([left, right])
    n = points.shape[0]
    if n < 2:
        raise ValueError("uniformity needs at least 2 vectors")
    sq = np.sum(points**2, axis=1)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(dist2, 0.0, out=dist2)
    off_diag = ~np.eye(n, dtype=bool)
    l_uniform = float(np.log(np.mean(np.exp(-2.0 * dist2[off_diag]))))

    return RepresentationQuality(
        l_align=l_align, l_uniform=l_uniform, pair_count=len(pairs),
        normalized=normalize,
    )
