"""Unified negative mining.

A built-in Okapi BM25 retriever over an inverted index, denoising with a
fixed relevance threshold, and hybrid assembly of training examples from
denoised plus un-denoised candidates. Dense candidates come from
vector_index.DenseRetriever, re-exported here. A denoising scorer is any
object with score(query_text, passage_text) -> relevance in [0, 1];
LexicalOverlapScorer is the built-in one. It reads each text's content
words from one process-wide cache, bounded at 65,536 texts: queries and
passages recur across candidates, so nearly every lookup is a hit. Pools
live in memory and are not written out. Known positives of a query never
survive into any sample.

BM25 parameters k1=0.9, b=0.4; the non-negative idf variant
ln((N - df + 0.5) / (df + 0.5) + 1). The index tokenizes with the same
word splitter as the encoder vocabulary's raw token stream.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tokenizer import content_words, tokenize_words
from .training import TrainingExample
from .vector_index import DenseRetriever  # noqa: F401  (re-exported for mine() callers)

log = logging.getLogger(__name__)

BM25_K1 = 0.9
BM25_B = 0.4


class InvertedIndex:
    """Term postings with per-passage lengths for Okapi scoring."""

    def __init__(self, postings, doc_len, avg_len, size):
        self.postings = postings  # term -> [(pid, tf)] sorted by pid
        self.doc_len = doc_len
        self.avg_len = avg_len
        self.size = size

    def document_frequency(self, term):
        return len(self.postings.get(term, ()))

    def idf(self, term):
        df = self.document_frequency(term)
        return math.log((self.size - df + 0.5) / (df + 0.5) + 1.0)


def bm25_build(corpus):
    """Inverted index over (pid, text) pairs."""
    items = list(corpus.items()) if isinstance(corpus, dict) else list(corpus)
    if not items:
        raise ValueError("bm25_build: empty corpus")
    postings = {}
    doc_len = {}
    for pid, text in items:
        tokens = tokenize_words(text)
        doc_len[pid] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((pid, tf))
    for plist in postings.values():
        plist.sort(key=lambda entry: entry[0])
    avg_len = sum(doc_len.values()) / len(doc_len)
    return InvertedIndex(postings, doc_len, avg_len, len(items))


def bm25_score(index, tf, doc_length, idf):
    norm = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_length / index.avg_len)
    return idf * tf * (BM25_K1 + 1.0) / norm


def bm25_search(index, query_text, k):
    """Top-k passages by Okapi score; only passages containing at least one
    query term are ranked. Ties break by ascending passage id."""
    if k <= 0:
        raise ValueError("bm25_search: k must be >= 1")
    scores = {}
    for term in tokenize_words(query_text):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for pid, tf in plist:
            scores[pid] = scores.get(pid, 0.0) + bm25_score(
                index, tf, index.doc_len[pid], idf
            )
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


# ---------------------------------------------------------------------------
# Denoising scorer
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 16)
def _word_set(text):
    """A text's distinct content words as interned strings, in first-seen order.

    A tuple, not a frozenset: it holds the cached texts in less memory.
    """
    return tuple(dict.fromkeys(map(sys.intern, content_words(text))))


class LexicalOverlapScorer:
    """|query ∩ passage| / |query| over unique content words."""

    def score(self, query_text, passage_text):
        q = _word_set(query_text)
        if not q:
            return 0.0
        return len(set(q).intersection(_word_set(passage_text))) / len(q)


# ---------------------------------------------------------------------------
# Pool mining
# ---------------------------------------------------------------------------


@dataclass
class PoolCandidate:
    pid: str
    best_rank: int
    best_tag: str
    tags: tuple


@dataclass
class NegativePool:
    query_id: str
    retriever_lists: dict  # tag -> [(pid, score)] as returned
    candidates: list  # merged, deduplicated, positives removed
    undenoised_sample: list  # sampled passage ids
    denoised: list = None  # filled by denoise()
    provenance: dict = field(default_factory=dict)  # pid -> tuple of tags

    def candidate_by_pid(self):
        return {c.pid: c for c in self.candidates}


def merge_candidates(retriever_lists, positives):
    """Merge ranked lists, drop known positives, deduplicate keeping the
    best (lowest) rank, union provenance tags."""
    merged = {}
    for tag in sorted(retriever_lists):
        for rank, (pid, _score) in enumerate(retriever_lists[tag], start=1):
            if pid in positives:
                continue
            cand = merged.get(pid)
            if cand is None:
                merged[pid] = PoolCandidate(pid, rank, tag, (tag,))
            else:
                tags = tuple(sorted(set(cand.tags) | {tag}))
                if rank < cand.best_rank:
                    merged[pid] = PoolCandidate(pid, rank, tag, tags)
                else:
                    merged[pid] = PoolCandidate(pid, cand.best_rank, cand.best_tag, tags)
    return sorted(merged.values(), key=lambda c: (c.best_rank, c.pid))


def mine(query_id, query_text, positives, retrievers, top_n=200,
         sample_size=30, rng=None):
    """Build a query's negative pool from one or more retrievers.

    Per retriever, take the top_n ranking; merge with positives removed;
    sample sample_size candidates uniformly without replacement (all of
    them when the pool is smaller).
    """
    if not retrievers:
        raise ValueError("mine: need at least one retriever")
    rng = rng if rng is not None else np.random.default_rng(0)
    retriever_lists = {
        tag: list(fn(query_text, top_n)) for tag, fn in sorted(retrievers.items())
    }
    candidates = merge_candidates(retriever_lists, set(positives))
    if len(candidates) <= sample_size:
        sample = [c.pid for c in candidates]
    else:
        picks = rng.choice(len(candidates), size=sample_size, replace=False)
        sample = [candidates[int(i)].pid for i in picks]
    if not sample:
        log.warning("query %s: empty negative pool", query_id)
    pool = NegativePool(
        query_id=query_id,
        retriever_lists=retriever_lists,
        candidates=candidates,
        undenoised_sample=sample,
    )
    pool.provenance = {c.pid: c.tags for c in candidates}
    return pool


def denoise(pool, query_text, passage_texts, scorer, threshold=0.1):
    """Keep candidates the scorer rates below the relevance threshold.

    A scorer failure on a passage excludes it (fail-closed) and is logged.
    """
    kept = []
    for cand in pool.candidates:
        try:
            value = scorer.score(query_text, passage_texts[cand.pid])
        except Exception:
            log.warning("query %s: scorer failed on %s; excluded",
                        pool.query_id, cand.pid, exc_info=True)
            continue
        if value < threshold:
            kept.append(cand.pid)
    pool.denoised = kept
    return pool


def assemble(query_id, query_text, positives, pool, n_denoised, n_undenoised,
             rng=None):
    """TrainingExample with n_denoised + n_undenoised negatives.

    Denoised picks come first; the un-denoised quota (plus any shortfall
    backfill) is drawn from the sampled candidates, deduplicated. Emits a
    zero-negative example with a warning when the pool is empty.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    by_pid = pool.candidate_by_pid()
    chosen, tags = [], []

    denoised_pool = list(pool.denoised or [])
    take = min(n_denoised, len(denoised_pool))
    if take:
        picks = rng.choice(len(denoised_pool), size=take, replace=False)
        for i in picks:
            pid = denoised_pool[int(i)]
            chosen.append(pid)
            tags.append("denoised")

    shortfall = n_denoised - take
    remaining = [p for p in pool.undenoised_sample if p not in set(chosen)]
    take_u = min(n_undenoised + shortfall, len(remaining))
    if take_u:
        picks = rng.choice(len(remaining), size=take_u, replace=False)
        for i in picks:
            pid = remaining[int(i)]
            chosen.append(pid)
            tags.append(by_pid[pid].best_tag)

    overlap = set(chosen) & set(positives)
    if overlap:
        raise AssertionError(
            f"query {query_id}: positives leaked into negatives: {overlap}"
        )
    if not chosen:
        log.warning("query %s: assembled example has no negatives", query_id)
    return TrainingExample(
        qid=query_id, query=query_text, pos_pid=sorted(positives)[0],
        neg_pids=chosen, neg_tags=tags,
    )
