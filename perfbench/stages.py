"""Stages that both in-process workloads run through the public promptir API.

Each stage times calls from outside and checks what they return; the
reference computations here are plain numpy over the program's outputs.
"""

from __future__ import annotations

import numpy as np

from promptir import encoder, mining, vector_index

K = 100  # retrieval depth for run_queries and mining (ROADMAP: k=100)
SCORER = mining.LexicalOverlapScorer()
SAMPLE_SIZE = 30  # undenoised candidates sampled per query (mining default)


def encode_rate(items, model, promptset, per_call, run, cal):
    """encode_corpus over ``items``, ``per_call`` passages per timed call.

    Returns the index of ``items`` and their passages per second at the
    reference speed (common.Calibration).
    """
    fp = model.fingerprint()
    vectors, pids, seconds = [], [], 0.0
    for start in range(0, len(items), per_call):
        part = items[start:start + per_call]
        idx, dt = cal.timed(vector_index.encode_corpus, part, model, promptset)
        seconds += dt
        run.ops(len(part))
        run.check("index_fingerprint", idx.fingerprint == fp,
                  f"chunk index {idx.fingerprint[:12]} != model {fp[:12]}")
        vectors.append(idx.vectors)
        pids.extend(idx.passage_ids)
    return vector_index.VectorIndex(np.vstack(vectors), pids, fp), len(items) / seconds


def index_in_chunks(corpus, model, promptset, n_chunks, per_call, run, cal):
    """The whole corpus indexed in ``n_chunks`` chunks; one index, one rate per chunk."""
    rates, parts = [], []
    for part in np.array_split(np.arange(len(corpus)), n_chunks):
        idx, rate = encode_rate([corpus[int(i)] for i in part], model, promptset,
                                per_call, run, cal)
        rates.append(rate)
        parts.append(idx)
    index = vector_index.VectorIndex(np.vstack([i.vectors for i in parts]),
                                     [pid for i in parts for pid in i.passage_ids],
                                     model.fingerprint())
    return index, rates


def check_index_rows(index, corpus, model, promptset, rng, n, run):
    """Sampled index rows equal a fresh in-process encode of their passage."""
    texts = dict(corpus)
    cfg = model.config
    for row in rng.choice(len(index), size=min(n, len(index)), replace=False):
        pid = index.passage_ids[int(row)]
        ids = model.vocab.encode(texts[pid], max_len=cfg.max_seq_len)
        ref = encoder.encode(model, promptset, ids, role="passage")
        run.check("index_rows", np.array_equal(index.vectors[int(row)], ref), pid)


def reference_ranking(index, vector, k):
    scores = index.vectors @ vector
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], index.passage_ids[i]))
    return [(index.passage_ids[i], float(scores[i])) for i in order[:k]]


def check_rankings(index, model, promptset, queries, results, rng, n, run):
    """Sampled run_queries rankings equal an exact numpy top-k."""
    cfg = model.config
    for i in rng.choice(len(queries), size=min(n, len(queries)), replace=False):
        qid, text = queries[int(i)]
        vec = encoder.encode(model, promptset,
                             model.vocab.encode(text, max_len=cfg.max_seq_len))
        ok = results[int(i)].query_id == qid and \
            results[int(i)].ranking == reference_ranking(index, vec, K)
        run.check("rankings", ok, qid)


def timed_queries(index, model, promptset, queries, run, cal):
    """One run_queries call (k=K); its results and queries per second."""
    results, dt = cal.timed(vector_index.run_queries, index, model, promptset, queries, K)
    run.ops(len(queries))
    return results, len(queries) / dt


def query_latencies(retriever, queries, expected, run, times, cal):
    """Time one DenseRetriever call per entry of ``queries``.

    Appends each call's seconds to ``times[qid]``. ``expected`` maps query
    ids to the run_queries ranking the same model and index gave; a query's
    first call after its ranking is known must reproduce it.
    """
    for qid, text in queries:
        ranking, dt = cal.timed(retriever, text, K)
        times.setdefault(qid, []).append(dt)
        run.ops()
        if qid in expected:
            run.check("dense_matches_run_queries", ranking == expected.pop(qid), qid)


def per_query(times):
    """Each query's latency: the median of its repeated timings.

    Repeats filter out one-off stalls of the machine, so the tail over
    queries reflects what the queries cost rather than when they ran.
    """
    return [float(np.median(v)) for v in times.values()]


class MiningStats:
    """Data-health ratios of UNM mining, summed over queries."""

    def __init__(self):
        self.queries = 0
        self.candidates = 0
        self.kept = 0
        self.shortfalls = 0
        self.negatives = 0
        self.dense = 0

    def as_figures(self):
        q = max(1, self.queries)
        return {
            "mining.denoise.keep_rate": self.kept / max(1, self.candidates),
            "mining.pool_size_mean": self.candidates / q,
            "mining.assemble.shortfall_rate": self.shortfalls / q,
            "mining.assemble.dense_share": self.dense / max(1, self.negatives),
        }


def mine_one(qid, text, positives, retrievers, texts, top_n, negatives, rng, stats,
             run, leak=False):
    """UNM for one query: mine, denoise, assemble; checks that no positive leaks."""
    n_denoised = negatives // 2
    pool = mining.mine(qid, text, positives, retrievers, top_n=top_n,
                       sample_size=SAMPLE_SIZE, rng=rng)
    mining.denoise(pool, text, texts, SCORER)
    example = mining.assemble(qid, text, positives, pool, n_denoised,
                              negatives - n_denoised, rng=rng)
    if leak:
        example.neg_pids.append(sorted(positives)[0])
    run.ops()
    leaked = (set(example.neg_pids) | {c.pid for c in pool.candidates}) & set(positives)
    run.check("no_positive_in_negatives", not leaked, f"{qid}: {sorted(leaked)}")
    stats.queries += 1
    stats.candidates += len(pool.candidates)
    stats.kept += len(pool.denoised)
    stats.shortfalls += example.neg_tags.count("denoised") < n_denoised
    stats.negatives += len(example.neg_pids)
    stats.dense += sum("dense" in pool.provenance.get(pid, ()) for pid in example.neg_pids)
    return example


def bm25_retriever(index):
    return lambda text, n: mining.bm25_search(index, text, n)
