"""retrieve: inference only, on a corpus four times the train workload's.

The backbone and prompt set come from fixed seeds with no training, so the
encoder runs forward only; search and mining dominate. Passages of about
37 tokens sit beside queries of about 4, which gives batching and length
bucketing something to show.
"""

from __future__ import annotations

import numpy as np

from common import Calibration, build_model, build_promptset, dataset, model_seed, prompt_seed
from promptir import evaluation, mining, vector_index
import stages


def setup(p, shape, seed):
    """Inputs and program state: corpus, vocabulary, backbone, prompts, BM25."""
    ds = dataset(seed, p["topics"], p["passages_per_topic"], p["queries_per_topic"])
    model = build_model(ds, shape, model_seed(seed))
    prompts = build_promptset(model, prompt_seed(seed))
    bm25 = mining.bm25_build(ds.corpus)
    return {"ds": ds, "model": model, "prompts": prompts, "bm25": bm25}


def pipeline(st, p, seed, run, inject="none"):
    """Index, then query and mine every query once; every measured figure.

    After the first full index, the queries are handled in chunks. Each
    chunk runs run_queries, a portion of the latency timings and UNM
    mining, then re-encodes the head of one chunk of the corpus, so every
    rate is sampled across the whole run. The re-encoded rows must equal
    the index rows. Every timed call is calibrated (common.Calibration).
    """
    ds, model, prompts = st["ds"], st["model"], st["prompts"]
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng(seed + 7)
    texts = dict(ds.corpus)
    queries = list(ds.queries)
    f = {}
    cal = Calibration()

    # warm-up: first encodes run slower (allocator and caches)
    vector_index.encode_corpus(ds.corpus[:20], model, prompts)

    index, rates = stages.index_in_chunks(ds.corpus, model, prompts, p["chunks"],
                                          p["encode_per_call"], run, cal)
    if inject == "index_fingerprint":
        index.fingerprint = "0" * 64
    run.check("index_fingerprint", index.fingerprint == model.fingerprint(),
              index.fingerprint[:12])
    stages.check_index_rows(index, ds.corpus, model, prompts, check_rng,
                            p["check_sample"], run)
    dense = mining.DenseRetriever(index, model, prompts)
    retrievers = {"bm25": stages.bm25_retriever(st["bm25"]), "dense": dense}

    mstats = stages.MiningStats()
    qrates, mrates, results, lat, expected = [], [], [], {}, {}
    passage_parts = np.array_split(np.arange(len(ds.corpus)), p["chunks"])
    query_parts = np.array_split(np.arange(len(queries)), p["chunks"])
    # Latency timings: several passes over every query, each in its own order,
    # cut into one portion per chunk. A query's timings then lie seconds
    # apart, so a stall of the machine reaches at most one of them and the
    # median of its timings stays what the query costs.
    lat_rng = np.random.default_rng(seed + 11)
    order = np.concatenate([lat_rng.permutation(len(queries))
                            for _ in range(p["latency_passes"])])
    lat_parts = np.array_split(order, p["chunks"])
    for c, (qpart, ppart, lpart) in enumerate(zip(query_parts, passage_parts, lat_parts)):
        batch = [queries[int(i)] for i in qpart]
        res, rate = stages.timed_queries(index, model, prompts, batch, run, cal)
        results += res
        qrates.append(rate)
        stages.check_rankings(index, model, prompts, batch, res, check_rng, 1, run)
        expected.update((x.query_id, x.ranking) for x in res)
        stages.query_latencies(dense, [queries[int(i)] for i in lpart], expected, run,
                               lat, cal)

        seconds = 0.0
        for n, (qid, text) in enumerate(batch):
            _, dt = cal.timed(stages.mine_one, qid, text, ds.qrels[qid], retrievers, texts,
                              p["mine_top_n"], p["negatives"], rng, mstats, run,
                              leak=(inject == "leaked_positive" and c == n == 0))
            seconds += dt
        mrates.append(len(batch) / seconds)

        head = ppart[:p["reencode"]]
        again, rate = stages.encode_rate([ds.corpus[int(i)] for i in head], model, prompts,
                                         p["encode_per_call"], run, cal)
        rates.append(rate)
        run.check("index_deterministic",
                  np.array_equal(again.vectors, index.vectors[head[0]:head[-1] + 1]))

    # queries whose timings all came before their run_queries chunk
    for qid, text in queries:
        if qid in expected:
            run.check("dense_matches_run_queries",
                      dense(text, stages.K) == expected.pop(qid), qid)

    report = evaluation.evaluate(results, ds.qrels)
    f["mrr_at_10"] = report.mrr10
    f["recall_at_100"] = report.recalls[100]
    f["index_passages_per_s"] = float(np.median(rates))
    f["query_qps"] = float(np.median(qrates))
    f["mine_qps"] = float(np.median(mrates))
    f["query_latencies_s"] = stages.per_query(lat)
    f.update(mstats.as_figures())
    f["throughput_per_s"] = f["mine_qps"]
    f["calibration"] = cal.summary()
    return f
