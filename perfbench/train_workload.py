"""train: the paper's training path, RIP -> UNM -> DPT -> index -> eval.

Backbone-mode RIP trains every weight and DPT trains only the prompts
against the frozen backbone, so the two use autodiff in opposite ways.
This is the only workload where backward and AdamW run.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import Calibration, build_model, build_promptset, dataset, model_seed, prompt_seed
from promptir import autodiff, evaluation, mining, pretrain, synth, training, vector_index
import stages

RIP_LR = 1e-4
MASK_RATE = 0.15


def setup(p, shape, seed):
    """Inputs and program state: corpus, vocabulary, backbone, BM25 index."""
    ds = dataset(seed, p["topics"], p["passages_per_topic"], p["queries_per_topic"])
    model = build_model(ds, shape, model_seed(seed))
    prepared = pretrain.PreparedCorpus(ds.corpus, pretrain.PretrainUnitConfig())
    bm25 = mining.bm25_build(ds.corpus)
    return {"ds": ds, "model": model, "prepared": prepared, "bm25": bm25}


def _rip(st, p, rng, run):
    """Backbone-mode RIP for a fixed number of steps; seconds per step."""
    model, prepared = st["model"], st["prepared"]
    m, max_len = p["rip_batch"], model.config.max_seq_len
    model.set_trainable(True)
    opt = autodiff.AdamW(model.parameters(), lr=RIP_LR, weight_decay=0.01,
                         warmup_ratio=0.1, total_steps=p["rip_steps"])
    warm = pretrain.sample_batch(prepared, prepared.cfg, m, np.random.default_rng(0),
                                 model.vocab, max_len, mask_rate=MASK_RATE)
    autodiff.backward(pretrain.rip_loss(warm, model)[0])  # warm-up; no update
    opt.zero_grad()
    times = []
    for _ in range(p["rip_steps"]):
        t0 = time.perf_counter()
        batch = pretrain.sample_batch(prepared, prepared.cfg, m, rng, model.vocab,
                                      max_len, mask_rate=MASK_RATE)
        loss, report = pretrain.rip_loss(batch, model)
        autodiff.backward(loss)
        opt.step()
        times.append(time.perf_counter() - t0)
        run.ops()
        run.check("rip_loss_finite", math.isfinite(report["combined"]), report)
    model.set_trainable(False)
    return times


def _dpt(st, p, examples, prompts, positives_of, rng, run, inject, cal):
    """Prompt-only DPT for a fixed number of steps; seconds per step."""
    model, texts = st["model"], dict(st["ds"].corpus)
    b = p["dpt_batch"]
    cfg = training.TrainConfig(mode="dpt", batch_size=b, negatives_per_query=p["negatives"],
                               use_in_batch_negatives=True, epochs=1)
    model.set_trainable(False)
    before = model.checksums()
    warm = prompts.copy()
    warm.set_trainable(True)
    training.train_step(examples[:b], model, warm, cfg,
                        autodiff.AdamW(warm.parameters(), lr=cfg.learning_rate),
                        texts, positives_of)  # warm-up on a throwaway prompt copy
    prompts.set_trainable(True)
    opt = autodiff.AdamW(prompts.parameters(), lr=cfg.learning_rate,
                         weight_decay=cfg.weight_decay, warmup_ratio=cfg.warmup_ratio,
                         total_steps=p["dpt_steps"])
    order = rng.permutation(len(examples))
    times = []
    for step in range(p["dpt_steps"]):
        batch = [examples[int(order[(step * b + j) % len(examples)])] for j in range(b)]
        report, dt = cal.timed(training.train_step, batch, model, prompts, cfg, opt, texts,
                               positives_of)
        times.append(dt)
        run.ops()
        run.check("dpt_loss_finite", math.isfinite(report.loss), report)
        if inject == "backbone" and step == 0:
            model.params["layer0.wq"].data[0, 0] += 1e-9
    prompts.set_trainable(False)
    after = model.checksums()
    changed = sorted(k for k in before if before[k] != after[k])
    run.check("backbone_unchanged_by_dpt", not changed, changed)
    return times


def pipeline(st, p, seed, run, inject="none"):
    """One pass of the training path; returns every measured figure."""
    ds, model = st["ds"], st["model"]
    rng = np.random.default_rng(seed)
    qtext = dict(ds.queries)
    texts = dict(ds.corpus)
    train_q, test_q = synth.split_queries(ds, p["n_train"], p["n_test"], seed=seed)
    f = {}
    cal = Calibration()

    rip_times = _rip(st, p, rng, run)
    f["rip_units_per_s"] = 2 * p["rip_batch"] / float(np.median(rip_times))

    # UNM for the train queries: BM25 plus dense from the RIP model
    index0 = vector_index.encode_corpus(ds.corpus, model, None)
    run.ops(len(ds.corpus))
    run.check("index_fingerprint", index0.fingerprint == model.fingerprint())
    retrievers = {"bm25": stages.bm25_retriever(st["bm25"]),
                  "dense": mining.DenseRetriever(index0, model, None)}
    mstats = stages.MiningStats()
    examples, mine_times = [], []
    for n, qid in enumerate(train_q):
        t0 = time.perf_counter()
        examples.append(stages.mine_one(
            qid, qtext[qid], ds.qrels[qid], retrievers, texts, p["mine_top_n"],
            p["negatives"], rng, mstats, run,
            leak=(inject == "leaked_positive" and n == 0)))
        mine_times.append(time.perf_counter() - t0)
    f["mine_qps"] = 1.0 / float(np.median(mine_times))
    f.update(mstats.as_figures())

    prompts = build_promptset(model, prompt_seed(seed))
    positives_of = {qid: set(pids) for qid, pids in ds.qrels.items()}
    dpt_times = _dpt(st, p, examples, prompts, positives_of, rng, run, inject, cal)
    f["dpt_examples_per_s"] = p["dpt_batch"] / float(np.median(dpt_times))
    f["dpt_step_ms"] = 1e3 * float(np.median(dpt_times))

    index, rates = stages.index_in_chunks(ds.corpus, model, prompts, p["index_chunks"],
                                          p["encode_per_call"], run, cal)
    if inject == "index_fingerprint":
        index.fingerprint = "0" * 64
    run.check("index_fingerprint", index.fingerprint == model.fingerprint(),
              index.fingerprint[:12])
    check_rng = np.random.default_rng(seed + 7)
    stages.check_index_rows(index, ds.corpus, model, prompts, check_rng,
                            p["check_sample"], run)
    test = [(qid, qtext[qid]) for qid in test_q]
    results, f["query_qps"] = stages.timed_queries(index, model, prompts, test, run, cal)
    stages.check_rankings(index, model, prompts, test, results, check_rng,
                          p["check_sample"], run)
    report = evaluation.evaluate(results, {q: ds.qrels[q] for q in test_q})
    f["mrr_at_10"] = report.mrr10
    f["recall_at_100"] = report.recalls[100]

    # Latency passes, then further rounds of the same index-and-query work,
    # so that rates are sampled over more of the run. Each re-encoded index
    # must reproduce the first one exactly.
    dense = mining.DenseRetriever(index, model, prompts)
    lat = {}
    stages.query_latencies(dense, list(ds.queries) * p["latency_passes"],
                           {x.query_id: x.ranking for x in results}, run, lat, cal)
    for _ in range(p["rounds"] - 1):
        again, more = stages.index_in_chunks(ds.corpus, model, prompts, p["index_chunks"],
                                             p["encode_per_call"], run, cal)
        rates += more
        run.check("index_deterministic", np.array_equal(again.vectors, index.vectors))
        stages.query_latencies(dense, list(ds.queries) * p["latency_passes"], {}, run,
                               lat, cal)
    f["index_passages_per_s"] = float(np.median(rates))
    f["query_latencies_s"] = stages.per_query(lat)
    f["throughput_per_s"] = f["dpt_examples_per_s"]
    f["calibration"] = cal.summary()
    return f
