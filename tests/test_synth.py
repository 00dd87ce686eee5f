"""Synthetic benchmark generator: determinism, qrels integrity, topic
separability under the overlap dial."""

import numpy as np
import pytest

from promptir.mining import bm25_build, bm25_search
from promptir.evaluation import mrr_at_k
from promptir.synth import SynthConfig, generate, split_queries
from promptir.vector_index import RetrievalResult


class TestGenerate:
    def test_same_seed_byte_identical(self):
        cfg = SynthConfig(num_topics=4, passages_per_topic=5, seed=7)
        assert generate(cfg) == generate(cfg)

    def test_different_seed_differs(self):
        a = generate(SynthConfig(num_topics=2, passages_per_topic=3, seed=0))
        b = generate(SynthConfig(num_topics=2, passages_per_topic=3, seed=1))
        assert a.corpus != b.corpus

    def test_qrels_reference_existing_ids(self):
        data = generate(SynthConfig(num_topics=3, passages_per_topic=4))
        pids = {pid for pid, _ in data.corpus}
        qids = {qid for qid, _ in data.queries}
        for qid, rel in data.qrels.items():
            assert qid in qids
            assert rel <= pids
            assert len(rel) == 1  # one positive per query by default

    def test_counts(self):
        cfg = SynthConfig(num_topics=3, passages_per_topic=4, queries_per_topic=2)
        data = generate(cfg)
        assert len(data.corpus) == 12
        assert len(data.queries) == 6

    def test_positive_in_same_topic(self):
        data = generate(SynthConfig(num_topics=3, passages_per_topic=4))
        for qid, rel in data.qrels.items():
            for pid in rel:
                assert data.topic_of_passage[pid] == data.topic_of_query[qid]

    def test_zero_overlap_bm25_topic_purity(self):
        # with no background words, a topic keyword only matches its topic
        cfg = SynthConfig(num_topics=4, passages_per_topic=6,
                          overlap_fraction=0.0, seed=3)
        data = generate(cfg)
        index = bm25_build(data.corpus)
        for qid, text in data.queries[:8]:
            topic = data.topic_of_query[qid]
            for pid, _score in bm25_search(index, text, 50):
                assert data.topic_of_passage[pid] == topic

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap_fraction"):
            SynthConfig(overlap_fraction=1.0)


class TestSplitQueries:
    def test_disjoint_and_deterministic(self):
        data = generate(SynthConfig(num_topics=4, passages_per_topic=4,
                                    queries_per_topic=3))
        tr1, te1 = split_queries(data, 8, 4, seed=2)
        tr2, te2 = split_queries(data, 8, 4, seed=2)
        assert tr1 == tr2 and te1 == te2
        assert not (set(tr1) & set(te1))
        assert len(tr1) == 8 and len(te1) == 4

    def test_too_many_requested(self):
        data = generate(SynthConfig(num_topics=2, passages_per_topic=2,
                                    queries_per_topic=1))
        with pytest.raises(ValueError):
            split_queries(data, 2, 1)


class TestSeparabilityDial:
    def test_bm25_mrr_nonincreasing_in_overlap(self):
        # median over seeds of BM25 MRR@10 must not improve as topics blur;
        # the shared pool is small so its words are corpus-common
        medians = []
        for overlap in (0.0, 0.45, 0.9):
            values = []
            for seed in (0, 1, 2):
                cfg = SynthConfig(num_topics=5, passages_per_topic=8,
                                  queries_per_topic=10, overlap_fraction=overlap,
                                  background_vocab_size=20, seed=seed)
                data = generate(cfg)
                index = bm25_build(data.corpus)
                results = [RetrievalResult(qid, bm25_search(index, text, 10))
                           for qid, text in data.queries]
                values.append(mrr_at_k(results, data.qrels, k=10)[0])
            medians.append(float(np.median(values)))
        assert medians[0] >= medians[1] >= medians[2]
