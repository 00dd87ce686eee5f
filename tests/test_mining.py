"""BM25 against hand-evaluated Okapi values, pool mining, denoising, and
hybrid assembly; positive exclusion checked over randomized pools."""

import logging
import math

import numpy as np
import pytest

from promptir.mining import (
    BM25_B,
    BM25_K1,
    DenseRetriever,
    LexicalOverlapScorer,
    assemble,
    bm25_build,
    bm25_search,
    denoise,
    merge_candidates,
    mine,
)
from promptir.tokenizer import content_words, tokenize_words
from promptir.training import similarity
from promptir.vector_index import encode_corpus
from promptir.encoder import encode

from conftest import make_tiny_model, make_tiny_prompts


class ConstantScorer:
    """A denoising scorer that rates every passage the same."""

    def __init__(self, value):
        self.value = value

    def score(self, query_text, passage_text):
        return self.value


THREE_DOCS = [
    ("d1", "the cat sat on the mat"),
    ("d2", "the dog ran fast after the cat"),
    ("d3", "birds sing in the morning"),
]


def hand_okapi_scores(corpus, query):
    """Literal textbook evaluation of the Okapi formula, independent of the
    index implementation."""
    docs = {pid: tokenize_words(text) for pid, text in corpus}
    n = len(docs)
    avg_len = sum(len(t) for t in docs.values()) / n
    scores = {}
    for term in tokenize_words(query):
        df = sum(1 for toks in docs.values() if term in toks)
        if df == 0:
            continue
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for pid, toks in docs.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            denom = tf + BM25_K1 * (1 - BM25_B + BM25_B * len(toks) / avg_len)
            scores[pid] = scores.get(pid, 0.0) + idf * tf * (BM25_K1 + 1) / denom
    return scores


class TestBm25:
    def test_document_frequencies_hand_counts(self):
        index = bm25_build(THREE_DOCS)
        assert index.document_frequency("the") == 3
        assert index.document_frequency("cat") == 2
        assert index.document_frequency("mat") == 1
        assert index.document_frequency("zebra") == 0
        assert index.size == 3
        assert index.doc_len == {"d1": 6, "d2": 7, "d3": 5}

    def test_single_doc_formula_by_hand(self):
        index = bm25_build([("d1", "a b")])
        ranked = bm25_search(index, "a", 5)
        # N=1, df=1: idf = ln(0.5/1.5 + 1); tf=1, len=avglen -> norm cancels
        expected = math.log(0.5 / 1.5 + 1.0)
        assert ranked == [("d1", pytest.approx(expected, abs=1e-12))]

    def test_three_doc_fixture_matches_hand_formula(self):
        index = bm25_build(THREE_DOCS)
        for query in ("the cat", "dog ran", "birds sing morning", "cat cat"):
            expected = hand_okapi_scores(THREE_DOCS, query)
            got = dict(bm25_search(index, query, 10))
            assert set(got) == set(expected)
            for pid, score in expected.items():
                assert got[pid] == pytest.approx(score, abs=1e-9)

    def test_out_of_corpus_query_empty(self):
        index = bm25_build(THREE_DOCS)
        assert bm25_search(index, "zebra quantum", 5) == []

    def test_duplicate_docs_tie_by_pid(self):
        index = bm25_build([("b", "same words here"), ("a", "same words here")])
        ranked = bm25_search(index, "same words", 5)
        assert [pid for pid, _ in ranked] == ["a", "b"]
        assert ranked[0][1] == ranked[1][1]

    def test_k_validation(self):
        index = bm25_build(THREE_DOCS)
        with pytest.raises(ValueError):
            bm25_search(index, "cat", 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bm25_build([])

    def test_rebuild_identical(self):
        a, b = bm25_build(THREE_DOCS), bm25_build(THREE_DOCS)
        assert a.postings == b.postings
        assert a.avg_len == b.avg_len


class TestDenseCandidates:
    def test_matches_brute_force(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        rng = np.random.default_rng(0)
        words = [t for t in tiny_vocab.tokens[5:] if t.isalpha()]
        corpus = [(f"p{i:03d}", " ".join(rng.choice(words, size=6)))
                  for i in range(30)]
        index = encode_corpus(corpus, model, prompts)
        query = "the cat sat"
        got = DenseRetriever(index, model, prompts)(query, 10)

        qvec = encode(model, prompts, model.vocab.encode(query), role="query")
        brute = []
        for pid, text in corpus:
            pvec = encode(model, prompts, model.vocab.encode(text), role="passage")
            brute.append((pid, similarity(qvec, pvec)))
        brute.sort(key=lambda item: (-item[1], item[0]))
        assert [p for p, _ in got] == [p for p, _ in brute[:10]]
        for (p1, s1), (p2, s2) in zip(got, brute[:10]):
            assert s1 == pytest.approx(s2, abs=1e-12)

    def test_k_beyond_corpus_returns_all(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        corpus = [("p0", "the cat"), ("p1", "the dog")]
        index = encode_corpus(corpus, model, None)
        assert len(DenseRetriever(index, model, None)("cat", 100)) == 2

    def test_fingerprint_mismatch_rejected(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, seed=0)
        other = make_tiny_model(tiny_vocab, seed=99)
        corpus = [("p0", "the cat"), ("p1", "the dog")]
        index = encode_corpus(corpus, model, None)
        with pytest.raises(ValueError, match="built with model"):
            DenseRetriever(index, other, None)


def ranked_retriever(pids):
    """Fake retriever returning the given pids with descending scores."""

    def fn(query_text, k):
        return [(pid, float(len(pids) - i)) for i, pid in enumerate(pids[:k])]

    return fn


class TestMine:
    def test_positive_only_retriever_gives_empty_sample(self):
        pool = mine("q1", "text", {"pos"}, {"bm25": ranked_retriever(["pos"])})
        assert pool.undenoised_sample == []
        assert pool.candidates == []

    def test_disjoint_retrievers_merge_to_union(self):
        r1 = ranked_retriever([f"a{i:02d}" for i in range(20)])
        r2 = ranked_retriever([f"b{i:02d}" for i in range(20)])
        pool = mine("q1", "text", set(), {"bm25": r1, "dense": r2},
                    sample_size=40)
        assert len(pool.candidates) == 40
        assert len(pool.undenoised_sample) == 40

    def test_dedup_keeps_best_rank_and_unions_tags(self):
        lists = {
            "bm25": [("x", 3.0), ("y", 2.0)],
            "dense": [("z", 5.0), ("x", 4.0)],
        }
        merged = merge_candidates(lists, positives=set())
        by_pid = {c.pid: c for c in merged}
        assert by_pid["x"].best_rank == 1
        assert by_pid["x"].best_tag == "bm25"
        assert by_pid["x"].tags == ("bm25", "dense")
        assert by_pid["z"].best_rank == 1

    def test_positives_removed_before_sampling(self):
        pool = mine("q1", "text", {"p2"},
                    {"bm25": ranked_retriever(["p1", "p2", "p3"])})
        assert "p2" not in pool.undenoised_sample
        assert {c.pid for c in pool.candidates} == {"p1", "p3"}

    def test_sampling_uniform_over_pool(self):
        pids = [f"c{i:02d}" for i in range(50)]
        retr = {"bm25": ranked_retriever(pids)}
        counts = {pid: 0 for pid in pids}
        trials = 10_000
        for seed in range(trials):
            pool = mine("q", "t", set(), retr, sample_size=30,
                        rng=np.random.default_rng(seed))
            for pid in pool.undenoised_sample:
                counts[pid] += 1
        for pid, c in counts.items():
            assert abs(c / trials - 0.6) < 0.03, pid

    def test_sample_provenance_is_verifiable(self):
        r1 = ranked_retriever([f"a{i}" for i in range(10)])
        r2 = ranked_retriever([f"b{i}" for i in range(10)])
        pool = mine("q", "t", set(), {"bm25": r1, "dense": r2},
                    top_n=10, sample_size=8, rng=np.random.default_rng(3))
        tops = {pid for pid, _ in pool.retriever_lists["bm25"]}
        tops |= {pid for pid, _ in pool.retriever_lists["dense"]}
        for pid in pool.undenoised_sample:
            assert pid in tops
            assert pool.provenance[pid]


class TestDenoise:
    def _pool(self, pids):
        retr = {"bm25": ranked_retriever(pids)}
        return mine("q", "alpha beta gamma delta epsilon zeta eta theta iota kappa",
                    set(), retr, sample_size=len(pids),
                    rng=np.random.default_rng(0))

    def test_zero_scorer_keeps_all(self):
        pool = self._pool(["p1", "p2", "p3"])
        denoise(pool, "q text", {p: "t" for p in ["p1", "p2", "p3"]},
                ConstantScorer(0.0))
        assert sorted(pool.denoised) == ["p1", "p2", "p3"]

    def test_one_scorer_keeps_none(self):
        pool = self._pool(["p1", "p2"])
        denoise(pool, "q text", {"p1": "t", "p2": "t"}, ConstantScorer(1.0))
        assert pool.denoised == []

    def test_lexical_overlap_partition_at_threshold(self):
        # query has 10 content words; overlap counts of 0 and 1 straddle 0.1
        query = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        passages = {
            "none": "unrelated words entirely different",  # 0/10 = 0.0 -> kept
            "one": "alpha with other words",               # 1/10 = 0.1 -> dropped
            "two": "alpha beta and more",                  # 2/10 = 0.2 -> dropped
        }
        scorer = LexicalOverlapScorer()
        assert scorer.score(query, passages["none"]) == 0.0
        assert scorer.score(query, passages["one"]) == pytest.approx(0.1)
        assert scorer.score(query, passages["two"]) == pytest.approx(0.2)
        pool = self._pool(list(passages))
        denoise(pool, query, passages, scorer, threshold=0.1)
        assert pool.denoised == ["none"]

    @pytest.mark.parametrize("query,passage", [
        ("alpha beta gamma", "beta gamma delta"),
        ("The Cat, the CAT!", "a cat sat on the mat."),
        ("repeat repeat once", "once once once"),
        ("café au lait 42", "Café 42 noir"),
        ("?! ... ,", "alpha beta"),
        ("", "alpha beta"),
        ("alpha beta", ""),
        ("same words here", "same words here"),
    ])
    def test_lexical_overlap_equals_uncached_formula(self, query, passage):
        def uncached(q_text, p_text):
            q = set(content_words(q_text))
            return len(q & set(content_words(p_text))) / len(q) if q else 0.0

        scorer = LexicalOverlapScorer()
        for _ in range(2):  # the second round reads cached word sets
            assert scorer.score(query, passage) == uncached(query, passage)
            assert scorer.score(passage, query) == uncached(passage, query)

    def test_punctuation_only_query_scores_zero(self):
        assert LexicalOverlapScorer().score("?! ... ,", "?! ... , alpha") == 0.0

    def test_scorer_failure_fails_closed(self, caplog):
        class Broken:
            def score(self, q, p):
                raise RuntimeError("boom")

        pool = self._pool(["p1", "p2"])
        with caplog.at_level(logging.WARNING, logger="promptir.mining"):
            denoise(pool, "q", {"p1": "t", "p2": "t"}, Broken())
        assert pool.denoised == []
        assert "scorer failed" in caplog.text

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        query = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        words = query.split() + ["filler1", "filler2", "filler3", "filler4"]
        passages = {
            f"p{i}": " ".join(rng.choice(words, size=5)) for i in range(30)
        }
        pool = self._pool(list(passages))
        sizes = []
        for thr in (0.05, 0.1, 0.2):
            denoise(pool, query, passages, LexicalOverlapScorer(), threshold=thr)
            sizes.append(len(pool.denoised))
        assert sizes[0] <= sizes[1] <= sizes[2]


class TestAssemble:
    def _mined_pool(self, n_cands=12, seed=0):
        pids = [f"c{i:02d}" for i in range(n_cands)]
        pool = mine("q", "text", {"pos"},
                    {"bm25": ranked_retriever(pids)},
                    sample_size=n_cands, rng=np.random.default_rng(seed))
        return pool

    def test_mix_counts_and_tags(self):
        pool = self._mined_pool()
        pool.denoised = ["c00", "c01", "c02"]
        ex = assemble("q", "text", {"pos"}, pool, 2, 2,
                      rng=np.random.default_rng(1))
        assert len(ex.neg_pids) == 4
        assert ex.neg_tags.count("denoised") == 2
        assert all(t in ("denoised", "bm25") for t in ex.neg_tags)

    def test_empty_denoised_backfills_from_undenoised(self):
        pool = self._mined_pool()
        pool.denoised = []
        ex = assemble("q", "text", {"pos"}, pool, 2, 2,
                      rng=np.random.default_rng(1))
        assert len(ex.neg_pids) == 4
        assert "denoised" not in ex.neg_tags

    def test_never_contains_positive_randomized(self):
        rng = np.random.default_rng(9)
        for trial in range(300):
            n = int(rng.integers(1, 15))
            pids = [f"c{i:02d}" for i in range(n)] + ["pos"]
            rng.shuffle(pids)
            pool = mine("q", "text", {"pos"},
                        {"bm25": ranked_retriever(pids)},
                        sample_size=10, rng=rng)
            pool.denoised = pool.undenoised_sample[: n // 2]
            ex = assemble("q", "text", {"pos"}, pool,
                          int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                          rng=rng)
            assert "pos" not in ex.neg_pids
            assert ex.pos_pid == "pos"

    def test_empty_pool_warns_and_emits_no_negatives(self, caplog):
        pool = mine("q", "text", {"pos"}, {"bm25": ranked_retriever(["pos"])})
        with caplog.at_level(logging.WARNING, logger="promptir.mining"):
            ex = assemble("q", "text", {"pos"}, pool, 2, 2)
        assert ex.neg_pids == []
        assert "no negatives" in caplog.text
