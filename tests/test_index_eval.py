"""Exact search vs brute force, metric fixtures, and the alignment/
uniformity diagnostics against double-loop recomputation."""

import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from promptir import encoder, vector_index
from promptir.encoder import encode
from promptir.evaluation import (
    alignment_uniformity,
    evaluate,
    mrr_at_k,
    recall_at_k,
)
from promptir.vector_index import (
    DenseRetriever,
    RetrievalResult,
    VectorIndex,
    encode_corpus,
    run_queries,
    search,
)

from conftest import TINY_TEXTS, make_tiny_model, make_tiny_prompts


# token rows per packed forward: one sequence each (every sequence has at
# least 2 rows), two or three of the tiny texts (11-13 rows) each, and each
# test's whole list (at most 108 rows) in one forward
ROW_BUDGETS = [3, 30, 128]


def brute_force_search(index, q, k):
    scored = [
        (pid, float(vec @ q))
        for pid, vec in zip(index.passage_ids, index.vectors)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def full_sort_search(index, q, k):
    """Search as it was before partial selection: one lexsort of every row."""
    scores = index.vectors @ np.asarray(q, dtype=np.float64)
    order = np.lexsort((index._pid_rank, -scores))[:k]
    return [(index.passage_ids[int(i)], float(scores[int(i)])) for i in order]


class TestSearch:
    def test_equals_brute_force(self):
        rng = np.random.default_rng(0)
        n, d = 500, 16
        index = VectorIndex(rng.normal(size=(n, d)),
                            [f"p{i:05d}" for i in range(n)], "fp")
        for qi in range(20):
            q = rng.normal(size=d)
            for k in (1, 10, 100):
                got = search(index, q, k)
                want = brute_force_search(index, q, k)
                assert [p for p, _ in got] == [p for p, _ in want]
                # scores agree up to summation-order rounding
                np.testing.assert_allclose(
                    [s for _, s in got], [s for _, s in want], rtol=1e-12
                )

    def test_duplicate_vectors_tie_by_pid(self):
        v = np.array([1.0, 2.0])
        index = VectorIndex([v, v, v], ["c", "a", "b"], "fp")
        ranked = search(index, np.array([1.0, 1.0]), 3)
        assert [pid for pid, _ in ranked] == ["a", "b", "c"]

    def test_self_match_with_dominant_norm(self):
        # the query vector itself is in the index with maximal norm and
        # alignment, so it must come back at rank 1
        rng = np.random.default_rng(1)
        q = np.full(8, 2.0)
        others = rng.normal(scale=0.1, size=(20, 8))
        vectors = np.vstack([others, q[None, :]])
        pids = [f"o{i:02d}" for i in range(20)] + ["self"]
        index = VectorIndex(vectors, pids, "fp")
        assert search(index, q, 1)[0][0] == "self"

    def test_k_beyond_size_returns_all(self):
        index = VectorIndex(np.eye(3), ["a", "b", "c"], "fp")
        assert len(search(index, np.ones(3), 50)) == 3

    def test_k_and_dim_validation(self):
        index = VectorIndex(np.eye(3), ["a", "b", "c"], "fp")
        with pytest.raises(ValueError, match="k must be"):
            search(index, np.ones(3), 0)
        with pytest.raises(ValueError, match="dimension"):
            search(index, np.ones(4), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = VectorIndex(np.eye(3), ["a", "b", "c"], "fp")
        with pytest.raises(ValueError, match="non-finite"):
            search(index, [bad, 0.0, 0.0], 2)

    def test_duplicate_passage_ids_rejected(self, tiny_vocab):
        with pytest.raises(ValueError, match="duplicate passage id"):
            VectorIndex(np.eye(3), ["a", "a", "b"], "fp")
        model = make_tiny_model(tiny_vocab)
        with pytest.raises(ValueError, match="duplicate passage id"):
            encode_corpus([("p0", TINY_TEXTS[0]), ("p0", TINY_TEXTS[1])], model, None)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_full_sort_with_ties(self, seed):
        # integer rows from a small pool: many exact ties, some straddling the
        # k-th score; pids are shuffled against row order so ties break by pid
        rng = np.random.default_rng(seed)
        n, d = 24, 4
        pool = rng.integers(-2, 3, size=(5, d)).astype(np.float64)
        vectors = pool[rng.integers(0, len(pool), size=n)]
        pids = [f"p{i:02d}" for i in rng.permutation(n)]
        index = VectorIndex(vectors, pids, "fp")
        queries = [rng.integers(-2, 3, size=d).astype(np.float64) for _ in range(5)]
        queries += [np.zeros(d), rng.normal(size=d)]
        for q in queries:
            for k in [*range(1, n + 1), n + 5]:
                assert search(index, q, k) == full_sort_search(index, q, k)


class TestEncodeCorpus:
    def test_row_count_and_determinism(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        corpus = [(f"p{i}", t) for i, t in enumerate(
            ["the cat sat.", "dogs chase balls.", "rivers flow down."]
        )]
        a = encode_corpus(corpus, model, None)
        b = encode_corpus(corpus, model, None)
        assert len(a) == 3
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.fingerprint == model.fingerprint()

    @pytest.mark.parametrize("budget", ROW_BUDGETS)
    def test_rows_equal_lone_encode(self, tiny_vocab, monkeypatch, budget):
        # packed forwards of up to budget rows; each row is bitwise the lone encode
        monkeypatch.setattr(vector_index, "ROW_BUDGET", budget)
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        corpus = [(f"p{i}", t) for i, t in enumerate(TINY_TEXTS + ["", "cat"])]
        index = encode_corpus(corpus, model, prompts)
        for row, (pid, text) in enumerate(corpus):
            lone = encode(model, prompts, model.vocab.encode(text), role="passage")
            np.testing.assert_array_equal(index.vectors[row], lone, err_msg=pid)

    @pytest.mark.parametrize("budget", [1, 12, *ROW_BUDGETS])
    def test_forwards_fill_row_budget(self, tiny_vocab, monkeypatch, budget):
        # consecutive passages per forward, added while they fit the budget;
        # only a forward of one passage may exceed it (13 tokens > 12)
        monkeypatch.setattr(vector_index, "ROW_BUDGET", budget)
        original, packs = vector_index.pooled, []

        def counted(model, seqs, prefix):
            packs.append(seqs)
            return original(model, seqs, prefix)

        monkeypatch.setattr(vector_index, "pooled", counted)
        model = make_tiny_model(tiny_vocab)
        corpus = [(f"p{i}", t) for i, t in enumerate(TINY_TEXTS + ["", "cat"])]
        encode_corpus(corpus, model, None)
        seqs = [model.vocab.encode(t, max_len=model.config.max_seq_len) for _, t in corpus]
        packs.sort(key=lambda pack: seqs.index(pack[0]))  # two threads may run them
        assert [ids for pack in packs for ids in pack] == seqs
        packs = [[len(ids) for ids in pack] for pack in packs]
        for pack, following in zip(packs, packs[1:] + [[budget + 1]]):
            assert sum(pack) <= budget or len(pack) == 1
            assert sum(pack) + following[0] > budget

    def test_empty_corpus(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        index = encode_corpus([], model, None)
        assert len(index) == 0 and index.dim == model.config.hidden_size

    @pytest.mark.parametrize("bad", [None, 7, b"bytes"])
    def test_bad_passage_named(self, tiny_vocab, bad):
        model = make_tiny_model(tiny_vocab)
        corpus = [("p0", "the cat sat."), ("p-bad", bad), ("p2", "dogs chase balls.")]
        with pytest.raises(RuntimeError, match="passage p-bad"):
            encode_corpus(corpus, model, None)

    def test_incompatible_prompts_rejected(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        other = make_tiny_prompts(make_tiny_model(tiny_vocab, hidden_size=32))
        with pytest.raises(ValueError, match="hidden size"):
            encode_corpus([("p0", "the cat sat.")], model, other)

    def test_run_queries_fingerprint_check(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, seed=0)
        other = make_tiny_model(tiny_vocab, seed=5)
        corpus = [("p0", "the cat sat."), ("p1", "dogs chase balls.")]
        index = encode_corpus(corpus, model, None)
        with pytest.raises(ValueError, match="built with model"):
            run_queries(index, other, None, [("q0", "cat")], k=1)


CORPUS = [(f"p{i}", t) for i, t in enumerate(TINY_TEXTS)]
QUERIES = [(f"q{i}", t) for i, t in enumerate(TINY_TEXTS + ["", "cat", "the cat sat"])]


@pytest.fixture(params=["inline", "worker"])
def worker(request, monkeypatch):
    """Packs on the calling thread alone, or shared with a worker thread."""
    executor = ThreadPoolExecutor(max_workers=1) if request.param == "worker" else None
    monkeypatch.setattr(vector_index, "_WORKER", executor)
    yield executor
    if executor is not None:
        executor.shutdown()


def lone_passages(model, prompts, corpus):
    return [encode(model, prompts, model.vocab.encode(text), role="passage")
            for _, text in corpus]


class TestFanOut:
    """Packs run on the caller and one worker; every row stays a lone encode."""

    def test_worker_only_with_two_cpus(self):
        assert (vector_index._WORKER is None) == (len(os.sched_getaffinity(0)) < 2)

    # CORPUS rows are 12, 13, 12, 12, 12, 11, 13 and 13
    @pytest.mark.parametrize("n, budget, packs", [(0, 256, 0), (8, 256, 1), (8, 50, 2),
                                                  (8, 3, 8)])
    def test_rows_equal_lone_encode(self, tiny_vocab, monkeypatch, worker, n, budget, packs):
        monkeypatch.setattr(vector_index, "ROW_BUDGET", budget)
        original, calls = vector_index.pooled, []

        def counted(model, seqs, prefix):
            calls.append(len(seqs))
            return original(model, seqs, prefix)

        monkeypatch.setattr(vector_index, "pooled", counted)
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        index = encode_corpus(CORPUS[:n], model, prompts)
        assert len(calls) == packs and index.passage_ids == [pid for pid, _ in CORPUS[:n]]
        for row, lone in enumerate(lone_passages(model, prompts, CORPUS[:n])):
            assert index.vectors[row].tobytes() == lone.tobytes()
        calls.clear()  # the passages as queries: the same packs
        results = run_queries(index, model, prompts, CORPUS[:n], k=5)
        assert len(calls) == packs and len(results) == n
        for r, (qid, text) in zip(results, CORPUS[:n]):
            lone = encode(model, prompts, model.vocab.encode(text), role="query")
            assert r.query_id == qid and r.ranking == search(index, lone, 5)

    def test_error_in_a_later_pack_reaches_the_caller(self, tiny_vocab, monkeypatch,
                                                      worker):
        # inline the second pack fails; with the worker, the worker's first
        # pack fails, and the caller waits for that before its own first pack
        class PackError(Exception):
            pass

        monkeypatch.setattr(vector_index, "ROW_BUDGET", 3)  # one passage per pack
        original, calls, failed = vector_index.pooled, itertools.count(1), threading.Event()
        caller = threading.current_thread()

        def failing(model, seqs, prefix):
            fails = threading.current_thread() is not caller if worker else next(calls) == 2
            if fails:
                failed.set()
                raise PackError("a later pack")
            if worker:
                failed.wait(timeout=10)
            return original(model, seqs, prefix)

        monkeypatch.setattr(vector_index, "pooled", failing)
        model = make_tiny_model(tiny_vocab)
        with pytest.raises(PackError, match="a later pack"):
            encode_corpus(CORPUS, model, None)
        assert failed.is_set()
        monkeypatch.setattr(vector_index, "pooled", original)
        index = encode_corpus(CORPUS, model, None)  # the worker still serves
        for row, lone in enumerate(lone_passages(model, None, CORPUS)):
            assert index.vectors[row].tobytes() == lone.tobytes()

    def test_concurrent_callers_share_the_worker(self, tiny_vocab, monkeypatch):
        executor = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(vector_index, "_WORKER", executor)
        monkeypatch.setattr(vector_index, "ROW_BUDGET", 30)  # two or three per pack
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        want = dict(zip([pid for pid, _ in CORPUS], lone_passages(model, prompts, CORPUS)))
        corpora = [CORPUS[i:] + CORPUS[:i] for i in range(4)]  # more callers than cores
        got = [[] for _ in corpora]

        def call(i):
            for _ in range(5):
                got[i].append(encode_corpus(corpora[i], model, prompts))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(corpora))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown()
        assert not any(t.is_alive() for t in threads)
        for corpus, indexes in zip(corpora, got):
            assert len(indexes) == 5
            for index in indexes:
                assert index.passage_ids == [pid for pid, _ in corpus]
                for row, pid in enumerate(index.passage_ids):
                    assert index.vectors[row].tobytes() == want[pid].tobytes()


class TestQueries:
    """DenseRetriever projects its prefix once; run_queries packs its queries."""

    @pytest.mark.parametrize("budget", ROW_BUDGETS)
    @pytest.mark.parametrize("separate_roles", [False, True])
    def test_run_queries_equals_retriever_calls(self, tiny_vocab, monkeypatch, budget,
                                                separate_roles):
        monkeypatch.setattr(vector_index, "ROW_BUDGET", budget)
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model, separate_roles=separate_roles)
        index = encode_corpus(CORPUS, model, prompts)
        retrieve = DenseRetriever(index, model, prompts)
        results = run_queries(index, model, prompts, QUERIES, k=5)
        assert [r.query_id for r in results] == [qid for qid, _ in QUERIES]
        for r, (_, text) in zip(results, QUERIES):
            assert r.ranking == retrieve(text, 5)  # ids and scores, exactly

    def test_calls_project_no_prefix(self, tiny_vocab, monkeypatch):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        index = encode_corpus(CORPUS, model, prompts)
        original, calls = vector_index.prefix_kv, []

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(vector_index, "prefix_kv", counted)
        monkeypatch.setattr(encoder, "prefix_kv", counted)
        retrieve = DenseRetriever(index, model, prompts)
        assert calls == ["query"]
        for _, text in QUERIES:
            retrieve(text, 3)
        assert calls == ["query"]
        run_queries(index, model, prompts, QUERIES, k=3)
        assert calls == ["query", "query"]

    def test_prefixes_carry_no_tape(self, tiny_vocab, monkeypatch):
        # a fresh prompt set is frozen, so its projected prefixes record nothing
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        original, prefixes = vector_index.pooled, []

        def recorded(model, seqs, prefix):
            prefixes.append(prefix)
            return original(model, seqs, prefix)

        monkeypatch.setattr(vector_index, "pooled", recorded)
        index = encode_corpus(CORPUS, model, prompts)
        prefixes.append(DenseRetriever(index, model, prompts).prefix)
        assert len(prefixes) == 2
        assert all(t._entry is None for prefix in prefixes for pair in prefix for t in pair)

    @pytest.mark.parametrize("separate_roles", [False, True])
    def test_fresh_set_equals_trainable_copy(self, tiny_vocab, separate_roles):
        model = make_tiny_model(tiny_vocab)
        fresh = make_tiny_prompts(model, separate_roles=separate_roles)
        trainable = fresh.copy()
        trainable.set_trainable(True)
        a, b = encode_corpus(CORPUS, model, fresh), encode_corpus(CORPUS, model, trainable)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert (run_queries(a, model, fresh, QUERIES, k=5)
                == run_queries(b, model, trainable, QUERIES, k=5))

    def test_prefix_is_a_snapshot(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        index = encode_corpus(CORPUS, model, prompts)
        retrieve = DenseRetriever(index, model, prompts)
        before = retrieve("the cat sat", 5)
        for p in prompts.parameters():
            p.data += 0.5
        assert retrieve("the cat sat", 5) == before
        assert DenseRetriever(index, model, prompts)("the cat sat", 5) != before


def result(qid, pids):
    return RetrievalResult(qid, [(p, float(100 - i)) for i, p in enumerate(pids)])


class TestMrr:
    def test_first_relevant_rank_one(self):
        value, _ = mrr_at_k([result("q", ["rel", "x"])], {"q": {"rel"}})
        assert value == 1.0

    def test_relevant_beyond_cutoff_scores_zero(self):
        pids = [f"x{i}" for i in range(10)] + ["rel"]
        value, _ = mrr_at_k([result("q", pids)], {"q": {"rel"}}, k=10)
        assert value == 0.0

    def test_two_query_mean(self):
        results = [
            result("q1", ["rel1", "a", "b", "c"]),
            result("q2", ["a", "b", "c", "rel2"]),
        ]
        qrels = {"q1": {"rel1"}, "q2": {"rel2"}}
        value, per_query = mrr_at_k(results, qrels, k=10)
        assert value == (1 + 0.25) / 2 == 0.625
        assert per_query == {"q1": 1.0, "q2": 0.25}

    def test_missing_query_rejected(self):
        with pytest.raises(ValueError, match="missing from qrels"):
            mrr_at_k([result("q", ["a"])], {})

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(2)
        pids = [f"p{i}" for i in range(50)]
        for _ in range(20):
            order = list(rng.permutation(pids))
            qrels = {"q": set(rng.choice(pids, size=3, replace=False))}
            values = [mrr_at_k([result("q", order)], qrels, k=k)[0]
                      for k in (1, 5, 10, 50)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)


class TestRecall:
    def test_single_relevant_found(self):
        value, _ = recall_at_k([result("q", ["rel", "x"])], {"q": {"rel"}}, k=5)
        assert value == 1.0

    def test_half_found(self):
        value, _ = recall_at_k(
            [result("q", ["rel1", "x", "y"])], {"q": {"rel1", "rel2"}}, k=3
        )
        assert value == 0.5

    def test_three_query_hand_mean(self):
        results = [
            result("q1", ["r1", "x", "y"]),        # 1/1
            result("q2", ["x", "r2a", "y"]),       # 1/2
            result("q3", ["x", "y", "z"]),         # 0/1
        ]
        qrels = {"q1": {"r1"}, "q2": {"r2a", "r2b"}, "q3": {"r3"}}
        value, _ = recall_at_k(results, qrels, k=3)
        assert value == pytest.approx((1.0 + 0.5 + 0.0) / 3, abs=0)

    def test_recall_at_corpus_size_is_one(self):
        rng = np.random.default_rng(3)
        pids = [f"p{i}" for i in range(20)]
        order = list(rng.permutation(pids))
        qrels = {"q": set(rng.choice(pids, size=4, replace=False))}
        value, _ = recall_at_k([result("q", order)], qrels, k=len(pids))
        assert value == 1.0

    def test_evaluate_report_shape(self):
        results = [result("q1", ["r1", "x"])]
        report = evaluate(results, {"q1": {"r1"}}, recall_cuts=(1, 2))
        assert report.mrr10 == 1.0
        assert report.recalls == {1: 1.0, 2: 1.0}
        assert report.per_query_rr == {"q1": 1.0}
        assert report.query_count == 1


def brute_force_align_uniform(pairs, normalize):
    left = [np.asarray(a, dtype=float) for a, _ in pairs]
    right = [np.asarray(b, dtype=float) for _, b in pairs]
    if normalize:
        left = [v / np.linalg.norm(v) for v in left]
        right = [v / np.linalg.norm(v) for v in right]
    align = float(np.mean([np.sum((a - b) ** 2) for a, b in zip(left, right)]))
    points = left + right
    vals = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if i != j:
                vals.append(math.exp(-2.0 * float(np.sum((x - y) ** 2))))
    return align, math.log(np.mean(vals))


class TestAlignmentUniformity:
    def test_identical_pairs_align_zero(self):
        v = np.array([0.6, 0.8])
        w = np.array([1.0, 0.0])
        rq = alignment_uniformity([(v, v), (w, w)])
        assert rq.l_align == 0.0

    def test_antipodal_unit_vectors(self):
        v = np.array([1.0, 0.0])
        rq = alignment_uniformity([(v, -v)])
        assert rq.l_uniform == pytest.approx(-8.0, abs=1e-12)
        assert rq.l_align == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_double_loop(self, normalize):
        rng = np.random.default_rng(5)
        pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(8)]
        rq = alignment_uniformity(pairs, normalize=normalize)
        align, uniform = brute_force_align_uniform(pairs, normalize)
        assert rq.l_align == pytest.approx(align, abs=1e-10)
        assert rq.l_uniform == pytest.approx(uniform, abs=1e-10)
        assert rq.normalized is normalize

    def test_uniform_nonpositive_for_normalized_points(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(5)]
            rq = alignment_uniformity(pairs, normalize=True)
            assert rq.l_uniform <= 0.0
            assert rq.l_align >= 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            alignment_uniformity([])
