"""Dual-encoder training: loss fixtures against brute-force oracles,
freezing contracts, in-batch denominator construction, determinism."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptir import autodiff as ad
from promptir.autodiff import AdamW, backward
from promptir.encoder import encode, pooled, prefix_kv
from promptir.training import (
    TrainConfig,
    TrainingDivergedError,
    TrainingExample,
    batch_candidates,
    nll_loss,
    similarity,
    train,
    train_step,
)

from conftest import make_tiny_model, make_tiny_prompts


def brute_force_nll(pos_score, neg_scores):
    """Independent double-loop evaluation of the ranking loss."""
    num = math.exp(pos_score)
    den = math.exp(pos_score)
    for s in neg_scores:
        den += math.exp(s)
    return -math.log(num / den)


class TestSimilarity:
    def test_orthogonal(self):
        assert similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_self_is_norm_squared(self):
        v = np.array([1.5, -2.0, 0.5])
        assert similarity(v, v) == pytest.approx(float(v @ v), abs=0)

    def test_hand_value(self):
        assert similarity([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestNllLoss:
    def test_equal_scores_single_negative(self):
        assert nll_loss(1.3, [1.3]) == pytest.approx(math.log(2), abs=1e-12)

    def test_equal_scores_n_negatives(self):
        for n in (1, 2, 5):
            assert nll_loss(0.7, [0.7] * n) == pytest.approx(math.log(n + 1), abs=1e-12)

    def test_hand_value(self):
        assert nll_loss(2.0, [0.0]) == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)

    def test_no_negatives_is_zero(self):
        assert nll_loss(3.7, []) == 0.0

    def test_brute_force_equivalence_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            pos = float(rng.normal(scale=3))
            negs = rng.normal(scale=3, size=n)
            assert nll_loss(pos, negs) == pytest.approx(
                brute_force_nll(pos, list(negs)), abs=1e-10
            )

    @given(
        pos=st.floats(-20, 20),
        negs=st.lists(st.floats(-20, 20), min_size=0, max_size=8),
        shift=st.floats(-30, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_score_shift_invariance(self, pos, negs, shift):
        base = nll_loss(pos, negs)
        shifted = nll_loss(pos + shift, [s + shift for s in negs])
        assert abs(base - shifted) <= 1e-12

    @given(
        pos=st.floats(-5, 5),
        negs=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        bump=st.floats(1e-3, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_positive_score(self, pos, negs, bump):
        assert nll_loss(pos + bump, negs) < nll_loss(pos, negs)


def toy_retrieval_data(vocab, n_queries=10, negs_per_query=2):
    """Small corpus of distinct word mixtures plus lexically-tied queries."""
    rng = np.random.default_rng(11)
    words = [t for t in vocab.tokens[5:] if t.isalpha()]
    corpus = {}
    for i in range(n_queries * 2):
        pid = f"p{i:03d}"
        corpus[pid] = " ".join(rng.choice(words, size=8)) + "."
    pids = sorted(corpus)
    examples = []
    for i in range(n_queries):
        pos = pids[i]
        negs = [pids[(i + j + 1) % len(pids)] for j in range(negs_per_query)]
        qwords = corpus[pos].rstrip(".").split()[:4]
        examples.append(TrainingExample(
            qid=f"q{i:03d}",
            query=" ".join(qwords),
            pos_pid=pos,
            neg_pids=negs,
            neg_tags=["bm25"] * len(negs),
        ))
    return corpus, examples


def per_example_loss(batch, model, prompts, config, corpus, positives_of):
    """The ranking loss as one score row per example, each over its own
    candidates, averaged: the composition the masked score matrix replaced."""
    query = prefix_kv(model, prompts, "query")
    passage = query if prompts is None or prompts.shared else prefix_kv(model, prompts, "passage")
    per_example = batch_candidates(batch, config, positives_of)
    needed = sorted({pid for cands in per_example for pid in cands})
    max_len = model.config.max_seq_len
    passages = pooled(model, [model.vocab.encode(corpus[pid], max_len=max_len)
                              for pid in needed], passage)
    queries = pooled(model, [model.vocab.encode(ex.query, max_len=max_len) for ex in batch],
                     query)
    row = {pid: i for i, pid in enumerate(needed)}
    losses = []
    for i, cands in enumerate(per_example):
        cand_rows = ad.embedding_gather(passages, [row[pid] for pid in cands])
        scores = ad.matmul(ad.embedding_gather(queries, [i]), ad.transpose(cand_rows))
        losses.append(ad.cross_entropy_rows(scores, [0]))
    return ad.mul(functools.reduce(ad.add, losses), ad.Tensor(1.0 / len(losses)))


class GradRecorder(AdamW):
    """AdamW that keeps a copy of the gradients of each step it takes."""

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]
        super().step()


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [("negatives_per_query", -1), ("batch_size", 0),
                                              ("epochs", -1), ("learning_rate", -1e-2),
                                              ("learning_rate", math.nan), ("warmup_ratio", 3.0),
                                              ("warmup_ratio", -0.1), ("weight_decay", -0.5)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestExampleValidation:
    def test_positive_among_negatives_rejected(self):
        with pytest.raises(ValueError, match="among negatives"):
            TrainingExample("q", "text", "p1", ["p1", "p2"], ["bm25", "bm25"])

    def test_duplicate_negatives_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrainingExample("q", "text", "p1", ["p2", "p2"], ["bm25", "bm25"])


class TestBatchCandidates:
    def test_in_batch_denominator_counts(self):
        # batch of 2, disjoint ids: each query sees 1 pos + n mined
        # + (1 pos + n mined) of the other query
        n = 3
        ex_a = TrainingExample("qa", "a", "pa", ["na1", "na2", "na3"])
        ex_b = TrainingExample("qb", "b", "pb", ["nb1", "nb2", "nb3"])
        config = TrainConfig(negatives_per_query=n, use_in_batch_negatives=True)
        positives = {"qa": {"pa"}, "qb": {"pb"}}
        cands = batch_candidates([ex_a, ex_b], config, positives)
        assert cands[0] == ["pa", "na1", "na2", "na3", "pb", "nb1", "nb2", "nb3"]
        assert cands[1] == ["pb", "nb1", "nb2", "nb3", "pa", "na1", "na2", "na3"]
        # brute-force enumeration: 1 + n + (1 + n) candidates per query
        assert all(len(c) == 2 * (1 + n) for c in cands)

    def test_own_positive_masked_from_other_lists(self):
        # qa's positive appears among qb's negatives and vice versa
        ex_a = TrainingExample("qa", "a", "pa", ["pb", "x1"])
        ex_b = TrainingExample("qb", "b", "pb", ["pa", "x2"])
        config = TrainConfig(negatives_per_query=2, use_in_batch_negatives=True)
        positives = {"qa": {"pa"}, "qb": {"pb"}}
        cands = batch_candidates([ex_a, ex_b], config, positives)
        assert "pa" not in cands[0][1:]
        assert "pb" not in cands[1][1:]

    def test_without_in_batch(self):
        ex_a = TrainingExample("qa", "a", "pa", ["n1"])
        ex_b = TrainingExample("qb", "b", "pb", ["n2"])
        config = TrainConfig(negatives_per_query=4, use_in_batch_negatives=False)
        cands = batch_candidates([ex_a, ex_b], config, {})
        assert cands == [["pa", "n1"], ["pb", "n2"]]

    def test_duplicates_deduplicated(self):
        ex_a = TrainingExample("qa", "a", "pa", ["shared"])
        ex_b = TrainingExample("qb", "b", "pb", ["shared"])
        config = TrainConfig(use_in_batch_negatives=True)
        cands = batch_candidates([ex_a, ex_b], config, {})
        assert cands[0].count("shared") == 1


class TestTrainStep:
    def setup_method(self):
        pass

    def _setup(self, tiny_vocab, mode, separate_roles=False, in_batch=True):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model, separate_roles=separate_roles) if mode == "dpt" else None
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=4)
        config = TrainConfig(mode=mode, epochs=1, batch_size=2, negatives_per_query=2,
                             use_in_batch_negatives=in_batch, seed=3)
        if mode == "dpt":
            model.set_trainable(False)
            prompts.set_trainable(True)
            params = prompts.parameters()
        else:
            model.set_trainable(True)
            model.params["mlm_bias"].requires_grad = False
            params = model.encoder_parameters()
        opt = AdamW(params, lr=config.learning_rate, total_steps=10)
        positives = {ex.qid: {ex.pos_pid} for ex in examples}
        return model, prompts, corpus, examples, config, opt, positives

    def test_dpt_step_leaves_backbone_bits(self, tiny_vocab):
        model, prompts, corpus, examples, config, opt, pos = self._setup(tiny_vocab, "dpt")
        before = model.checksums()
        train_step(examples[:2], model, prompts, config, opt, corpus, pos)
        assert model.checksums() == before

    def test_ft_step_changes_backbone(self, tiny_vocab):
        model, prompts, corpus, examples, config, opt, pos = self._setup(tiny_vocab, "ft")
        before = model.checksums()
        train_step(examples[:2], model, None, config, opt, corpus, pos)
        assert model.checksums() != before

    @pytest.mark.parametrize("in_batch", [True, False], ids=["in_batch", "own_negatives"])
    @pytest.mark.parametrize("layout", ["shared", "separate", "ft"])
    def test_loss_matches_public_encode_and_nll(self, tiny_vocab, layout, in_batch):
        # differential oracle: the graph loss must equal a recomputation
        # from the public encode() vectors via similarity() and nll_loss()
        model, prompts, corpus, examples, config, opt, pos = self._setup(
            tiny_vocab, "ft" if layout == "ft" else "dpt", layout == "separate", in_batch)
        batch = examples[:3]
        expected = []
        for ex, cands in zip(batch, batch_candidates(batch, config, pos)):
            q = encode(model, prompts, model.vocab.encode(ex.query), role="query")
            scores = [
                similarity(q, encode(model, prompts, model.vocab.encode(corpus[pid]),
                                     role="passage"))
                for pid in cands
            ]
            expected.append(nll_loss(scores[0], scores[1:]))
        report = train_step(batch, model, prompts, config, opt, corpus, pos)
        assert report.loss == pytest.approx(np.mean(expected), abs=1e-12)

    @pytest.mark.parametrize("in_batch", [True, False], ids=["in_batch", "own_negatives"])
    @pytest.mark.parametrize("separate", [False, True], ids=["shared", "separate"])
    def test_prompt_grads_match_per_example_composition(self, tiny_vocab, separate, in_batch):
        model, prompts, corpus, examples, config, _, pos = self._setup(
            tiny_vocab, "dpt", separate, in_batch)
        batch = examples[:3]
        backward(per_example_loss(batch, model, prompts, config, corpus, pos))
        want = [p.grad.copy() for p in prompts.parameters()]
        opt = GradRecorder(prompts.parameters(), lr=config.learning_rate)
        opt.zero_grad()
        train_step(batch, model, prompts, config, opt, corpus, pos)
        assert len(opt.grads) == len(want)
        for got, ref in zip(opt.grads, want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_nan_loss_aborts_with_example_ids(self, tiny_vocab):
        model, prompts, corpus, examples, config, opt, pos = self._setup(tiny_vocab, "dpt")
        prompts.groups["shared"]["m0"].data[:] = np.nan  # corrupt one prefix
        with pytest.raises(TrainingDivergedError) as exc:
            train_step(examples[:2], model, prompts, config, opt, corpus, pos)
        assert exc.value.example_ids == [ex.qid for ex in examples[:2]]


class TestTrain:
    def test_loss_decreases_over_epochs(self, tiny_vocab):
        # ft mode: prompts have almost no leverage on a randomly initialized
        # backbone (their contribution is a near-common score shift), so the
        # 2-epoch learning signal is asserted on the full-plasticity path
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=10)
        config = TrainConfig(mode="ft", epochs=2, batch_size=2,
                             negatives_per_query=2, learning_rate=2e-2,
                             warmup_ratio=0.0, seed=0)
        result = train(examples, corpus, model, None, config)
        per_epoch = len(result.log) // 2
        first = np.mean([r.loss for r in result.log[:per_epoch]])
        last = np.mean([r.loss for r in result.log[per_epoch:]])
        assert last < first

    def test_freezing_invariant_full_run(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=6)
        before = model.checksums()
        config = TrainConfig(mode="dpt", epochs=2, batch_size=3, seed=1)
        train(examples, corpus, model, None, config)
        assert model.checksums() == before

    def test_determinism_same_seed_same_log(self, tiny_vocab):
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=6)
        config = TrainConfig(mode="dpt", epochs=1, batch_size=3, seed=9)

        def run():
            model = make_tiny_model(tiny_vocab)
            result = train(examples, corpus, model, None, config)
            return [(r.step, r.loss, r.learning_rate, r.grad_norm) for r in result.log]

        assert run() == run()

    def test_zero_epochs_returns_prompts_unchanged(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        snapshot = [p.data.copy() for p in prompts.parameters()]
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=4)
        config = TrainConfig(mode="dpt", epochs=0)
        result = train(examples, corpus, model, prompts, config)
        assert result.prompts is prompts
        for p, snap in zip(prompts.parameters(), snapshot):
            np.testing.assert_array_equal(p.data, snap)

    def test_ft_mode_rejects_prompts(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        prompts = make_tiny_prompts(model)
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=4)
        with pytest.raises(ValueError, match="ft mode"):
            train(examples, corpus, model, prompts, TrainConfig(mode="ft", epochs=1))

    @pytest.mark.parametrize("passed_in", [False, True], ids=["created", "passed_in"])
    def test_dpt_rejects_empty_prompt_set(self, tiny_vocab, passed_in):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        prompts = make_tiny_prompts(model) if passed_in else None
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=2)
        with pytest.raises(ValueError, match="prompt_length"):
            train(examples, corpus, model, prompts, TrainConfig(mode="dpt", epochs=1))

    def test_epoch_artifacts_written(self, tiny_vocab, tmp_path):
        model = make_tiny_model(tiny_vocab)
        corpus, examples = toy_retrieval_data(tiny_vocab, n_queries=4)
        config = TrainConfig(mode="dpt", epochs=2, batch_size=2, seed=0)
        train(examples, corpus, model, None, config, out_dir=str(tmp_path))
        assert (tmp_path / "prompts_epoch0.json").exists()
        assert (tmp_path / "prompts_epoch1.json").exists()
        assert (tmp_path / "prompts.json").exists()
        assert (tmp_path / "train_log.jsonl").exists()
