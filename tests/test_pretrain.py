"""Unit splitting, pair sampling, and the contrastive pretraining loss,
all checked against brute-force oracles."""

import math

import numpy as np
import pytest

from promptir import autodiff as ad
from promptir.encoder import encode_states, mlm_logits
from promptir.pretrain import (
    PreparedCorpus,
    PretrainConfig,
    PretrainUnitConfig,
    contrastive_loss,
    partner_ranks,
    pretrain,
    rip_loss,
    sample_batch,
    split_units,
)
from promptir.tokenizer import Vocabulary

from conftest import make_tiny_model, make_tiny_prompts


def brute_force_contrastive(embs):
    """Explicit double loop over (anchor, candidate) pairs; 2i and 2i+1 are partners."""
    n = len(embs)
    total = 0.0
    for a in range(n):
        partner = a ^ 1
        num = math.exp(float(embs[a] @ embs[partner]))
        den = sum(
            math.exp(float(embs[a] @ embs[o])) for o in range(n) if o != a
        )
        total += -math.log(num / den)
    return total / n


def per_unit_mlm(batch, model):
    """The masked-LM term one unit at a time: each masked unit's logits
    gathered and cross-entropied alone, zero for units without masked
    positions, summed left to right and scaled by 1/2m."""
    n = len(batch.token_ids)
    masked = [seq for seq in batch.masked if seq.positions]
    states, offsets = encode_states(model, list(batch.token_ids) + [seq.ids for seq in masked])
    unit_losses = []
    if masked:
        rows = [start + np.asarray(seq.positions) for start, seq in zip(offsets[n:], masked)]
        logits = mlm_logits(model, ad.embedding_gather(states, np.concatenate(rows)))
        ends = np.cumsum([len(seq.positions) for seq in masked])
        for seq, end in zip(masked, ends):
            unit_logits = ad.embedding_gather(logits, np.arange(end - len(seq.positions), end))
            unit_losses.append(ad.cross_entropy_rows(unit_logits, seq.labels).item())
    unit_losses += [0.0] * (len(batch.masked) - len(masked))
    return sum(unit_losses) * (1.0 / len(unit_losses))


class TestSplitUnits:
    CFG = PretrainUnitConfig()

    def test_two_plain_sentences(self):
        assert split_units("A b c. D e f.", self.CFG) == ["A b c.", "D e f."]

    def test_short_fragment_merges_forward(self):
        # "Hi." has 2 tokens, below the minimum of 3: joins the next sentence
        units = split_units("Hi. This is a longer sentence.", self.CFG)
        assert units == ["Hi. This is a longer sentence."]

    def test_trailing_fragment_merges_backward(self):
        units = split_units("This is a longer sentence. Bye.", self.CFG)
        assert units == ["This is a longer sentence. Bye."]

    def test_single_sentence_passage_yields_one_unit(self):
        assert len(split_units("Only one sentence here.", self.CFG)) == 1

    def test_exclamation_and_question_split(self):
        units = split_units("Is this real? Yes it is! Good to know.", self.CFG)
        assert units == ["Is this real?", "Yes it is!", "Good to know."]


class TestPreparedCorpus:
    def test_skip_report_counts_single_unit_passages(self):
        corpus = [
            ("p0", "First sentence here. Second sentence here."),
            ("p1", "Only one sentence in this passage."),
            ("p2", "Third passage first. Third passage second."),
        ]
        prepared = PreparedCorpus(corpus, PretrainUnitConfig())
        assert len(prepared) == 2
        assert prepared.skip_report == {
            "skipped_passages": 1,
            "reasons": {"too_few_units": 1},
        }

    def test_empty_passage_skipped_not_fatal(self):
        corpus = {"a": "One two three. Four five six.", "b": "   "}
        prepared = PreparedCorpus(corpus, PretrainUnitConfig())
        assert [pid for pid, _ in prepared.passages] == ["a"]
        assert prepared.skip_report == {"skipped_passages": 1, "reasons": {"too_few_units": 1}}

    def test_dict_corpus_equals_its_items(self):
        corpus = dict(topic_corpus(6))
        corpus["p_short"] = "Only one sentence in this passage."
        from_dict = PreparedCorpus(corpus, PretrainUnitConfig())
        from_items = PreparedCorpus(list(corpus.items()), PretrainUnitConfig())
        assert len(from_dict) == 6
        assert from_dict.passages == from_items.passages
        assert from_dict.skip_report == from_items.skip_report
        assert from_dict.skip_report["skipped_passages"] == 1


class TestSampleBatch:
    def _vocab(self):
        return Vocabulary.build([
            "alpha beta gamma delta. epsilon zeta eta theta. iota kappa mu nu.",
        ])

    def test_two_sentence_passage_gives_forced_pair(self):
        vocab = self._vocab()
        corpus = [("p0", "alpha beta gamma delta. epsilon zeta eta theta.")]
        rng = np.random.default_rng(0)
        batch = sample_batch(corpus, PretrainUnitConfig(), 1, rng, vocab, 32)
        assert set(batch.units[0]) == {
            "alpha beta gamma delta.", "epsilon zeta eta theta.",
        }

    def test_batch_shape(self):
        vocab = self._vocab()
        corpus = [
            (f"p{i}", "alpha beta gamma delta. epsilon zeta eta theta. iota kappa mu nu.")
            for i in range(6)
        ]
        rng = np.random.default_rng(1)
        batch = sample_batch(corpus, PretrainUnitConfig(), 4, rng, vocab, 32)
        assert len(batch.passage_ids) == len(set(batch.passage_ids)) == 4
        assert len(batch.token_ids) == 8
        assert len(batch.masked) == 8

    def test_pair_sampling_uniform_over_three_sentences(self):
        vocab = self._vocab()
        corpus = [("p0", "alpha beta gamma delta. epsilon zeta eta theta. iota kappa mu nu.")]
        prepared = PreparedCorpus(corpus, PretrainUnitConfig())
        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(10_000):
            batch = sample_batch(prepared, PretrainUnitConfig(), 1, rng, vocab, 32,
                                 mask_rate=0.0)
            key = frozenset(batch.units[0])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 3) < 0.03

    def test_insufficient_passages_rejected(self):
        vocab = self._vocab()
        corpus = [("p0", "alpha beta gamma delta. epsilon zeta eta theta.")]
        with pytest.raises(ValueError, match="eligible"):
            sample_batch(corpus, PretrainUnitConfig(), 3,
                         np.random.default_rng(0), vocab, 32)


class TestContrastiveLoss:
    def test_single_pair_loss_zero(self):
        rng = np.random.default_rng(0)
        embs = rng.normal(size=(2, 5))
        assert contrastive_loss(embs).item() == pytest.approx(0.0, abs=1e-15)

    def test_four_identical_embeddings_ln3(self):
        embs = np.tile(np.array([0.3, -0.7, 1.1]), (4, 1))
        assert contrastive_loss(embs).item() == pytest.approx(math.log(3), abs=1e-12)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            embs = rng.normal(size=(2 * m, 4))
            got = contrastive_loss(embs).item()
            want = brute_force_contrastive(embs)
            assert got == pytest.approx(want, abs=1e-10)

    def test_large_partner_score_drives_loss_down(self):
        # monotone check toward the partner-dominates limit
        losses = []
        for boost in (1.0, 3.0, 6.0):
            embs = np.array([
                [boost, 0.0], [boost, 0.0],
                [0.0, boost], [0.0, boost],
            ])
            losses.append(contrastive_loss(embs).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[-1] < 0.01

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        embs = rng.normal(size=(6, 4))
        base = contrastive_loss(embs).item()
        # swap pair order: pairing stays aligned with the permuted layout
        perm = [4, 5, 0, 1, 2, 3]
        assert contrastive_loss(embs[perm]).item() == pytest.approx(base, abs=1e-12)

    def test_score_shift_invariance(self):
        # an extra constant coordinate shifts every pairwise score by c^2
        rng = np.random.default_rng(9)
        embs = rng.normal(size=(4, 3))
        base = contrastive_loss(embs).item()
        c = 1.7
        shifted = np.hstack([embs, np.full((4, 1), c)])
        assert contrastive_loss(shifted).item() == pytest.approx(base, abs=1e-10)

    def test_invalid_pairing_rejected(self):
        with pytest.raises(ValueError, match="even"):
            contrastive_loss(np.zeros((3, 2)))

    def test_partner_ranks(self):
        s = np.array([
            [9.0, 1.0, 2.0, 0.5],
            [1.0, 9.0, 0.1, 0.2],
            [2.0, 3.0, 9.0, 1.0],
            [4.0, 3.5, 3.0, 9.0],
        ])
        # anchors 0,1 partnered; 2,3 partnered:
        # anchor 0: partner score 1.0, one other (2.0) beats it -> rank 2
        # anchor 1: partner score 1.0, no other beats it -> rank 1
        # anchors 2,3: both non-partners beat the partner -> rank 3
        assert partner_ranks(s) == [2, 1, 3, 3]

    def test_partner_ranks_match_triple_loop(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6, 10):
            for _ in range(20):
                s = rng.integers(0, 3, size=(n, n)).astype(float)  # few values: many ties
                want = [1 + sum(1 for o in range(n)
                                if o not in (a, a ^ 1) and s[a, o] > s[a, a ^ 1])
                        for a in range(n)]
                assert partner_ranks(s) == want


class TestRipLoss:
    def _batch(self, model, m, mask_rate):
        corpus = [
            (f"p{i}", "alpha cats sit near doors. birds fly over tall trees. "
                      "green plants grow in sunlit rooms.")
            for i in range(m + 2)
        ]
        vocab = model.vocab
        rng = np.random.default_rng(3)
        return sample_batch(corpus, PretrainUnitConfig(), m, rng, vocab,
                            model.config.max_seq_len, mask_rate=mask_rate)

    def test_masking_disabled_combined_equals_contrastive(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        batch = self._batch(model, 3, mask_rate=0.0)
        loss, rep = rip_loss(batch, model)
        assert rep["mlm"] == 0.0
        assert rep["combined"] == pytest.approx(rep["contrastive"], abs=1e-15)

    def test_single_pair_combined_equals_mlm(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        batch = self._batch(model, 1, mask_rate=0.3)
        loss, rep = rip_loss(batch, model)
        assert rep["contrastive"] == pytest.approx(0.0, abs=1e-15)
        assert rep["combined"] == pytest.approx(rep["mlm"], abs=1e-15)

    @pytest.mark.parametrize("mask_rate", [0.0, 0.05, 0.3])
    def test_mlm_matches_per_unit_composition(self, tiny_vocab, mask_rate):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        batch = self._batch(model, 4, mask_rate)
        if mask_rate == 0.05:  # some units masked, some not
            assert len({bool(seq.positions) for seq in batch.masked}) == 2
        _, rep = rip_loss(batch, model)
        assert rep["mlm"] == pytest.approx(per_unit_mlm(batch, model), rel=1e-15, abs=0)

    def test_report_arithmetic(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        batch = self._batch(model, 3, mask_rate=0.3)
        loss, rep = rip_loss(batch, model)
        assert rep["combined"] == pytest.approx(
            rep["contrastive"] + rep["mlm"], abs=1e-12
        )
        assert loss.item() == rep["combined"]


def topic_corpus(n_passages=30, seed=0):
    """Passages with a repeated per-passage theme word, so paired units
    share a learnable signal."""
    rng = np.random.default_rng(seed)
    themes = [f"theme{i:02d}" for i in range(n_passages)]
    fillers = [f"word{i:02d}" for i in range(20)]
    corpus = []
    for i, theme in enumerate(themes):
        sentences = []
        for _ in range(3):
            picks = rng.choice(fillers, size=3)
            sentences.append(f"{theme} {' '.join(picks)} {theme}.")
        corpus.append((f"p{i:03d}", " ".join(sentences)))
    return corpus


class TestPretrain:
    def test_prompts_only_freezes_backbone(self, tiny_vocab):
        corpus = topic_corpus(12)
        vocab = Vocabulary.build([t for _, t in corpus])
        model = make_tiny_model(vocab, prompt_length=4)
        before = model.checksums()
        config = PretrainConfig(mode="prompts_only", epochs=2, batch_size=4,
                                learning_rate=1e-3, seed=0)
        result = pretrain(corpus, model, config)
        assert model.checksums() == before
        assert result.prompts is not None

    def test_backbone_mode_rejects_prompts(self, tiny_vocab):
        corpus = topic_corpus(12)
        vocab = Vocabulary.build([t for _, t in corpus])
        model = make_tiny_model(vocab, prompt_length=4)
        ps = make_tiny_prompts(model)
        with pytest.raises(ValueError, match="backbone mode"):
            pretrain(corpus, model, PretrainConfig(mode="backbone"), prompts=ps)

    @pytest.mark.parametrize("passed_in", [False, True], ids=["created", "passed_in"])
    def test_prompts_only_rejects_empty_prompt_set(self, passed_in):
        corpus = topic_corpus(12)
        model = make_tiny_model(Vocabulary.build([t for _, t in corpus]), prompt_length=0)
        ps = make_tiny_prompts(model) if passed_in else None
        with pytest.raises(ValueError, match="prompt_length"):
            pretrain(corpus, model, PretrainConfig(mode="prompts_only", epochs=1), prompts=ps)

    @pytest.mark.parametrize("field, value", [("batch_size", 0), ("epochs", -1),
                                              ("learning_rate", -1e-2), ("warmup_ratio", 3.0),
                                              ("warmup_ratio", -0.1), ("mask_rate", 1.5),
                                              ("mask_rate", -0.5), ("mask_rate", math.nan),
                                              ("weight_decay", -0.5)])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PretrainConfig(**{field: value})

    def test_zero_epochs_is_identity(self, tiny_vocab):
        corpus = topic_corpus(12)
        vocab = Vocabulary.build([t for _, t in corpus])
        model = make_tiny_model(vocab, prompt_length=0)
        before = model.checksums()
        result = pretrain(corpus, model, PretrainConfig(mode="backbone", epochs=0))
        assert model.checksums() == before
        assert result.log == []

    def test_backbone_training_improves_partner_rank(self):
        corpus = topic_corpus(24)
        vocab = Vocabulary.build([t for _, t in corpus])
        model = make_tiny_model(vocab, prompt_length=0, seed=0)
        config = PretrainConfig(mode="backbone", epochs=20, batch_size=6,
                                learning_rate=3e-3, seed=0)
        result = pretrain(corpus, model, config)
        ranks = [r.mean_partner_rank for r in result.log]
        tail = max(1, len(ranks) // 10)
        assert np.mean(ranks[-tail:]) < np.mean(ranks[:tail])

    def test_determinism(self):
        corpus = topic_corpus(12)
        vocab = Vocabulary.build([t for _, t in corpus])

        def run():
            model = make_tiny_model(vocab, prompt_length=0, seed=1)
            config = PretrainConfig(mode="backbone", epochs=1, batch_size=4,
                                    learning_rate=1e-3, seed=5)
            result = pretrain(corpus, model, config)
            return [(r.step, r.combined, r.mean_partner_rank) for r in result.log]

        assert run() == run()

    def test_artifacts_written(self, tmp_path):
        corpus = topic_corpus(12)
        vocab = Vocabulary.build([t for _, t in corpus])
        model = make_tiny_model(vocab, prompt_length=0)
        config = PretrainConfig(mode="backbone", epochs=1, batch_size=4, seed=0)
        pretrain(corpus, model, config, out_dir=str(tmp_path))
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "pretrain_log.jsonl").exists()
        assert (tmp_path / "skip_report.json").exists()
