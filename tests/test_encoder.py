"""Encoder forward contracts: prompt prefix behavior, pooling, MLM,
parameter counts, and checkpoint round-trips."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptir import autodiff as ad
from promptir.autodiff import AdamW, Tensor, backward, grad_check
from promptir.encoder import (
    EncoderConfig,
    EncoderModel,
    MaskedSequence,
    apply_mlm_masking,
    deserialize_model,
    encode,
    encode_states,
    init_model,
    load_checkpoint,
    mlm_loss,
    param_shapes,
    pooled,
    prefix_kv,
    save_checkpoint,
    serialize_model,
)
from promptir.prompts import (
    PromptSet,
    load_promptset,
    promptset_from_json,
    promptset_to_json,
    save_promptset,
)
from promptir.pretrain import PretrainBatch, rip_loss
from promptir.tokenizer import CLS_ID, SEP_ID, Vocabulary
from promptir.training import TrainConfig, TrainingExample, train_step, unfreeze
from promptir.vector_index import DenseRetriever, encode_corpus

from conftest import BAD_PROMPTSET_HEADERS, TINY_TEXTS, make_tiny_model, make_tiny_prompts


def encode_tokens(model, prompts, token_ids, role="query"):
    """First-token embedding as a 1 x d graph tensor, as training computes it."""
    return pooled(model, [token_ids], prefix_kv(model, prompts, role))


def param_count(params):
    return sum(p.size for p in params)


def encode_text(model, prompts, text, role="query"):
    ids = model.vocab.encode(text, max_len=model.config.max_seq_len)
    return encode(model, prompts, ids, role=role)


class TestEncode:
    def test_output_dim_and_determinism(self, tiny_model, tiny_prompts):
        v1 = encode_text(tiny_model, tiny_prompts, "the cat sat on the mat.")
        v2 = encode_text(tiny_model, tiny_prompts, "the cat sat on the mat.")
        assert v1.shape == (tiny_model.config.hidden_size,)
        np.testing.assert_array_equal(v1, v2)

    def test_zero_prompts_differ_from_none(self, tiny_model, tiny_prompts):
        # a zero prefix matrix still adds attention mass through the K/V biases
        for group in tiny_prompts.groups.values():
            for t in group.values():
                t.data[:] = 0.0
        with_zero = encode_text(tiny_model, tiny_prompts, "the cat sat.")
        without = encode_text(tiny_model, None, "the cat sat.")
        assert np.all(np.isfinite(with_zero)) and np.all(np.isfinite(without))
        assert not np.array_equal(with_zero, without)

    def test_empty_prefix_equals_plain(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        empty = make_tiny_prompts(model)
        a = encode_text(model, empty, "the cat sat.")
        b = encode_text(model, None, "the cat sat.")
        np.testing.assert_array_equal(a, b)

    def test_requires_cls_prefix(self, tiny_model):
        with pytest.raises(ValueError, match="CLS"):
            encode(tiny_model, None, [7, 8, 9])

    def test_rejects_unknown_token_id(self, tiny_model):
        with pytest.raises(ValueError, match="unknown token id"):
            encode(tiny_model, None, [CLS_ID, len(tiny_model.vocab) + 3, SEP_ID])

    def test_rejects_too_long(self, tiny_model):
        ids = [CLS_ID] + [5] * tiny_model.config.max_seq_len
        with pytest.raises(ValueError, match="max_seq_len"):
            encode(tiny_model, None, ids)

    def test_prompt_dim_mismatch_rejected(self, tiny_model):
        bad = PromptSet.create("bad", 4, tiny_model.config.hidden_size * 2,
                               tiny_model.config.num_layers)
        with pytest.raises(ValueError, match="hidden size"):
            encode_text(tiny_model, bad, "the cat sat.")

    def test_prefix_locality(self, tiny_model, tiny_prompts):
        # perturbing a single layer's prefix matrix changes the embedding,
        # and never changes the output sequence length
        base = encode_text(tiny_model, tiny_prompts, "the cat sat.")
        for k in range(tiny_model.config.num_layers):
            bumped = tiny_prompts.copy()
            bumped.groups["shared"][f"m{k}"].data[0, 0] += 0.5
            out = encode_text(tiny_model, bumped, "the cat sat.")
            assert out.shape == base.shape
            assert not np.array_equal(out, base)

    def test_gradient_flows_to_prompts_with_frozen_backbone(self, tiny_model, tiny_prompts):
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        ids = tiny_model.vocab.encode("the cat sat on the mat.")
        vec = encode_tokens(tiny_model, tiny_prompts, ids)
        backward(ad.sum_all(vec))
        grads = [p.grad for p in tiny_prompts.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0) for g in grads)
        assert all(p.grad is None for p in tiny_model.parameters())

    def test_separate_role_groups(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab)
        ps = make_tiny_prompts(model, separate_roles=True)
        q = encode_text(model, ps, "the cat sat.", role="query")
        p = encode_text(model, ps, "the cat sat.", role="passage")
        assert not np.array_equal(q, p)

    def test_encoder_grad_check(self, tiny_model, tiny_prompts):
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        ids = tiny_model.vocab.encode("the cat sat on the mat.")
        w = Tensor(np.random.default_rng(3).normal(size=(1, tiny_model.config.hidden_size)))

        def f():
            vec = encode_tokens(tiny_model, tiny_prompts, ids)
            return ad.sum_all(ad.mul(vec, w))

        err = grad_check(f, tiny_prompts.parameters(), num_samples=24)
        assert err < 1e-4


def _dense_query(model, prompts):
    index = encode_corpus([("p0", TINY_TEXTS[0]), ("p1", TINY_TEXTS[1])], model, None)
    DenseRetriever(index, model, prompts)("the cat", 1)


def _train_step(model, prompts):
    texts = {f"p{i}": t for i, t in enumerate(TINY_TEXTS)}
    batch = [TrainingExample("q0", "the cat sat.", "p0", ["p1", "p2"])]
    # the optimizer holds nothing: an empty set has no gradient to step on
    train_step(batch, model, prompts, TrainConfig(), AdamW([], lr=1e-3), texts, {})


def _rip_loss(model, prompts):
    ids = [model.vocab.encode(t) for t in TINY_TEXTS[:4]]
    masked = [MaskedSequence(list(seq), [1], [seq[1]]) for seq in ids]
    rip_loss(PretrainBatch(["p0", "p1"], [], ids, masked), model, prompts)


def _mlm_loss(model, prompts):
    ids = model.vocab.encode(TINY_TEXTS[0])
    mlm_loss(model, [MaskedSequence(ids, [1], [ids[1]])], prompts)


# every way from a prompt set into a forward; each goes through prefix_kv's one check
ENTRY_POINTS = {
    "encode": lambda model, ps: encode(model, ps, model.vocab.encode("the cat sat.")),
    "encode_corpus": lambda model, ps: encode_corpus([("p0", TINY_TEXTS[0])], model, ps),
    "dense_retriever": _dense_query,
    "train_step": _train_step,
    "rip_loss": _rip_loss,
    "mlm_loss": _mlm_loss,
}
# (prompt length, hidden size, layer count) against the tiny backbone's (4, 16, 2)
GOOD_GEOMETRY = {"pinned_length": (4, 16, 2), "empty": (0, 16, 2)}
BAD_GEOMETRY = {"hidden_size": (4, 32, 2), "layer_count": (4, 16, 3), "pinned_length": (6, 16, 2),
                "empty_hidden_size": (0, 32, 2), "empty_layer_count": (0, 16, 3)}


class TestPromptGeometry:
    @pytest.mark.parametrize("geometry", GOOD_GEOMETRY.values(), ids=GOOD_GEOMETRY)
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_matching_set_accepted(self, tiny_model, entry, geometry):
        entry(tiny_model, PromptSet.create("fits", *geometry))

    @pytest.mark.parametrize("geometry", BAD_GEOMETRY.values(), ids=BAD_GEOMETRY)
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_wrong_geometry_rejected(self, tiny_model, entry, geometry):
        with pytest.raises(ValueError, match="prompt (hidden size|layer count|length)"):
            entry(tiny_model, PromptSet.create("wrong", *geometry))


def _invariance_models():
    vocab = Vocabulary.build(TINY_TEXTS)
    tiny = make_tiny_model(vocab)
    # the benchmark's layer shape: d=64, 4 heads, ffn=256, max_seq_len=64
    wide = make_tiny_model(vocab, hidden_size=64, num_heads=4, ffn_size=256,
                           max_seq_len=64, prompt_length=8)
    return {name: (m, make_tiny_prompts(m)) for name, m in (("tiny", tiny), ("wide", wide))}


INVARIANCE_MODELS = _invariance_models()


def random_batch(model, lengths, rng):
    """[CLS]-led sequences of random ids, one per length (capped at max_seq_len)."""
    cfg = model.config
    return [[CLS_ID] + rng.integers(0, cfg.vocab_size, size=min(n, cfg.max_seq_len) - 1).tolist()
            for n in lengths]


def assert_batch_invariant(model, prefix, batch):
    """Every sequence's rows in the packed batch equal its lone forward, bitwise."""
    states, offsets = encode_states(model, batch, prefix=prefix)
    for i, ids in enumerate(batch):
        lone, _ = encode_states(model, [ids], prefix=prefix)
        np.testing.assert_array_equal(states.data[offsets[i]:offsets[i + 1]], lone.data)


class TestPackedForward:
    """Batch invariance: packing never changes a sequence's bits."""

    @given(
        name=st.sampled_from(sorted(INVARIANCE_MODELS)),
        lengths=st.lists(st.integers(1, 64), min_size=1, max_size=10),
        with_prefix=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_batch_any_position(self, name, lengths, with_prefix, seed):
        model, prompts = INVARIANCE_MODELS[name]
        rng = np.random.default_rng(seed)
        prefix = prefix_kv(model, prompts if with_prefix else None, "passage")
        assert_batch_invariant(model, prefix, random_batch(model, lengths, rng))

    @given(
        name=st.sampled_from(sorted(INVARIANCE_MODELS)),
        lengths=st.lists(st.integers(1, 64), min_size=1, max_size=6),
        with_prefix=st.booleans(),
        pick=st.sampled_from(["first", "scattered", "one", "repeated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_requested_rows_equal_full_forward(self, name, lengths, with_prefix, pick, seed):
        # the last layer run on some rows gives those rows' bits of the full forward
        model, prompts = INVARIANCE_MODELS[name]
        rng = np.random.default_rng(seed)
        batch = random_batch(model, lengths, rng)
        prefix = prefix_kv(model, prompts if with_prefix else None, "query")
        full, offsets = encode_states(model, batch, prefix=prefix)
        n, one = offsets[-1], int(rng.integers(offsets[-1]))
        rows = {"first": offsets[:-1], "one": [one], "repeated": [one, int(rng.integers(n)), one],
                "scattered": rng.permutation(n)[:rng.integers(1, n + 1)].tolist()}[pick]
        states, _ = encode_states(model, batch, prefix=prefix, rows=rows)
        np.testing.assert_array_equal(states.data, full.data[rows])

    @pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
    @pytest.mark.parametrize("with_prefix", [False, True])
    def test_every_length_in_one_batch(self, name, with_prefix):
        model, prompts = INVARIANCE_MODELS[name]
        cfg = model.config
        rng = np.random.default_rng(5)
        batch = [[CLS_ID] + rng.integers(5, cfg.vocab_size, size=n - 1).tolist()
                 for n in rng.permutation(np.arange(1, cfg.max_seq_len + 1))]
        prefix = prefix_kv(model, prompts if with_prefix else None, "query")
        assert_batch_invariant(model, prefix, batch)

    def test_batch_gradients_match_lone_sum(self, tiny_model, tiny_prompts):
        # prompt gradients of a packed batch equal the sum over lone encodes
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        seqs = [tiny_model.vocab.encode(t) for t in ("the cat sat.", "dogs chase the red ball.")]
        w = Tensor(np.random.default_rng(4).normal(size=(2, tiny_model.config.hidden_size)))
        prefix = prefix_kv(tiny_model, tiny_prompts, "query")
        backward(ad.sum_all(ad.mul(pooled(tiny_model, seqs, prefix), w)))
        packed = [p.grad.copy() for p in tiny_prompts.parameters()]
        tiny_prompts.set_trainable(True)
        for i, ids in enumerate(seqs):
            row = Tensor(w.data[i:i + 1])
            backward(ad.sum_all(ad.mul(encode_tokens(tiny_model, tiny_prompts, ids), row)))
        for p, g in zip(tiny_prompts.parameters(), packed):
            np.testing.assert_allclose(p.grad, g, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="no sequences"):
            encode_states(tiny_model, [])


class TestBackwardRelease:
    """backward frees the graph as it walks it."""

    def _batch(self, model, rng, count=40):
        seqs = random_batch(model, rng.integers(10, 31, size=count), rng)
        return seqs, Tensor(rng.normal(size=(count, model.config.hidden_size)))

    def test_loss_on_released_prefix_raises(self, tiny_model, tiny_prompts):
        # two losses sharing one prefix cannot both backpropagate
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        seqs, w = self._batch(tiny_model, np.random.default_rng(8), 3)
        prefix = prefix_kv(tiny_model, tiny_prompts, "query")
        backward(ad.sum_all(ad.mul(pooled(tiny_model, seqs, prefix), w)))
        second = ad.sum_all(ad.mul(pooled(tiny_model, seqs, prefix), w))
        with pytest.raises(RuntimeError, match="released by an earlier backward"):
            backward(second)

    def test_backward_peak_is_a_fraction_of_the_tape(self, tiny_model, tiny_prompts):
        # without the release, backward holds every interior gradient and
        # peaks at about half the forward tape above its start
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        seqs, w = self._batch(tiny_model, np.random.default_rng(9))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefix = prefix_kv(tiny_model, tiny_prompts, "query")
            loss = ad.sum_all(ad.mul(pooled(tiny_model, seqs, prefix), w))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in tiny_prompts.parameters())
        assert (peak - start) / (start - base) < 0.35

    def test_forward_tape_per_token_row(self, tiny_model, tiny_prompts):
        # with the backbone frozen the tape keeps about 2.4 KB per token row
        # here; 4.4 KB when every op result kept its operands and their arrays
        tiny_model.set_trainable(False)
        tiny_prompts.set_trainable(True)
        seqs, w = self._batch(tiny_model, np.random.default_rng(9))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefix = prefix_kv(tiny_model, tiny_prompts, "query")
            loss = ad.sum_all(ad.mul(pooled(tiny_model, seqs, prefix), w))
            tape = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert tape / sum(map(len, seqs)) < 3200


class TestMlm:
    def test_untrained_loss_near_log_vocab(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        rng = np.random.default_rng(0)
        batch = []
        for text in ["the cat sat on the mat and purred softly.",
                     "dogs chase the red ball across the park every day.",
                     "rivers flow down the mountain into the quiet valley."]:
            ids = model.vocab.encode(text)
            batch.append(apply_mlm_masking(ids, len(model.vocab), rng, rate=0.4))
        loss = mlm_loss(model, batch).item()
        assert abs(loss - math.log(len(model.vocab))) < 0.1 * math.log(len(model.vocab))

    def test_zero_masked_positions_rejected(self, tiny_model):
        from promptir.encoder import MaskedSequence

        ids = tiny_model.vocab.encode("the cat sat.")
        batch = [MaskedSequence(ids, [], [])]
        with pytest.raises(ValueError, match="masked"):
            mlm_loss(tiny_model, batch)

    def test_loss_depends_only_on_masked_positions(self, tiny_model):
        # swapping tokens at unmasked positions (same masked input ids)
        # leaves the loss untouched: only masked rows enter the loss
        from promptir.encoder import MaskedSequence

        ids = tiny_model.vocab.encode("the cat sat on the mat.")
        a = MaskedSequence(list(ids), [2], [ids[2]])
        b = MaskedSequence(list(ids), [2], [ids[2]])
        assert mlm_loss(tiny_model, [a]).item() == mlm_loss(tiny_model, [b]).item()

    def test_masking_statistics(self, tiny_vocab):
        rng = np.random.default_rng(42)
        ids = [CLS_ID] + list(range(5, 25)) + [SEP_ID]
        n_masked = n_masktok = n_total = 0
        for _ in range(400):
            seq = apply_mlm_masking(ids, len(tiny_vocab), rng, rate=0.15)
            n_masked += len(seq.positions)
            n_masktok += sum(1 for p in seq.positions if seq.ids[p] == 2)
            n_total += 20
        rate = n_masked / n_total
        assert 0.12 < rate < 0.18
        assert 0.72 < n_masktok / n_masked < 0.88  # ~80% become [MASK]
        # specials never masked
        seq = apply_mlm_masking(ids, len(tiny_vocab), rng, rate=1.0)
        assert 0 not in seq.positions and len(ids) - 1 not in seq.positions

    def test_training_reduces_loss(self, tiny_vocab):
        # 50-sentence corpus, 200 optimizer steps on the backbone
        rng = np.random.default_rng(7)
        words = [t for t in tiny_vocab.tokens[5:] if t.isalpha()]
        corpus = [
            " ".join(rng.choice(words, size=6)) + "."
            for _ in range(50)
        ]
        model = make_tiny_model(tiny_vocab, num_layers=1, hidden_size=16,
                                ffn_size=16, prompt_length=0)
        model.set_trainable(True)
        opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
        losses = []
        for step in range(200):
            texts = [corpus[int(i)] for i in rng.integers(0, 50, size=4)]
            batch = []
            for t in texts:
                ids = model.vocab.encode(t)
                batch.append(apply_mlm_masking(ids, len(model.vocab), rng, rate=0.3))
            if not any(s.positions for s in batch):
                continue
            loss = mlm_loss(model, batch)
            backward(loss)
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestRealizePrompts:
    def test_direct_mode_returns_stored(self, tiny_prompts):
        mats = tiny_prompts.realize("query")
        for k, m in enumerate(mats):
            assert m is tiny_prompts.groups["shared"][f"m{k}"]

    def test_mlp_zero_weights_give_zero_matrices(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, reparam_mode="mlp", mlp_hidden=8)
        ps = make_tiny_prompts(model)
        for key in ("w1", "b1", "w2", "b2"):
            ps.groups["shared"][key].data[:] = 0.0
        for m in ps.realize("query"):
            np.testing.assert_array_equal(m.data, 0.0)

    def test_mlp_param_count_closed_form(self):
        l, d, L, H = 4, 16, 2, 8
        ps = PromptSet.create("t", l, d, L, reparam_mode="mlp", mlp_hidden=H)
        expected = l * d + (d * H + H) + (H * L * d + L * d)
        assert param_count(ps.parameters()) == expected

    def test_mlp_gradients_reach_source(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, reparam_mode="mlp", mlp_hidden=8)
        model.set_trainable(False)
        ps = make_tiny_prompts(model)
        ps.set_trainable(True)
        ids = model.vocab.encode("the cat sat.")
        vec = encode_tokens(model, ps, ids)
        backward(ad.sum_all(vec))
        assert ps.groups["shared"]["source"].grad is not None
        assert np.any(ps.groups["shared"]["source"].grad != 0)


class TestFrozenUntilTrained:
    """Prompt sets are created, loaded and copied frozen; training unfreezes them."""

    def test_created_loaded_and_copied_sets_are_frozen(self, tiny_prompts):
        loaded = promptset_from_json(promptset_to_json(tiny_prompts))
        for ps in (tiny_prompts, loaded, tiny_prompts.copy()):
            assert not any(p.requires_grad for p in ps.parameters())

    @pytest.mark.parametrize("given_set", [False, True])
    def test_unfreeze_makes_them_trainable(self, tiny_model, tiny_prompts, given_set):
        prompts, params = unfreeze(tiny_model, tiny_prompts if given_set else None, "dpt", seed=0)
        assert params and all(p.requires_grad for p in params)
        assert params == prompts.parameters()


class TestParamPartition:
    """Trainable (prompt) and frozen (backbone) counts against closed forms."""

    def test_toy_direct_count(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, num_layers=2, hidden_size=64,
                                num_heads=4, prompt_length=8, max_seq_len=32)
        ps = make_tiny_prompts(model)
        assert param_count(ps.parameters()) == 2 * 8 * 64 == 1024
        d, ffn, v, n_layers = 64, 32, len(tiny_vocab), 2
        per_layer = 4 * (d * d + d) + (d * ffn + ffn) + (ffn * d + d) + 4 * d
        frozen = v * d + 32 * d + 2 * d + v + n_layers * per_layer
        assert param_count(model.parameters()) == frozen
        assert sum(math.prod(shape) for shape in param_shapes(model.config).values()) == frozen

    def test_reference_dims_inside_paper_band(self):
        # L=24, d=1024, l=32 against a 355M backbone: ratio ~0.22%
        trainable = param_count(PromptSet.create("t", 32, 1024, 24).parameters())
        assert trainable == 786_432
        assert 0.001 <= trainable / (355_000_000 + trainable) <= 0.004

    def test_zero_length_prompts_ratio_zero(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, prompt_length=0)
        ps = make_tiny_prompts(model)
        assert param_count(ps.parameters()) == 0


class TestSerialization:
    def test_checkpoint_roundtrip_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == tiny_model.config
        assert loaded.vocab.tokens == tiny_model.vocab.tokens
        for name, p in tiny_model.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
        assert loaded.fingerprint() == tiny_model.fingerprint()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_model(b"NOPE" + b"\x00" * 64)

    def test_promptset_roundtrip(self, tiny_prompts, tmp_path):
        path = tmp_path / "task.promptset.json"
        save_promptset(tiny_prompts, path)
        loaded = load_promptset(path)
        assert loaded.task_name == tiny_prompts.task_name
        assert loaded.roles == tiny_prompts.roles
        for role in tiny_prompts.groups:
            for key, t in tiny_prompts.groups[role].items():
                np.testing.assert_array_equal(loaded.groups[role][key].data, t.data)

    def test_promptset_json_roundtrip_mlp(self, tiny_vocab):
        model = make_tiny_model(tiny_vocab, reparam_mode="mlp", mlp_hidden=8)
        ps = make_tiny_prompts(model, separate_roles=True)
        doc = promptset_to_json(ps)
        loaded = promptset_from_json(doc)
        a = [m.data for m in ps.realize("passage")]
        b = [m.data for m in loaded.realize("passage")]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("name, edit", BAD_PROMPTSET_HEADERS.items(),
                             ids=list(BAD_PROMPTSET_HEADERS))
    def test_promptset_header_strict(self, tiny_prompts, name, edit):
        with pytest.raises(ValueError) as exc:
            promptset_from_json(edit(promptset_to_json(tiny_prompts)))
        if name.startswith("negative_"):  # the message names the field
            field = name.removeprefix("negative_").removesuffix("_empty_payload")
            assert str(exc.value).startswith(f"{field} must be >= 0")

    def test_promptset_file_nested_too_deep_rejected(self, tmp_path):
        path = tmp_path / "deep.promptset.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="nests too deep"):
            load_promptset(path)

    def test_truncated_checkpoint_rejected(self, tiny_model):
        blob = serialize_model(tiny_model)
        rng = np.random.default_rng(0)
        # every field boundary of the fixed prefix, then random cuts
        for n in sorted({0, 2, 4, 6, 8, 10, 12, 14, len(blob) - 1,
                         *rng.integers(0, len(blob), size=40).tolist()}):
            with pytest.raises(ValueError):
                deserialize_model(blob[:n])

    def test_trailing_byte_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="trailing"):
            deserialize_model(serialize_model(tiny_model) + b"\x00")

    @staticmethod
    def with_header(blob, edit):
        """The checkpoint blob with its header replaced by edit(header), raw
        bytes as they are, anything else as JSON."""
        hlen = int.from_bytes(blob[8:12], "little")
        raw = edit(json.loads(blob[12:12 + hlen]))
        if not isinstance(raw, bytes):
            raw = json.dumps(raw, sort_keys=True).encode("utf-8")
        return blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[12 + hlen:]

    @classmethod
    def with_config(cls, blob, **fields):
        """The checkpoint blob with its header config updated by fields."""
        return cls.with_header(blob, lambda h: {**h, "config": {**h["config"], **fields}})

    @pytest.mark.parametrize("edit", [
        lambda h: [h],
        lambda h: {"vocab": h["vocab"]},
        lambda h: {"config": h["config"]},
        lambda h: {**h, "config": {**h["config"], "depth": 2}},
        lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "num_heads"}},
        lambda h: b"[" * 100_000,
    ], ids=["not_an_object", "no_config", "no_vocab", "unknown_config_key",
            "missing_config_key", "nested_too_deep"])
    def test_malformed_header_rejected(self, tiny_model, edit):
        with pytest.raises(ValueError, match="header"):
            deserialize_model(self.with_header(serialize_model(tiny_model), edit))

    @pytest.mark.parametrize("change", ["missing", "reshaped", "extra"])
    def test_arrays_off_the_config_layout_rejected(self, tiny_model, change):
        params = dict(tiny_model.params)
        if change == "missing":
            del params["layer1.bo"]
        elif change == "reshaped":
            params["tok_emb"] = Tensor(params["tok_emb"].data[:, :-1])
        else:
            params["layer2.wq"] = params["layer0.wq"]
        blob = serialize_model(EncoderModel(tiny_model.config, tiny_model.vocab, params))
        with pytest.raises(ValueError, match="layout"):
            deserialize_model(blob)

    def test_legacy_config_fields_load_at_their_one_value(self, tiny_model):
        blob = self.with_config(serialize_model(tiny_model), dropout_rate=0.0,
                                pooling="first_token")
        loaded = deserialize_model(blob)
        assert loaded.config == tiny_model.config
        assert loaded.fingerprint() == tiny_model.fingerprint()

    @pytest.mark.parametrize("fields", [{"dropout_rate": 0.1}, {"pooling": "mean"}])
    def test_legacy_config_fields_other_values_rejected(self, tiny_model, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            deserialize_model(self.with_config(serialize_model(tiny_model), **fields))

    @pytest.mark.parametrize("field, value, message", [
        # a model that can encode no text, so a server over it would 500
        ("max_seq_len", 1, "max_seq_len must be >= 2"),
        # checked before the head divisibility, which used to divide by it
        ("num_heads", 0, "num_heads must be positive"),
    ])
    def test_config_the_encoder_cannot_run_rejected(self, tiny_model, field, value, message):
        with pytest.raises(ValueError, match=message):
            deserialize_model(self.with_config(serialize_model(tiny_model), **{field: value}))

    def test_fingerprint_tracks_weights(self, tiny_model):
        fp1 = tiny_model.fingerprint()
        tiny_model.params["tok_emb"].data[0, 0] += 1.0
        assert tiny_model.fingerprint() != fp1

    def test_fingerprint_hashes_the_checkpoint(self, tiny_model, tmp_path):
        # streamed into the hash, so no blob; the digest is the checkpoint's
        blob = serialize_model(tiny_model)
        assert tiny_model.fingerprint() == hashlib.sha256(blob).hexdigest()
        save_checkpoint(tiny_model, tmp_path / "model.ckpt")
        assert (tmp_path / "model.ckpt").read_bytes() == blob

    def test_fingerprint_changes_after_one_step(self, tiny_vocab):
        # AdamW writes weights in place, so the hash is never cached
        model = make_tiny_model(tiny_vocab)
        model.set_trainable(True)
        before = model.fingerprint()
        ids = model.vocab.encode(TINY_TEXTS[0])
        backward(mlm_loss(model, [MaskedSequence(ids, [1, 2], ids[1:3])]))
        AdamW(model.parameters(), lr=1e-3).step()
        assert model.fingerprint() != before


class TestConfigValidation:
    def test_head_divisibility(self, tiny_vocab):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(num_layers=1, hidden_size=10, num_heads=3,
                          ffn_size=8, vocab_size=len(tiny_vocab), max_seq_len=8)

    @pytest.mark.parametrize("max_seq_len", [0, 1])
    def test_max_seq_len_fits_cls_and_sep(self, tiny_vocab, max_seq_len):
        # Vocabulary.encode always emits [CLS] and [SEP]
        with pytest.raises(ValueError, match="max_seq_len must be >= 2"):
            EncoderConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=8,
                          vocab_size=len(tiny_vocab), max_seq_len=max_seq_len)

    def test_mlp_mode_needs_hidden(self, tiny_vocab):
        with pytest.raises(ValueError, match="mlp_hidden"):
            EncoderConfig(num_layers=1, hidden_size=8, num_heads=2,
                          ffn_size=8, vocab_size=len(tiny_vocab), max_seq_len=8,
                          reparam_mode="mlp")
