"""Forward fixtures, analytic gradients, and finite-difference checks for
the autodiff engine. Every registered op gets a central-difference check on
randomized small tensors; analytic fixtures are asserted exactly."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptir import autodiff as ad
from promptir.autodiff import (
    AdamW,
    MissingGradientError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
)


def rand_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestForwardFixtures:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 5)))
        eye = Tensor(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, a).data, a.data)

    def test_gelu_zero(self):
        assert ad.gelu(Tensor(np.zeros((1, 1)))).data[0, 0] == 0.0

    def test_layer_norm_constant_row(self):
        # constant rows normalize to zero before gain/bias
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert exc.value.op == "matmul"
        assert exc.value.shapes == ((2, 3), (2, 3))

    def test_ops_finite_on_finite_inputs(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 6)) * 50)  # large values stress softmax
        assert np.all(np.isfinite(ad.attention(x, x, x, [0, 4], 2).data))
        loss = ad.cross_entropy_rows(x, [0, 1, 2, 3])
        assert np.isfinite(loss.data)


class TestBackwardFixtures:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=0)

    def test_softmax_cross_entropy_symmetric_logits(self):
        logits = Tensor([[0.0, 0.0]], requires_grad=True)
        loss = ad.cross_entropy_rows(logits, [0])
        backward(loss)
        np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]], atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(ad.mul(x, x))

    def test_frozen_tensors_get_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        loss = ad.sum_all(ad.mul(x, c))
        backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [3.0, 4.0])

    def test_accumulation_linearity(self):
        # a tensor used k times receives the sum of the per-use gradients
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, 3)
        once = ad.sum_all(ad.mul(x, x))
        backward(once)
        single = x.grad.copy()

        x.grad = None
        twice = ad.add(ad.sum_all(ad.mul(x, x)), ad.sum_all(ad.mul(x, x)))
        backward(twice)
        np.testing.assert_allclose(x.grad, 2 * single, rtol=1e-15)

    def test_second_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        backward(loss)
        with pytest.raises(RuntimeError, match="released by an earlier backward"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_release_keeps_data_and_leaf_grads(self):
        # interior entries drop their gradient and tape; values and leaf gradients stay
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.sum_all(y)
        backward(loss)
        entry = y._entry
        assert entry.grad is None and entry._parents == () and entry._grad_fn is ad._released
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(y.data, [1.0, 4.0])
        assert loss.item() == 5.0
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            a = rand_tensor(rng, 4, 3)
            b = rand_tensor(rng, 3, 2)
            loss = ad.sum_all(ad.gelu(ad.matmul(a, b)))
            backward(loss)
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gb1, gb2)


class TestOpGradChecks:
    """Analytic vs central finite differences (h=1e-5) for each op."""

    TOL = 1e-4

    def check(self, f, params):
        err = grad_check(f, params, num_samples=40, h=1e-5, rng=np.random.default_rng(0))
        assert err < self.TOL, f"max relative error {err}"

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2)
        self.check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])

    def test_transpose(self):
        rng = np.random.default_rng(11)
        a = rand_tensor(rng, 3, 4)
        w = Tensor(rng.normal(size=(3, 2)))
        self.check(lambda: ad.sum_all(ad.matmul(ad.transpose(a), w)), [a])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_linear(self, rows):
        rng = np.random.default_rng(14)
        x, w, b = rand_tensor(rng, rows, 4), rand_tensor(rng, 4, 2), rand_tensor(rng, 2)
        self.check(lambda: ad.sum_all(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))), [x, w, b])

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(12)
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4)
        self.check(lambda: ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_scale_mul(self):
        rng = np.random.default_rng(13)
        a, b = rand_tensor(rng, 5), rand_tensor(rng, 5)
        c = Tensor(np.full(5, 2.5))
        self.check(lambda: ad.sum_all(ad.mul(ad.mul(a, b), c)), [a, b])

    def test_layer_norm(self):
        rng = np.random.default_rng(15)
        x, g, b = rand_tensor(rng, 3, 6), rand_tensor(rng, 6), rand_tensor(rng, 6)
        w = Tensor(rng.normal(size=(3, 6)))
        self.check(lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])

    @pytest.mark.parametrize("frozen", [None, "x", "residual"])
    def test_layer_norm_residual(self, frozen):
        # LN(x + residual): each trainable input gets the gradient, whichever is frozen
        rng = np.random.default_rng(17)
        x, r = rand_tensor(rng, 3, 6), rand_tensor(rng, 3, 6)
        g, b = rand_tensor(rng, 6), rand_tensor(rng, 6)
        x.requires_grad, r.requires_grad = frozen != "x", frozen != "residual"
        w = Tensor(rng.normal(size=(3, 6)))

        def f():
            return ad.sum_all(ad.mul(ad.layer_norm(x, g, b, residual=r), w))

        self.check(f, [t for t in (x, r, g, b) if t.requires_grad])
        backward(f())
        assert (x.grad is None) == (frozen == "x") and (r.grad is None) == (frozen == "residual")

    def test_gelu(self):
        rng = np.random.default_rng(16)
        a = rand_tensor(rng, 4, 4)
        self.check(lambda: ad.sum_all(ad.gelu(a)), [a])

    def test_tanh(self):
        rng = np.random.default_rng(17)
        a = rand_tensor(rng, 4, 4)
        self.check(lambda: ad.sum_all(ad.tanh(a)), [a])

    def test_embedding_gather(self):
        rng = np.random.default_rng(18)
        table = rand_tensor(rng, 6, 3)
        ids = [0, 2, 2, 5]  # repeated row exercises scatter-add
        w = Tensor(rng.normal(size=(4, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.embedding_gather(table, ids), w)), [table])

    @pytest.mark.parametrize("ids", [[-1], [6], [0, 6, 2], [3, -2, 5]],
                             ids=["negative", "row_count", "mixed_high", "mixed_negative"])
    def test_embedding_gather_out_of_range(self, ids):
        table = Tensor(np.zeros((6, 3)))
        with pytest.raises(ValueError, match="index out of range for table with 6 rows"):
            ad.embedding_gather(table, ids)

    def test_embedding_gather_empty(self):
        table = Tensor(np.zeros((6, 3)))
        assert ad.embedding_gather(table, []).shape == (0, 3)

    def test_slice(self):
        rng = np.random.default_rng(19)
        a = rand_tensor(rng, 4, 5)

        def f():
            rows = ad.slice_(a, 0, 1, 3)  # 2x5
            block = ad.slice_(rows, 1, 2, 5)  # 2x3
            return ad.sum_all(ad.mul(block, block))

        self.check(f, [a])

    def test_cross_entropy_rows(self):
        rng = np.random.default_rng(22)
        logits = rand_tensor(rng, 4, 6)
        self.check(lambda: ad.cross_entropy_rows(logits, [1, 0, 5, 3]), [logits])

    def test_cross_entropy_rows_weighted(self):
        rng = np.random.default_rng(23)
        logits = rand_tensor(rng, 4, 6)
        weights = np.array([0.5, 0.0, 0.125, 2.0])  # unequal, one row weighted out
        loss = ad.cross_entropy_rows(logits, [1, 0, 5, 3], weights)
        per_row = [ad.cross_entropy_rows(ad.slice_(logits, 0, i, i + 1), [t]).item()
                   for i, t in enumerate([1, 0, 5, 3])]
        assert loss.item() == pytest.approx(np.dot(per_row, weights), rel=1e-14)
        self.check(lambda: ad.cross_entropy_rows(logits, [1, 0, 5, 3], weights), [logits])
        backward(loss)
        np.testing.assert_array_equal(logits.grad[1], 0.0)

    def test_cross_entropy_rows_weights_shape_checked(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy_rows(Tensor(np.zeros((3, 2))), [0, 1, 0], [1.0, 1.0])


def reference_attention(q, k, v, offsets, num_heads, prefix=None):
    """Per-sequence, per-head loop over plain arrays: the oracle for attention."""
    d = q.shape[1]
    dh = d // num_heads
    out = np.zeros_like(q)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        keys, values = k[lo:hi], v[lo:hi]
        if prefix is not None:
            keys = np.vstack([prefix[0], keys])
            values = np.vstack([prefix[1], values])
        for h in range(num_heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[lo:hi, cols] @ keys[:, cols].T / math.sqrt(dh)
            w = np.exp(s - s.max(axis=1, keepdims=True))
            out[lo:hi, cols] = (w / w.sum(axis=1, keepdims=True)) @ values[:, cols]
    return out


class TestAttention:
    """The fused multi-head attention op over packed, ragged sequences."""

    OFFSETS = [0, 1, 5, 7]  # lengths 1, 4 and 2

    def inputs(self, seed, prompt_length, d=6):
        rng = np.random.default_rng(seed)
        n = self.OFFSETS[-1]
        q, k, v = (rand_tensor(rng, n, d) for _ in range(3))
        prefix = None
        if prompt_length is not None:
            prefix = (rand_tensor(rng, prompt_length, d), rand_tensor(rng, prompt_length, d))
        w = Tensor(rng.normal(size=(n, d)))
        return q, k, v, prefix, w

    @pytest.mark.parametrize("prompt_length", [None, 0, 3])
    def test_grad_check(self, prompt_length):
        q, k, v, prefix, w = self.inputs(30, prompt_length)
        params = [q, k, v] + list(prefix or ())

        def f():
            return ad.sum_all(ad.mul(ad.attention(q, k, v, self.OFFSETS, 2, prefix), w))

        err = grad_check(f, params, num_samples=120, h=1e-5, rng=np.random.default_rng(0))
        assert err < 1e-4, f"max relative error {err}"

    @pytest.mark.parametrize("prompt_length", [None, 0, 3])
    def test_matches_per_head_reference(self, prompt_length):
        q, k, v, prefix, _ = self.inputs(31, prompt_length)
        got = ad.attention(q, k, v, self.OFFSETS, 3, prefix).data
        plain = None if prefix is None else (prefix[0].data, prefix[1].data)
        want = reference_attention(q.data, k.data, v.data, self.OFFSETS, 3, plain)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_equal_scores_average_values(self):
        # zero queries give every key the same weight
        q, k, v, prefix, _ = self.inputs(35, 3)
        q.data[:] = 0.0
        out = ad.attention(q, k, v, self.OFFSETS, 2, prefix).data
        for lo, hi in zip(self.OFFSETS[:-1], self.OFFSETS[1:]):
            mean = np.vstack([prefix[1].data, v.data[lo:hi]]).mean(axis=0)
            np.testing.assert_allclose(out[lo:hi], np.tile(mean, (hi - lo, 1)), atol=1e-15)

    def test_sequences_do_not_interact(self):
        q, k, v, prefix, _ = self.inputs(32, 3)
        base = ad.attention(q, k, v, self.OFFSETS, 2, prefix).data
        for t in (q, k, v):
            t.data[1:5] += 1.0  # only the second sequence's rows
        moved = ad.attention(q, k, v, self.OFFSETS, 2, prefix).data
        np.testing.assert_array_equal(moved[[0, 5, 6]], base[[0, 5, 6]])
        assert not np.array_equal(moved[1:5], base[1:5])

    def test_frozen_operands_get_no_grad(self):
        q, k, v, prefix, w = self.inputs(33, 3)
        for t in (q, k, v):
            t.requires_grad = False
        backward(ad.sum_all(ad.mul(ad.attention(q, k, v, self.OFFSETS, 2, prefix), w)))
        assert q.grad is None and k.grad is None and v.grad is None
        assert prefix[0].grad is not None and np.any(prefix[0].grad != 0)
        assert prefix[1].grad is not None and np.any(prefix[1].grad != 0)

    @pytest.mark.parametrize("frozen", ["k", "v", "kv"])
    def test_frozen_key_or_value_keeps_other_grads_bitwise(self, frozen):
        # the trainable operands get the bits they get with nothing frozen
        grads = []
        for skip in ("", frozen):
            q, k, v, prefix, w = self.inputs(33, 3)
            k.requires_grad, v.requires_grad = "k" not in skip, "v" not in skip
            backward(ad.sum_all(ad.mul(ad.attention(q, k, v, self.OFFSETS, 2, prefix), w)))
            grads.append([t.grad for t in (q, k, v) + prefix])
        for name, got, want in zip(("q", "k", "v", "pk", "pv"), *reversed(grads)):
            if name in frozen:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_bad_offsets_and_shapes_rejected(self):
        q, k, v, prefix, _ = self.inputs(34, 3)
        for offsets in ([0, 3, 3, 7], [1, 7], [0, 6]):
            with pytest.raises(ValueError, match="offsets"):
                ad.attention(q, k, v, offsets, 2, prefix)
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, self.OFFSETS, 4, prefix)  # 6 columns, 4 heads
        with pytest.raises(ShapeError):
            ad.attention(q, k, v, self.OFFSETS, 2, (prefix[0], Tensor(np.zeros((2, 6)))))


class TestFrozenOperandSkip:
    """Binary ops build no gradient for an operand that does not require one."""

    @pytest.mark.parametrize("op", ["matmul", "add", "mul"])
    def test_gradient_only_for_trainable_operand(self, op):
        rng = np.random.default_rng(35)
        a = rand_tensor(rng, 3, 3)
        b = rand_tensor(rng, 3, 3, requires_grad=False)
        fn = getattr(ad, op)
        backward(ad.sum_all(fn(a, b)))
        assert b.grad is None
        b.requires_grad = True
        a_grad = a.grad.copy()
        a.grad = None
        backward(ad.sum_all(fn(a, b)))
        np.testing.assert_array_equal(a.grad, a_grad)

    def test_layer_norm_frozen_gain_and_bias(self):
        rng = np.random.default_rng(36)
        x = rand_tensor(rng, 3, 4)
        g, b = rand_tensor(rng, 4, requires_grad=False), rand_tensor(rng, 4, requires_grad=False)
        w = Tensor(rng.normal(size=(3, 4)))
        backward(ad.sum_all(ad.mul(ad.layer_norm(x, g, b), w)))
        assert g.grad is None and b.grad is None and x.grad is not None

    def test_one_row_matmul_rows_match_many_rows(self):
        # numpy would compute a one-row product with gemv; the op must not
        rng = np.random.default_rng(37)
        a, b = Tensor(rng.normal(size=(9, 64))), Tensor(rng.normal(size=(64, 64)))
        full = ad.matmul(a, b).data
        for i in range(9):
            np.testing.assert_array_equal(ad.matmul(Tensor(a.data[i:i + 1]), b).data[0], full[i])


def old_layer_norm(x, gain, bias, g, eps=1e-5):
    """The np.mean/np.var formula layer_norm replaced: output, then the
    gradients of x, gain and bias for the upstream gradient g."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    d_xhat = g * gain
    m = d_xhat.mean(axis=-1, keepdims=True)
    mx = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias, inv_std * (d_xhat - m - xhat * mx), (g * xhat).sum(axis=0),
            g.sum(axis=0))


class TestTapeKeepsOnlyWhatBackwardReads:
    """An op keeps an operand's array only if its own backward reads it."""

    # name: (interior operand shapes, build(make, *operands), whether each
    # operand's array must outlive the operand; None where either is fine)
    CASES = {
        "linear_frozen_weight": ([(5, 4)], lambda make, x: ad.linear(x, make(4, 3), make(3)),
                                 [False]),
        "linear_trainable_weight": ([(5, 4)], lambda make, x: ad.linear(
            x, make(4, 3, trainable=True), make(3)), [True]),
        "gelu": ([(5, 4)], lambda make, x: ad.gelu(x), [False]),
        "layer_norm": ([(5, 4), (5, 4)], lambda make, x, r: ad.layer_norm(
            x, make(4), make(4), residual=r), [False, False]),
        "attention": ([(7, 6)] * 3, lambda make, q, k, v: ad.attention(
            q, k, v, [0, 3, 7], 2, (make(2, 6, trainable=True), make(2, 6))), [None, False, False]),
    }

    def run(self, name, keep):
        """(which operand arrays are alive once the operands are dropped, the
        gradients of every trainable tensor after backward)."""
        shapes, build, _ = self.CASES[name]
        rng = np.random.default_rng(42)
        made = []

        def make(*shape, trainable=False):
            made.append(rand_tensor(rng, *shape, requires_grad=trainable))
            return made[-1]

        leaves = [make(*shape, trainable=True) for shape in shapes]
        # interior operands: add keeps no array of its own
        operands = [ad.add(t, Tensor(np.zeros(t.shape))) for t in leaves]
        refs = [weakref.ref(t.data) for t in operands]
        out = build(make, *operands)
        kept = operands if keep else None  # with keep, held until backward has run
        del operands
        alive = [ref() is not None for ref in refs]
        backward(ad.sum_all(ad.mul(out, Tensor(rng.normal(size=out.shape)))))
        return alive, [t.grad for t in made if t.requires_grad]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_freed_operands_and_bitwise_grads(self, name):
        alive, grads = self.run(name, keep=False)
        kept_alive, kept_grads = self.run(name, keep=True)
        assert all(kept_alive)
        for got, want in zip(alive, self.CASES[name][2]):
            assert want is None or got == want
        assert all(g is not None for g in grads)
        for got, want in zip(grads, kept_grads):
            np.testing.assert_array_equal(got, want)

    def test_attention_keeps_k_copies_only_for_q(self, monkeypatch):
        # DPT's layer 0: q, k and v come from the frozen embeddings and only
        # the prefix trains, so backward never reads a sequence's K copy
        concatenate = np.concatenate

        def run(q_trainable):
            """(whether each K copy is alive after the call, prefix gradients)."""
            rng = np.random.default_rng(44)
            q = rand_tensor(rng, 7, 6, requires_grad=q_trainable)
            k, v = (rand_tensor(rng, 7, 6, requires_grad=False) for _ in range(2))
            prefix = (rand_tensor(rng, 2, 6), rand_tensor(rng, 2, 6))
            copies = []  # (is a K copy, weak reference)

            def recorded(arrays, *args, **kwargs):
                out = concatenate(arrays, *args, **kwargs)
                copies.append((np.shares_memory(arrays[0], prefix[0].data), weakref.ref(out)))
                return out

            monkeypatch.setattr(np, "concatenate", recorded)
            out = ad.attention(q, k, v, [0, 3, 7], 2, prefix)
            monkeypatch.undo()
            alive = [ref() is not None for is_k, ref in copies if is_k]
            backward(ad.sum_all(ad.mul(out, Tensor(rng.normal(size=out.shape)))))
            return alive, [t.grad for t in prefix]

        frozen_alive, frozen_grads = run(False)
        alive, grads = run(True)
        assert frozen_alive == [False, False] and alive == [True, True]
        for got, want in zip(frozen_grads, grads):
            np.testing.assert_array_equal(got, want)

    def test_frozen_operands_give_tapeless_results(self):
        rng = np.random.default_rng(43)
        x, w, vec = Tensor(rng.normal(size=(7, 6))), Tensor(rng.normal(size=(6, 6))), Tensor(np.ones(6))
        ops = {
            "matmul": lambda: ad.matmul(x, w),
            "linear": lambda: ad.linear(x, w, vec),
            "transpose": lambda: ad.transpose(x),
            "add": lambda: ad.add(x, vec),
            "mul": lambda: ad.mul(x, x),
            "attention": lambda: ad.attention(x, x, x, [0, 3, 7], 2, (w, w)),
            "layer_norm": lambda: ad.layer_norm(x, vec, vec, residual=x),
            "gelu": lambda: ad.gelu(x),
            "tanh": lambda: ad.tanh(x),
            "embedding_gather": lambda: ad.embedding_gather(x, [0, 2]),
            "slice_": lambda: ad.slice_(x, 1, 0, 2),
            "sum_all": lambda: ad.sum_all(x),
            "cross_entropy_rows": lambda: ad.cross_entropy_rows(x, [0] * 7),
        }
        public = {name for name in ad.__all__ if callable(getattr(ad, name))
                  and not isinstance(getattr(ad, name), type)} - {"backward", "grad_check"}
        assert set(ops) == public
        for name, op in ops.items():
            out = op()
            assert not out.requires_grad and out._entry is None, name


class TestBitwiseRewrites:
    """Faster forms of an op give the bits of the formula they replaced."""

    @given(rows=st.integers(1, 40), cols=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), shift=st.sampled_from([0.0, 5.0, -1e4]))
    @settings(max_examples=80, deadline=None)
    def test_layer_norm_matches_mean_var_formula(self, rows, cols, seed, scale, shift):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(rows, cols)) * scale + shift, requires_grad=True)
        gain, bias = rand_tensor(rng, cols), rand_tensor(rng, cols)
        g = rng.normal(size=(rows, cols))
        out = ad.layer_norm(x, gain, bias)
        backward(ad.sum_all(ad.mul(out, Tensor(g))))
        want = old_layer_norm(x.data, gain.data, bias.data, g)
        for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_layer_norm_residual_matches_add(self, rows):
        rng = np.random.default_rng(39)
        x, r, gain, bias = (rand_tensor(rng, rows, 64), rand_tensor(rng, rows, 64),
                            rand_tensor(rng, 64), rand_tensor(rng, 64))
        g = Tensor(rng.normal(size=(rows, 64)))
        grads = []
        for out in (ad.layer_norm(x, gain, bias, residual=r),
                    ad.layer_norm(ad.add(x, r), gain, bias)):
            backward(ad.sum_all(ad.mul(out, g)))
            grads.append((out.data, x.grad, r.grad, gain.grad, bias.grad))
            for t in (x, r, gain, bias):
                t.zero_grad()
        for got, ref in zip(*grads):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("op, shapes", [
        (ad.gelu, [(5, 64)]),
        (ad.layer_norm, [(5, 64), (64,), (64,)]),
        (lambda x, gain, bias, r: ad.layer_norm(x, gain, bias, residual=r),
         [(5, 64), (64,), (64,), (5, 64)]),
    ], ids=["gelu", "layer_norm", "layer_norm_residual"])
    def test_tapeless_output_in_scratch_equals_taped(self, op, shapes):
        # with no tape the op writes its output into its own scratch array
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=shape) * 3.0 for shape in shapes]
        frozen = [Tensor(a.copy()) for a in arrays]
        out = op(*frozen)
        taped = op(*[Tensor(a.copy(), requires_grad=True) for a in arrays])
        assert out._entry is None and taped._entry is not None
        assert out.data.tobytes() == taped.data.tobytes()
        for t, a in zip(frozen, arrays):
            assert t.data.tobytes() == a.tobytes()
            assert not np.shares_memory(out.data, t.data)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_linear_matches_add_of_matmul(self, rows):
        rng = np.random.default_rng(38)
        x, w, b = rand_tensor(rng, rows, 64), rand_tensor(rng, 64, 48), rand_tensor(rng, 48)
        g = Tensor(rng.normal(size=(rows, 48)))
        grads = []
        for out in (ad.linear(x, w, b), ad.add(ad.matmul(x, w), b)):
            backward(ad.sum_all(ad.mul(out, g)))
            grads.append((out.data, x.grad, w.grad, b.grad))
            for t in (x, w, b):
                t.zero_grad()
        for got, ref in zip(*grads):
            np.testing.assert_array_equal(got, ref)

    def test_linear_shapes_checked(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))


class TestAdamW:
    def test_zero_grad_no_decay_leaves_params(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        w.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0, -2.0])

    def test_decoupled_decay_scaling(self):
        # grad 0, lr 0.1, wd 0.01: params scale by exactly (1 - 0.1 * 0.01)
        w = Tensor([4.0], requires_grad=True)
        opt = AdamW([w], lr=0.1, weight_decay=0.01)
        w.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(w.data, [4.0 * (1 - 0.1 * 0.01)], rtol=1e-15)

    def test_quadratic_bowl_convergence(self):
        # from w0=0.5 the 200-step budget damps the Adam oscillation to ~1e-5
        w = Tensor([0.5], requires_grad=True)
        opt = AdamW([w], lr=1e-2)
        for _ in range(200):
            loss = ad.sum_all(ad.mul(w, w))
            backward(loss)
            opt.step()
        assert abs(w.data[0]) < 1e-3

    def test_missing_grad_raises(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW([w], lr=0.1)
        with pytest.raises(MissingGradientError):
            opt.step()

    def test_grads_cleared_after_step(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW([w], lr=0.1)
        w.grad = np.ones(1)
        opt.step()
        assert w.grad is None

    def test_step_counter_increases(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW([w], lr=0.1)
        for expected in (1, 2, 3):
            w.grad = np.ones(1)
            opt.step()
            assert opt.step_count == expected

    def test_linear_warmup_then_decay(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW([w], lr=1.0, warmup_ratio=0.2, total_steps=10)
        lrs = [opt.lr_at(t) for t in range(1, 11)]
        np.testing.assert_allclose(lrs[:2], [0.5, 1.0])  # ramp over 2 steps
        assert all(lrs[i] > lrs[i + 1] for i in range(2, 9))
        assert lrs[-1] == 0.0


class TestGradCheckHarness:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(30)
        x = rand_tensor(rng, 8)
        c = Tensor(rng.normal(size=8))
        err = grad_check(lambda: ad.sum_all(ad.mul(x, c)), [x], num_samples=8)
        assert err < 1e-9

    def test_fault_injection_detected(self):
        # an op with a deliberately wrong backward rule must be flagged
        def broken_square(t):
            out_data = t.data**2

            def grad_fn(g):
                ad._accum(t, g * t.data)  # wrong: should be 2 * t.data

            return ad._node(out_data, (t,), grad_fn)

        rng = np.random.default_rng(31)
        x = rand_tensor(rng, 4)
        err = grad_check(lambda: ad.sum_all(broken_square(x)), [x], num_samples=4)
        assert err > 1e-2
