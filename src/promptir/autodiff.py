"""Minimal reverse-mode autodiff engine on dense float64 numpy arrays.

Define-by-run: every op computes its result eagerly and records a closure
for the backward pass. The op set is intentionally small -- exactly what a
small transformer encoder and its retrieval losses need; linear fuses a
matmul and its row-bias add into one op; cross_entropy_rows takes optional
row weights. Tensors default to float64 so central finite differences are
a meaningful oracle for every gradient rule.

The tape links entries, not tensors. A leaf (a tensor no op produced) is
its own entry; an op result that needs a gradient gets one with its
gradient, its operands' entries, its closure and its shape, but no array.
Each closure keeps only the arrays its backward reads, so a result keeps
.data only while its caller holds it. An op whose operands need no
gradient returns a tensor with no entry, and builds no closure. A graph
backpropagates once: backward frees it as it walks it, and only the
leaves keep their gradients. With no closure to keep it, a tapeless gelu
or layer_norm writes its output into the scratch array it built (the
tanh, the normalized rows), not into a new one; no operand is written.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "MissingGradientError",
    "matmul",
    "linear",
    "transpose",
    "add",
    "mul",
    "attention",
    "layer_norm",
    "gelu",
    "tanh",
    "embedding_gather",
    "slice_",
    "sum_all",
    "cross_entropy_rows",
    "backward",
    "AdamW",
    "grad_check",
]


class ShapeError(ValueError):
    """Shape-incompatible operands; carries the op name and both shapes."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        detail = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {detail}")


class MissingGradientError(RuntimeError):
    """A registered parameter had no gradient at optimizer step time."""


class Tensor:
    """Dense float64 array; a leaf with requires_grad=True is its own tape entry.

    An op result that needs a gradient points to its entry (_entry), and
    the tape never holds the result: its .data lives while the caller
    holds it, its .grad stays None. Tensors with requires_grad=False hold
    no .grad and no references into the graph, so frozen model weights
    are plain arrays, safe to share read-only across threads.
    """

    __slots__ = ("data", "requires_grad", "grad", "_entry")
    _parents, _grad_fn = (), None  # as a tape entry, a leaf has no parents

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._entry = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Entry:
    """An op result's tape entry: gradient, parent entries, closure, shape; no array."""

    __slots__ = ("grad", "_parents", "_grad_fn", "shape")


def _tapes(*operands):
    """The operands' tape entries, None for each that needs no gradient;
    just None when none needs one: the op then builds no closure."""
    for t in operands:  # a plain loop: any() over a generator costs more per op
        if t.requires_grad:
            return tuple([(u._entry or u) if u.requires_grad else None for u in operands])
    return None


def _node(data, tapes=None, grad_fn=None):
    """An op result; given tapes, its new entry links the non-None ones to grad_fn."""
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad, out._entry = data, tapes is not None, None, None
    if tapes is not None:
        out._entry = entry = _Entry()
        entry.grad, entry._grad_fn, entry.shape = None, grad_fn, data.shape
        entry._parents = tuple([e for e in tapes if e is not None])
    return out


def _accum(e, g, fresh=True):
    """Accumulate gradient g into tape entry e (zero-initialized, additive).

    The first gradient is g + 0.0, the bits of zeros plus g (-0.0 becomes
    +0.0). A fresh g, computed for e alone, becomes e's gradient in place;
    one another entry may read (fresh=False) or a numpy scalar is copied.
    """
    if e.grad is not None:
        e.grad += g
    elif fresh and type(g) is np.ndarray:
        e.grad = np.add(g, 0.0, out=g)
    else:
        e.grad = np.add(g, 0.0, out=np.empty(e.shape))


# ---------------------------------------------------------------------------
# Forward ops
# ---------------------------------------------------------------------------


def _product(a, b):
    """a @ b of 2-D arrays; each output row's bits depend only on its own row of a."""
    if a.shape[0] == 1:
        # numpy sends a one-row product to gemv, which rounds unlike gemm
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def matmul(a, b):
    """2-D matrix product; each output row's bits depend only on its own row of a."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out_data = _product(a.data, b.data)
    if (tapes := _tapes(a, b)) is None:
        return _node(out_data)
    ea, eb = tapes
    # an operand's array is kept only to form the other operand's gradient
    av, bv = a.data if eb is not None else None, b.data if ea is not None else None

    def grad_fn(g):
        if ea is not None:
            _accum(ea, g @ bv.T)
        if eb is not None:
            _accum(eb, av.T @ g)

    return _node(out_data, tapes, grad_fn)


def linear(x, w, b):
    """x @ w + b with a row bias: add(matmul(x, w), b) in one op, bitwise."""
    xs, ws = x.data.shape, w.data.shape  # read off the arrays: the properties cost a call each
    if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0] or b.data.shape != ws[1:]:
        raise ShapeError("linear", xs, ws, b.data.shape)
    out_data = _product(x.data, w.data)
    out_data += b.data
    if (tapes := _tapes(x, w, b)) is None:
        return _node(out_data)
    ex, ew, eb = tapes
    # as in matmul: a frozen-weight projection keeps only its weight
    xv, wv = x.data if ew is not None else None, w.data if ex is not None else None

    def grad_fn(g):
        if ex is not None:
            _accum(ex, g @ wv.T)
        if ew is not None:
            _accum(ew, xv.T @ g)
        if eb is not None:
            _accum(eb, g.sum(axis=0))

    return _node(out_data, tapes, grad_fn)


def transpose(a):
    if a.ndim != 2:
        raise ShapeError("transpose", a.shape)
    out_data = a.data.T.copy()
    if (tapes := _tapes(a)) is None:
        return _node(out_data)
    (ea,) = tapes

    def grad_fn(g):
        _accum(ea, g.T, fresh=False)

    return _node(out_data, tapes, grad_fn)


def add(a, b):
    """Elementwise add; also supports (n,m) + (m,) row-bias broadcast."""
    if a.shape == b.shape:
        broadcast = False
    elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        broadcast = True
    else:
        raise ShapeError("add", a.shape, b.shape)
    out_data = a.data + b.data
    if (tapes := _tapes(a, b)) is None:
        return _node(out_data)
    ea, eb = tapes

    def grad_fn(g):
        if ea is not None:
            _accum(ea, g, fresh=False)
        if eb is not None:
            _accum(eb, g.sum(axis=0) if broadcast else g, fresh=broadcast)

    return _node(out_data, tapes, grad_fn)


def mul(a, b):
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError("mul", a.shape, b.shape)
    out_data = a.data * b.data
    if (tapes := _tapes(a, b)) is None:
        return _node(out_data)
    ea, eb = tapes
    av, bv = a.data if eb is not None else None, b.data if ea is not None else None

    def grad_fn(g):
        if ea is not None:
            _accum(ea, g * bv)
        if eb is not None:
            _accum(eb, g * av)

    return _node(out_data, tapes, grad_fn)


def attention(q, k, v, offsets, num_heads, prefix=None):
    """Multi-head scaled dot-product attention over packed sequences.

    q, k and v are (N, d); rows offsets[s]:offsets[s+1] are sequence s,
    which attends to the l rows of the optional (keys, values) prefix that
    all sequences share, then to its own rows. Heads are reshaped column
    blocks. Each sequence runs alone, so its rows ignore the others.
    """
    shape = q.data.shape
    if len(shape) != 2 or k.data.shape != shape or v.data.shape != shape or shape[1] % num_heads:
        raise ShapeError("attention", shape, k.data.shape, v.data.shape)
    n, d = shape
    spans = list(zip(offsets[:-1], offsets[1:]))
    if offsets[0] != 0 or offsets[-1] != n or any(lo >= hi for lo, hi in spans):
        raise ValueError("attention: offsets must rise from 0 to the row count")
    h, dh = num_heads, d // num_heads
    c = 1.0 / math.sqrt(dh)

    def heads(rows):  # (T, d) -> (h, T, dh)
        return rows.reshape(len(rows), h, dh).transpose(1, 0, 2)

    def merge(x):  # (h, T, dh) -> (T, d)
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    parents, pkh = (q, k, v), np.empty((h, 0, dh))  # concatenates like an empty prefix
    pvh = pkh
    if prefix is not None:
        pk, pv = prefix
        if pk.data.shape != pv.data.shape or pk.data.shape[1:] != (d,):
            raise ShapeError("attention", shape, pk.data.shape, pv.data.shape)
        parents, pkh, pvh = (q, k, v, pk, pv), heads(pk.data), heads(pv.data)
    l = pkh.shape[1]
    tapes = _tapes(*parents)
    if tapes is not None:
        eq, ek, ev, epk, epv = (*tapes, None, None)[:5]
        need_k, need_v = ek is not None or epk is not None, ev is not None or epv is not None
    out_data = np.empty_like(q.data)
    saved = []  # per sequence: q heads and K copy where backward reads them, V copy, weights
    for lo, hi in spans:
        qh = heads(q.data[lo:hi])
        kh = np.concatenate([pkh, heads(k.data[lo:hi])], axis=1)
        vh = np.concatenate([pvh, heads(v.data[lo:hi])], axis=1)
        # scores become the weights in place; the ufunc reductions that
        # ndarray.max and .sum wrap, minus the wrapper
        probs = qh @ kh.transpose(0, 2, 1)
        probs *= c
        probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
        np.matmul(probs, vh, out=heads(out_data[lo:hi]))  # gemm writes the rows directly
        if tapes is not None:
            saved.append((qh if need_k else None, kh if eq is not None else None, vh, probs))
    if tapes is None:
        return _node(out_data)

    def grad_fn(g):
        gq, gk, gv = np.empty(shape), np.empty(shape), np.empty(shape)
        gpk, gpv = np.zeros((h, l, dh)), np.zeros((h, l, dh))
        for (lo, hi), (qh, kh, vh, probs) in zip(spans, saved):
            gh = heads(g[lo:hi])
            if need_v:
                dv = probs.transpose(0, 2, 1) @ gh
                gpv += dv[:, :l]
                if ev is not None:
                    gv[lo:hi] = merge(dv[:, l:])
            if eq is not None or need_k:
                dp = gh @ vh.transpose(0, 2, 1)
                ds = probs * (dp - np.add.reduce(dp * probs, axis=-1, keepdims=True)) * c
                if eq is not None:
                    gq[lo:hi] = merge(ds @ kh)
                if need_k:
                    dk = ds.transpose(0, 2, 1) @ qh
                    gpk += dk[:, :l]
                    if ek is not None:
                        gk[lo:hi] = merge(dk[:, l:])
        # frozen operands' buffers above were never filled
        for e, ge in zip(tapes, (gq, gk, gv, merge(gpk), merge(gpv))):
            if e is not None:
                _accum(e, ge)

    return _node(out_data, tapes, grad_fn)


def layer_norm(x, gain, bias, eps=1e-5, residual=None):
    """Per-row layer norm over the last axis with learnable gain and bias;
    of x + residual in one op when a same-shape residual is given."""
    shape = x.data.shape
    if (len(shape) != 2 or gain.data.shape != shape[1:] or bias.data.shape != shape[1:]
            or (residual is not None and residual.data.shape != shape)):
        raise ShapeError("layer_norm", shape, gain.data.shape)
    inputs = (x,) if residual is None else (x, residual)
    # centered once, in place; bitwise np.mean and np.var, which sum with
    # add.reduce and divide by n, without their Python wrappers
    n = shape[1]
    xhat = x.data.copy() if residual is None else x.data + residual.data
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / n
    inv_std = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n + eps
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    xhat *= inv_std
    # untaped, nothing reads xhat again, so it becomes the output
    tapes = _tapes(*inputs, gain, bias)
    out_data = xhat * gain.data if tapes else np.multiply(xhat, gain.data, out=xhat)
    out_data += bias.data
    if tapes is None:
        return _node(out_data)
    *ins, eg, eb = tapes
    ins, gv = [e for e in ins if e is not None], gain.data

    def grad_fn(g):
        if ins:
            gx = g * gv
            mx = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
            gx -= np.add.reduce(gx, axis=-1, keepdims=True) / n
            gx -= xhat * mx
            gx *= inv_std
            for e in ins:  # one gx for two inputs, so each copies it
                _accum(e, gx, fresh=len(ins) == 1)
        if eg is not None:
            _accum(eg, (g * xhat).sum(axis=0))
        if eb is not None:
            _accum(eb, g.sum(axis=0))

    return _node(out_data, tapes, grad_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_BLOCK = 64  # rows per block of gelu's backward


def gelu(a):
    """Gaussian error linear unit (tanh approximation)."""
    x = a.data
    # products, not **: numpy's float power goes through libm pow (~70x
    # slower); in-place steps save temporaries, and scaling by 0.5 is exact
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    # untaped, nothing reads t again, so it becomes the output
    tapes = _tapes(a)
    out_data = 1.0 + t if tapes else np.add(t, 1.0, out=t)
    out_data *= x
    out_data *= 0.5
    if tapes is None:
        return _node(out_data)
    (ea,) = tapes
    # t becomes the derivative, the one array backward reads: in row blocks,
    # so their temporaries stay small; elementwise, so g * t is bitwise
    for lo in range(0, len(x), _GELU_BLOCK):
        rows = slice(lo, lo + _GELU_BLOCK)
        xb, tb = x[rows], t[rows]
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (xb * xb))
        t[rows] = 0.5 * (1.0 + tb) + 0.5 * xb * (1.0 - tb * tb) * d_inner

    def grad_fn(g):
        _accum(ea, g * t)

    return _node(out_data, tapes, grad_fn)


def tanh(a):
    out_data = np.tanh(a.data)
    if (tapes := _tapes(a)) is None:
        return _node(out_data)
    (ea,) = tapes

    def grad_fn(g):
        _accum(ea, g * (1.0 - out_data * out_data))

    return _node(out_data, tapes, grad_fn)


def embedding_gather(table, ids):
    """Gather rows of a 2-D tensor at integer indices (scatter-add backward)."""
    if table.ndim != 2:
        raise ShapeError("embedding_gather", table.shape)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding_gather", table.shape, idx.shape)
    # viewed as uint64 a negative id is huge, so one reduction checks both ends
    if idx.size and np.maximum.reduce(idx.view(np.uint64)) >= table.shape[0]:
        raise ValueError(
            f"embedding_gather: index out of range for table with "
            f"{table.shape[0]} rows"
        )
    out_data = table.data[idx]
    if (tapes := _tapes(table)) is None:
        return _node(out_data)
    (et,) = tapes

    def grad_fn(g):
        gt = np.zeros(et.shape)
        np.add.at(gt, idx, g)
        _accum(et, gt)

    return _node(out_data, tapes, grad_fn)


def slice_(a, axis, start, stop):
    """Contiguous slice [start:stop) along one axis of a 1-D or 2-D tensor."""
    if axis >= a.ndim or not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError("slice", a.shape, (axis, start, stop))
    if axis == 0:
        out_data = a.data[start:stop].copy()
    else:
        out_data = a.data[:, start:stop].copy()
    if (tapes := _tapes(a)) is None:
        return _node(out_data)
    (ea,) = tapes

    def grad_fn(g):
        full = np.zeros(ea.shape)
        if axis == 0:
            full[start:stop] = g
        else:
            full[:, start:stop] = g
        _accum(ea, full)

    return _node(out_data, tapes, grad_fn)


def sum_all(a):
    out_data = np.asarray(a.data.sum())
    if (tapes := _tapes(a)) is None:
        return _node(out_data)
    (ea,) = tapes

    def grad_fn(g):
        _accum(ea, np.full(ea.shape, float(g)))

    return _node(out_data, tapes, grad_fn)


def cross_entropy_rows(logits, targets, weights=None):
    """Negative log-softmax of each row's target column: meaned, or losses @ weights.

    Log-sum-exp stabilized; targets is a length-n integer sequence. Row i's
    gradient is scaled by g / n, or by g * weights[i].
    """
    if logits.ndim != 2:
        raise ShapeError("cross_entropy_rows", logits.shape)
    tgt = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    if tgt.shape != (n,) or (weights is not None and np.shape(weights) != (n,)):
        raise ShapeError("cross_entropy_rows", logits.shape, tgt.shape)
    if tgt.size and (tgt.min() < 0 or tgt.max() >= logits.shape[1]):
        raise ValueError("cross_entropy_rows: target index out of range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    losses = lse[:, 0] - z[np.arange(n), tgt]
    out_data = np.asarray(losses.mean() if weights is None else losses @ weights)
    if (tapes := _tapes(logits)) is None:
        return _node(out_data)
    (el,) = tapes
    probs = np.exp(z - lse)

    def grad_fn(g):
        gz = probs.copy()
        gz[np.arange(n), tgt] -= 1.0
        scale = float(g) / n if weights is None else float(g) * np.asarray(weights)[:, None]
        _accum(el, gz * scale)

    return _node(out_data, tapes, grad_fn)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _released(g):
    raise RuntimeError("backward: this graph was released by an earlier backward")


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Every requires_grad leaf reachable from loss ends up with its gradient
    accumulated; frozen tensors are never touched. The sweep walks tape
    entries, which hold gradients, closures and parent links but no array;
    the arrays it reads are the ones each op's closure kept. A graph
    backpropagates once: the sweep frees each interior entry's gradient,
    closure and parent links as it goes, so its peak memory stays near the
    forward tape. Leaves keep .grad, and a later backward through a
    released entry raises RuntimeError.
    """
    if loss.shape != ():
        raise ShapeError("backward", loss.shape)
    if not loss.requires_grad:
        return

    # iterative post-order DFS over the entries; each parent needs a gradient
    root = loss._entry or loss
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        for p in it:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(node)
            stack.pop()

    root.grad = np.ones(())
    while order:
        node = order.pop()
        if node._grad_fn is not None:
            if node.grad is not None:
                node._grad_fn(node.grad)
            # release the entry: the arrays its closure kept and its parents
            # go as soon as no entry still to run needs them
            node.grad, node._parents, node._grad_fn = None, (), _released


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with decoupled weight decay and a linear warmup/decay schedule.

    With total_steps=None the learning rate is constant. Otherwise it ramps
    linearly over round(warmup_ratio * total_steps) steps and then decays
    linearly to zero at total_steps.
    """

    def __init__(
        self,
        params,
        lr,
        weight_decay=0.0,
        betas=(0.9, 0.999),
        eps=1e-8,
        warmup_ratio=0.0,
        total_steps=None,
    ):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("AdamW: registered a frozen tensor")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.warmup_ratio = float(warmup_ratio)
        self.total_steps = total_steps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def lr_at(self, t):
        """Learning rate for (1-based) step t."""
        if self.total_steps is None:
            return self.lr
        warmup = int(round(self.warmup_ratio * self.total_steps))
        if warmup > 0 and t <= warmup:
            return self.lr * t / warmup
        denom = max(1, self.total_steps - warmup)
        return self.lr * max(0.0, (self.total_steps - t) / denom)

    def step(self):
        """One update; requires every registered parameter to hold a grad."""
        self.step_count += 1
        t = self.step_count
        lr_t = self.lr_at(t)
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                raise MissingGradientError(
                    "AdamW.step: parameter with no gradient (shape "
                    f"{p.shape}); check freezing/registration"
                )
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= lr_t * (m_hat / (np.sqrt(v_hat) + self.eps))
            if self.weight_decay:
                p.data -= lr_t * self.weight_decay * p.data
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# Finite-difference gradient checker
# ---------------------------------------------------------------------------


def grad_check(f, params, num_samples=30, h=1e-5, rng=None):
    """Compare analytic gradients of scalar f() against central differences.

    f rebuilds its graph from params on every call. Returns the max over
    sampled coordinates of |analytic - numeric| / max(1e-8, |a| + |n|).
    """
    params = list(params)
    rng = rng if rng is not None else np.random.default_rng(0)

    for p in params:
        p.grad = None
    loss = f()
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    for p in params:
        p.grad = None

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.size)]
    if len(coords) > num_samples:
        picks = rng.choice(len(coords), size=num_samples, replace=False)
        coords = [coords[int(k)] for k in picks]

    worst = 0.0
    for i, j in coords:
        p = params[i]
        orig = p.data.flat[j]
        p.data.flat[j] = orig + h
        f_plus = f().item()
        p.data.flat[j] = orig - h
        f_minus = f().item()
        p.data.flat[j] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[i].flat[j]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    return worst
