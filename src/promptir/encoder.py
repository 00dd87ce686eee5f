"""Miniature transformer encoder with per-layer prompt prefix injection.

The backbone is a post-layernorm encoder stack over a word-level
vocabulary. A prompt set contributes, per layer, an l x d matrix that is
projected through that layer's frozen key/value weights into l extra
attention slots. Prefix slots are key/value only: they carry no positional
embedding and emit no hidden states upward, so each layer's prefix comes
solely from its own matrix. prefix_kv is the one prompt-to-prefix path:
encode, training, pretraining and serving all call it, and it checks the
prompt geometry against the backbone.

Sequence embeddings are the final-layer hidden state at position 0 (the
[CLS] slot).

Packed layout: one forward encodes a batch. The token rows of all
sequences are stacked into one (sum T_i, d) matrix, with offsets marking
where each starts, so every projection, layer norm and FFN runs once per
layer; only autodiff.attention splits the rows by sequence. With no tape
the same code is the inference path. A forward's arrays grow with its row
count, so bulk encoding (vector_index) packs up to a token-row budget,
not a sequence count: past a few hundred rows the FFN's arrays leave the
cache, and the allocator hands them back to the OS to be faulted in again.
Each residual add folds into the layer norm after it. The last layer runs
attention over every row, for its keys and values, and the rest of itself
only on the rows its caller reads: [CLS] rows, or masked-LM rows.

Batch invariance: a sequence's rows are bitwise the same alone or anywhere
in any batch, and a requested row is the full forward's row, bitwise
(TestPackedForward in tests/test_encoder.py). Row-wise ops compute each
row alone, and gemm rounds a row alike at any row count (matmul keeps
one-row products off gemv). Padding would break this: masked key slots
change how numpy's pairwise sum associates the softmax denominator.
Search stays one index.vectors @ q per query for the same reason: a
batched vectors @ Q.T rounds differently.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from itertools import accumulate
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .tokenizer import CLS_ID, MASK_ID, SPECIALS, Vocabulary

CHECKPOINT_MAGIC = b"DPTE"
CHECKPOINT_VERSION = 1
LAYER_NORM_EPS = 1e-5
# fields of older checkpoints, accepted only at the one value the encoder implements
LEGACY_CONFIG = {"dropout_rate": 0.0, "pooling": "first_token"}


@dataclass
class EncoderConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    vocab_size: int
    max_seq_len: int
    prompt_length: int = 0
    reparam_mode: str = "direct_embedding"  # or "mlp"
    mlp_hidden: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        for name in ("hidden_size", "num_heads", "ffn_size", "vocab_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.max_seq_len < 2:  # every encoded text holds [CLS] and [SEP]
            raise ValueError("max_seq_len must be >= 2")
        if self.prompt_length < 0:
            raise ValueError("prompt_length must be >= 0")
        if self.reparam_mode not in ("direct_embedding", "mlp"):
            raise ValueError(f"unknown reparam_mode: {self.reparam_mode}")
        if self.reparam_mode == "mlp" and self.mlp_hidden <= 0:
            raise ValueError("mlp reparametrization needs mlp_hidden > 0")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key, value in LEGACY_CONFIG.items():
            if d.pop(key, value) != value:
                raise ValueError(f"unsupported {key}: only {value!r} is implemented")
        return cls(**d)


class EncoderModel:
    """Backbone weights plus the vocabulary. Immutable once training ends."""

    def __init__(self, config, vocab, params):
        if len(vocab) != config.vocab_size:
            raise ValueError(
                f"vocab size {len(vocab)} does not match config.vocab_size "
                f"{config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self.params = params

    def parameters(self):
        return list(self.params.values())

    def encoder_parameters(self):
        """Parameters reachable from the encoding path (excludes the MLM
        head bias, which only the masked-LM objective touches)."""
        return [p for name, p in self.params.items() if name != "mlm_bias"]

    def set_trainable(self, flag):
        for p in self.params.values():
            p.requires_grad = bool(flag)
            p.grad = None

    def checksums(self):
        """Per-array content hash, for freezing assertions."""
        return {
            name: hashlib.sha256(np.ascontiguousarray(p.data).tobytes()).hexdigest()
            for name, p in self.params.items()
        }

    def fingerprint(self):
        """sha256 of the checkpoint bytes: config, vocabulary and all weights.

        Streamed into the hash, not built as one blob, and computed afresh
        on every call: optimizers and tests write weights in place.
        """
        digest = hashlib.sha256()
        _write_model(self, digest.update)
        return digest.hexdigest()


def param_shapes(config):
    """{name: shape} of the backbone's parameters, in initialization order."""
    d, ffn, v = config.hidden_size, config.ffn_size, config.vocab_size
    shapes = {"tok_emb": (v, d), "pos_emb": (config.max_seq_len, d), "emb_ln_g": (d,),
              "emb_ln_b": (d,), "mlm_bias": (v,)}
    for k in range(config.num_layers):
        base = f"layer{k}."
        shapes.update({base + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({base + name: (d,) for name in ("bq", "bk", "bv", "bo", "ln1_g", "ln1_b")})
        shapes.update({base + "w1": (d, ffn), base + "b1": (ffn,), base + "w2": (ffn, d),
                       base + "b2": (d,), base + "ln2_g": (d,), base + "ln2_b": (d,)})
    return shapes


def init_model(config, vocab, seed=0):
    """Fresh backbone with N(0, 0.02) matrices, unit gains (*_g) and zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            params[name] = Tensor(rng.normal(0.0, 0.02, size=shape))
        else:
            params[name] = Tensor(np.ones(shape) if name.endswith("_g") else np.zeros(shape))
    return EncoderModel(config, vocab, params)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def prefix_kv(model, prompts, role):
    """A prompt set role's prefix: one (keys, values) pair of l x d graph
    tensors per layer, the realized matrices through that layer's K/V
    weights.

    None without prompts or for an empty (l = 0) set. Any set, empty ones
    included, is first checked against the backbone: ValueError on a wrong
    hidden size, layer count or pinned length.
    """
    if prompts is None:
        return None
    prompts.check_compatible(model.config)
    if prompts.prompt_length == 0:
        return None
    p = model.params
    pairs = []
    for k, m in enumerate(prompts.realize(role)):
        base = f"layer{k}."
        pairs.append((ad.linear(m, p[base + "wk"], p[base + "bk"]),
                      ad.linear(m, p[base + "wv"], p[base + "bv"])))
    return pairs


def _check_ids(model, token_ids):
    ids = list(token_ids)
    if not ids or ids[0] != CLS_ID:
        raise ValueError("token_ids must begin with [CLS]")
    if len(ids) > model.config.max_seq_len:
        raise ValueError(
            f"sequence length {len(ids)} exceeds max_seq_len "
            f"{model.config.max_seq_len}"
        )
    bad = [i for i in ids if i < 0 or i >= model.config.vocab_size]
    if bad:
        raise ValueError(f"unknown token id {bad[0]} (vocab size {model.config.vocab_size})")
    return ids


def packed_offsets(sequences):
    """Where each sequence's rows start in the packed layout, plus the row count."""
    return list(accumulate(map(len, sequences), initial=0))


def encode_states(model, sequences, prefix=None, rows=None):
    """Final-layer hidden states of a batch of id sequences, packed.

    Returns (states, offsets): states is a (sum T_i, d) graph tensor whose
    rows offsets[i]:offsets[i+1] belong to sequences[i]. prefix is None or
    one (K, V) pair per layer, shared by every sequence of the batch. Given
    rows, packed row indices, states holds just those rows, in that order.
    """
    cfg = model.config
    p = model.params
    seqs = [_check_ids(model, ids) for ids in sequences]
    if not seqs:
        raise ValueError("encode_states: no sequences")
    if prefix is not None and len(prefix) not in (0, cfg.num_layers):
        raise ValueError("prefix must supply one (K, V) pair per layer")
    offsets = packed_offsets(seqs)

    def linear(x, base, name):
        return ad.linear(x, p[base + "w" + name], p[base + "b" + name])

    def norm(x, base, residual):
        return ad.layer_norm(x, p[base + "_g"], p[base + "_b"], LAYER_NORM_EPS, residual)

    x = norm(ad.embedding_gather(p["tok_emb"], np.concatenate(seqs)), "emb_ln",
             ad.embedding_gather(p["pos_emb"], np.concatenate([np.arange(len(s)) for s in seqs])))
    for k in range(cfg.num_layers):
        base = f"layer{k}."
        attn = ad.attention(linear(x, base, "q"), linear(x, base, "k"), linear(x, base, "v"),
                            offsets, cfg.num_heads, prefix=prefix[k] if prefix else None)
        if rows is not None and k == cfg.num_layers - 1:
            attn, x = ad.embedding_gather(attn, rows), ad.embedding_gather(x, rows)
        x = norm(linear(attn, base, "o"), base + "ln1", x)
        x = norm(linear(ad.gelu(linear(x, base, "1")), base, "2"), base + "ln2", x)
    return x, offsets


def pooled(model, sequences, prefix=None):
    """First-token ([CLS]) embeddings of a batch as one (n, d) graph tensor."""
    return encode_states(model, sequences, prefix, packed_offsets(sequences)[:-1])[0]


def encode(model, prompts, token_ids, role="query"):
    """Inference encode: the d-dimensional first-token vector as ndarray.

    prompts is a prompt set, projected here for role (a frozen set records
    no tape), or None or a prefix_kv prefix, used as it is.
    """
    prefix = prompts if isinstance(prompts, list) else prefix_kv(model, prompts, role)
    return pooled(model, [token_ids], prefix).data[0]


# ---------------------------------------------------------------------------
# Masked language modeling
# ---------------------------------------------------------------------------


@dataclass
class MaskedSequence:
    ids: list
    positions: list  # masked positions within ids
    labels: list  # original token ids at those positions


def apply_mlm_masking(ids, vocab_size, rng, rate=0.15):
    """RoBERTa-style masking: 15% of non-special tokens; of those 80%
    become [MASK], 10% a random token, 10% stay unchanged."""
    ids = list(ids)
    out = list(ids)
    positions, labels = [], []
    n_special = len(SPECIALS)
    for pos, tok in enumerate(ids):
        if tok < n_special:
            continue
        if rng.random() >= rate:
            continue
        positions.append(pos)
        labels.append(tok)
        roll = rng.random()
        if roll < 0.8:
            out[pos] = MASK_ID
        elif roll < 0.9:
            out[pos] = int(rng.integers(n_special, vocab_size))
    return MaskedSequence(out, positions, labels)


def mlm_logits(model, rows):
    """Tied-head logits of hidden-state rows."""
    return ad.linear(rows, ad.transpose(model.params["tok_emb"]), model.params["mlm_bias"])


def mlm_loss(model, batch, prompts=None):
    """Mean cross-entropy over all masked positions in the batch."""
    seqs = [seq for seq in batch if seq.positions]
    if not seqs:
        raise ValueError("mlm_loss: batch contains no masked positions")
    ids = [seq.ids for seq in seqs]
    rows = [start + pos for start, seq in zip(packed_offsets(ids), seqs) for pos in seq.positions]
    states, _ = encode_states(model, ids, prefix_kv(model, prompts, "query"), rows)
    labels = [label for seq in seqs for label in seq.labels]
    return ad.cross_entropy_rows(mlm_logits(model, states), labels)


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------
#
# Layout (all little-endian):
#   magic "DPTE" | u32 version | u32 header_len | header JSON (utf-8)
#   | u32 array_count | array entries in sorted name order.
# Header JSON: {"config": {...}, "vocab": [tokens...]}.
# Array entry: u16 name_len | name utf-8 | u8 ndim | u32 dims... | f64 data.


def _write_model(model, write):
    """Pass the checkpoint to write() piece by piece; arrays go as buffers."""
    header = json.dumps(
        {"config": model.config.to_dict(), "vocab": model.vocab.tokens},
        sort_keys=True,
    ).encode("utf-8")
    write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
    names = sorted(model.params)
    write(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(model.params[name].data, dtype="<f8")
        nb = name.encode("utf-8")
        write(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
        write(arr)


def serialize_model(model):
    buf = io.BytesIO()
    _write_model(model, buf.write)
    return buf.getvalue()


def save_checkpoint(model, path):
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def deserialize_model(blob):
    """The model a checkpoint holds.

    ValueError on truncated or trailing bytes, a malformed header, and
    arrays whose names or shapes differ from param_shapes(config).
    """
    buf = io.BytesIO(blob)

    def take(n):
        data = buf.read(n)
        if len(data) != n:
            raise ValueError("truncated checkpoint")
        return data

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("not an encoder checkpoint (bad magic)")
    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = unpack("<I")
    try:
        header = json.loads(take(hlen).decode("utf-8"))
        config = EncoderConfig.from_dict(header["config"])
        vocab = Vocabulary(header["vocab"])
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"bad checkpoint header: {exc!r}") from exc
    (count,) = unpack("<I")
    params = {}
    for _ in range(count):
        (nlen,) = unpack("<H")
        name = take(nlen).decode("utf-8")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        n = int(np.prod(shape)) if ndim else 1
        params[name] = Tensor(np.frombuffer(take(8 * n), dtype="<f8").reshape(shape).copy())
    if buf.read(1):
        raise ValueError("trailing bytes after checkpoint")
    expected = param_shapes(config)
    shapes = {name: t.shape for name, t in params.items()}
    if shapes != expected:
        wrong = sorted(shapes.items() ^ expected.items())
        raise ValueError(f"checkpoint arrays differ from the config's layout: {wrong[:4]}")
    return EncoderModel(config, vocab, params)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
