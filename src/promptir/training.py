"""Supervised dual-encoder training.

Ranking loss: negative log-likelihood of the positive passage against the
mined negatives, with raw inner-product scores (no temperature, no
normalization). With in-batch negatives enabled, every other example's
positive and mined negatives join each query's denominator; any candidate
that is a known positive of the query is masked out. A step scores its
queries against its unique passages in one matrix, -inf outside each
query's candidates, under one row-wise cross-entropy.

Two modes: "dpt" trains only the prompt set against a frozen backbone;
"ft" trains the full backbone without prompts. fit is the one training
loop, train()'s and pretrain()'s; unfreeze and save_trained decide which
weights train and what gets written. A step projects its prompt prefix
through encoder.prefix_kv once per role group and tokenizes its texts
afresh.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor, backward
from .encoder import pooled, prefix_kv, save_checkpoint
from .prompts import PromptSet, save_promptset


@dataclass
class TrainingExample:
    qid: str
    query: str
    pos_pid: str
    neg_pids: list
    neg_tags: list = field(default_factory=list)

    def __post_init__(self):
        if self.pos_pid in self.neg_pids:
            raise ValueError(
                f"example {self.qid}: positive {self.pos_pid} listed among negatives"
            )
        if self.neg_tags and len(self.neg_tags) != len(self.neg_pids):
            raise ValueError(f"example {self.qid}: neg_tags length mismatch")
        if len(set(self.neg_pids)) != len(self.neg_pids):
            raise ValueError(f"example {self.qid}: duplicate negatives")


@dataclass
class TrainConfig:
    mode: str = "dpt"  # or "ft"
    learning_rate: float = 7e-3
    epochs: int = 10
    batch_size: int = 8
    negatives_per_query: int = 8
    use_in_batch_negatives: bool = True
    seed: int = 0
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1

    def __post_init__(self):
        if self.mode not in ("dpt", "ft"):
            raise ValueError(f"unknown training mode: {self.mode}")
        check_ranges(self, (("epochs", 0), ("batch_size", 1), ("negatives_per_query", 0),
                            ("learning_rate", 0), ("weight_decay", 0)), ("warmup_ratio",))


def check_ranges(config, lows, fractions):
    """ValueError for a config field below its low (NaN included) or a
    fraction outside [0, 1]."""
    for name, low in lows:
        if not getattr(config, name) >= low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")
    for name in fractions:
        if not 0 <= getattr(config, name) <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {getattr(config, name)}")


@dataclass
class TrainStepReport:
    step: int
    loss: float
    learning_rate: float
    grad_norm: float


class TrainingDivergedError(RuntimeError):
    def __init__(self, example_ids, value):
        self.example_ids = list(example_ids)
        super().__init__(
            f"non-finite loss ({value}) on examples {self.example_ids}"
        )


def similarity(q_vec, p_vec):
    """Raw inner product between two d-dimensional vectors."""
    q = np.asarray(q_vec, dtype=np.float64)
    p = np.asarray(p_vec, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 1:
        raise ValueError(f"similarity: dimension mismatch {q.shape} vs {p.shape}")
    return float(q @ p)


def nll_loss(pos_score, neg_scores):
    """-log softmax probability of the positive; log-sum-exp stabilized."""
    scores = np.concatenate([[float(pos_score)], np.asarray(neg_scores, dtype=np.float64)])
    m = scores.max()
    lse = m + math.log(np.exp(scores - m).sum())
    return float(lse - scores[0])


def unfreeze(model, prompts, mode, seed, task_name="task", mlm=False):
    """Set which weights train; returns (prompts, trainable parameters).

    The backbone modes ("ft", "backbone") train the model and forbid
    prompts; the MLM head's bias trains only with mlm, since it is not on
    the encode path. The prompt modes freeze the model and train the prompt
    set, created with the model's prompt geometry and one group shared by
    both roles when prompts is None.
    """
    if mode in ("ft", "backbone"):
        if prompts is not None:
            raise ValueError(f"{mode} mode trains the backbone; prompts must be None")
        model.set_trainable(True)
        model.params["mlm_bias"].requires_grad = mlm
        return None, model.parameters() if mlm else model.encoder_parameters()
    model.set_trainable(False)
    if prompts is None:
        cfg = model.config
        prompts = PromptSet.create(
            task_name, cfg.prompt_length, cfg.hidden_size, cfg.num_layers,
            reparam_mode=cfg.reparam_mode, mlp_hidden=cfg.mlp_hidden, seed=seed,
        )
    if prompts.prompt_length == 0:
        raise ValueError(f"{mode} mode trains prompts, but the prompt set has prompt_length 0")
    prompts.set_trainable(True)
    return prompts, prompts.parameters()


def save_trained(model, prompts, out_dir, ckpt_name, prompts_name):
    """Write what trained: the prompt set if there is one, else the backbone."""
    if prompts is not None:
        save_promptset(prompts, os.path.join(out_dir, prompts_name))
    else:
        save_checkpoint(model, os.path.join(out_dir, ckpt_name))


def _grad_norm(params):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)


def batch_candidates(batch, config, positives_of):
    """Candidate passage ids per example: own positive first, then own
    negatives, then (optionally) the other examples' positives and
    negatives. Known positives of the query and duplicates are dropped."""
    n = config.negatives_per_query
    out = []
    for i, ex in enumerate(batch):
        own_positives = positives_of.get(ex.qid, {ex.pos_pid})
        cands = [ex.pos_pid]
        seen = {ex.pos_pid}

        def push(pid):
            if pid in seen or pid in own_positives:
                return
            seen.add(pid)
            cands.append(pid)

        for pid in ex.neg_pids[:n]:
            push(pid)
        if config.use_in_batch_negatives:
            for j, other in enumerate(batch):
                if j == i:
                    continue
                push(other.pos_pid)
                for pid in other.neg_pids[:n]:
                    push(pid)
        out.append(cands)
    return out


def train_step(batch, model, prompts, config, optimizer, corpus_texts, positives_of):
    """One optimizer step over a batch; returns the step report."""
    if not batch:
        raise ValueError("train_step: empty batch")
    # each role's prefix is projected once per step; a shared set projects once
    query = prefix_kv(model, prompts, "query")
    passage = query if prompts is None or prompts.shared else prefix_kv(model, prompts, "passage")

    per_example = batch_candidates(batch, config, positives_of)
    needed = sorted({pid for cands in per_example for pid in cands})
    missing = [pid for pid in needed if pid not in corpus_texts]
    if missing:
        raise KeyError(f"passage ids not in corpus: {missing[:5]}")

    # one packed forward for the step's unique passages, one for its queries
    def embed(texts, prefix):
        max_len = model.config.max_seq_len
        return pooled(model, [model.vocab.encode(t, max_len=max_len) for t in texts], prefix)

    passages = embed([corpus_texts[pid] for pid in needed], passage)
    queries = embed([ex.query for ex in batch], query)
    col = {pid: j for j, pid in enumerate(needed)}
    # -inf outside a query's candidates takes those passages out of its softmax
    mask = np.full((len(batch), len(needed)), -np.inf)
    for i, cands in enumerate(per_example):
        mask[i, [col[pid] for pid in cands]] = 0.0
    scores = ad.add(ad.matmul(queries, ad.transpose(passages)), Tensor(mask))
    loss = ad.cross_entropy_rows(scores, [col[ex.pos_pid] for ex in batch])

    value = loss.item()
    if not math.isfinite(value):
        raise TrainingDivergedError([ex.qid for ex in batch], value)

    backward(loss)
    gnorm = _grad_norm(optimizer.params)
    optimizer.step()
    return TrainStepReport(
        step=optimizer.step_count,
        loss=value,
        learning_rate=optimizer.lr_at(optimizer.step_count),
        grad_norm=gnorm,
    )


def fit(model, prompts, params, config, steps_per_epoch, epoch, out_dir, names):
    """Train params for config.epochs epochs; returns the step reports.

    epoch(rng, optimizer) runs one epoch of steps_per_epoch steps and
    yields their reports; one RNG seeded with config.seed feeds them all.
    Each epoch's weights land in out_dir, then the log and the final
    weights under names = (log, checkpoint, prompt set). Ends frozen.
    """
    log_name, ckpt_name, prompts_name = names
    optimizer = AdamW(params, lr=config.learning_rate, weight_decay=config.weight_decay,
                      warmup_ratio=config.warmup_ratio,
                      total_steps=config.epochs * steps_per_epoch)
    rng = np.random.default_rng(config.seed)
    log = []
    for e in range(config.epochs):
        log.extend(epoch(rng, optimizer))
        if out_dir is not None:
            save_trained(model, prompts, out_dir, f"model_epoch{e}.ckpt",
                         f"prompts_epoch{e}.json")
    model.set_trainable(False)
    if prompts is not None:
        prompts.set_trainable(False)
    if out_dir is not None:
        # one sorted-key JSON object per line, so equal logs give equal bytes
        with open(os.path.join(out_dir, log_name), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(asdict(r), sort_keys=True) + "\n" for r in log)
        save_trained(model, prompts, out_dir, ckpt_name, prompts_name)
    return log


@dataclass
class TrainResult:
    model: object
    prompts: object
    log: list


def train(dataset, corpus_texts, model, prompts, config, out_dir=None, qrels=None):
    """Full training loop; deterministic given config.seed.

    dpt mode trains (or creates) the prompt set with the backbone frozen;
    ft mode trains the backbone itself and forbids prompts. Per-epoch
    checkpoints and a JSON-lines log of step reports land in out_dir.
    """
    if not dataset:
        raise ValueError("train: empty dataset")
    if isinstance(corpus_texts, list):
        corpus_texts = dict(corpus_texts)

    prompts, train_params = unfreeze(model, prompts, config.mode, config.seed)

    positives_of = {}
    for ex in dataset:
        positives_of.setdefault(ex.qid, set()).add(ex.pos_pid)
    if qrels:
        for qid, pids in qrels.items():
            positives_of.setdefault(qid, set()).update(pids)

    size = config.batch_size

    def epoch(rng, optimizer):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), size):
            batch = [dataset[int(i)] for i in order[lo:lo + size]]
            yield train_step(batch, model, prompts, config, optimizer, corpus_texts,
                             positives_of)

    log = fit(model, prompts, train_params, config, math.ceil(len(dataset) / size), epoch,
              out_dir, ("train_log.jsonl", "model_ft.ckpt", "prompts.json"))
    return TrainResult(model=model, prompts=prompts, log=log)
