"""Contrastive intermediate pretraining for retrieval.

From each passage, sample a pair of its sentences; units 2i and 2i+1 of
a batch are partners. Each unit must be told apart from every other unit
in the batch: its partner is the target among the 2m-1 non-anchor
candidates, scored by raw inner products of first-token embeddings. A
masked-LM term over separately masked copies keeps the backbone's
original self-supervised objective; the combined step loss is the mean
over the 2m units of (mlm + contrastive) per unit, as two cross-entropies:
over one score matrix, and over every masked row weighted so that each
unit counts once.

Two modes: "backbone" updates the whole model (no prompts involved);
"prompts_only" freezes the backbone and trains a prompt set instead.
pretrain() supplies the epochs' steps; training.fit, the one training
loop, owns the schedule, the RNG, the checkpoints and the log.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .encoder import (MaskedSequence, apply_mlm_masking, encode_states, mlm_logits,
                      packed_offsets, prefix_kv)
from .tokenizer import MASK_ID, SPECIALS, tokenize_words
from .training import check_ranges, fit, unfreeze

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


@dataclass
class PretrainUnitConfig:
    min_sentence_tokens: int = 3


@dataclass
class PretrainConfig:
    mode: str = "backbone"  # or "prompts_only"
    epochs: int = 1
    batch_size: int = 8  # passages per batch (m)
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1
    seed: int = 0
    mask_rate: float = 0.15
    unit: PretrainUnitConfig = field(default_factory=PretrainUnitConfig)

    def __post_init__(self):
        if self.mode not in ("backbone", "prompts_only"):
            raise ValueError(f"unknown pretraining mode: {self.mode}")
        check_ranges(self, (("epochs", 0), ("batch_size", 1), ("learning_rate", 0),
                            ("weight_decay", 0)), ("warmup_ratio", "mask_rate"))


@dataclass
class PretrainStepReport:
    step: int
    contrastive: float
    mlm: float
    combined: float
    learning_rate: float
    mean_partner_rank: float


# ---------------------------------------------------------------------------
# Unit splitting and batch sampling
# ---------------------------------------------------------------------------


def split_units(text, cfg):
    """Sentences of a passage: split after sentence-final punctuation, merge
    fragments shorter than the token minimum into the following sentence (a
    trailing short fragment joins the previous unit)."""
    text = text.strip()
    if not text:
        raise ValueError("split_units: empty text")
    units, buffer = [], ""
    for part in _SENTENCE_SPLIT.split(text):
        candidate = f"{buffer} {part}".strip() if buffer else part
        if len(tokenize_words(candidate)) >= cfg.min_sentence_tokens:
            units.append(candidate)
            buffer = ""
        else:
            buffer = candidate
    if buffer:
        if units:
            units[-1] = f"{units[-1]} {buffer}"
        else:
            units = [buffer]
    return units


class PreparedCorpus:
    """Pre-split corpus, a {pid: text} dict or (pid, text) pairs, with pairing
    eligibility and a skip report."""

    def __init__(self, corpus, cfg):
        self.cfg = cfg
        self.passages = []  # (pid, units) of passages with two or more units
        skipped = 0
        for pid, text in corpus.items() if isinstance(corpus, dict) else corpus:
            units = split_units(text, cfg) if text.strip() else []  # split_units rejects ""
            if len(units) >= 2:
                self.passages.append((pid, units))
            else:
                skipped += 1
        self.skip_report = {
            "skipped_passages": skipped,
            "reasons": {"too_few_units": skipped},
        }

    def __len__(self):
        return len(self.passages)


@dataclass
class PretrainBatch:
    passage_ids: list
    units: list  # m (unit_a, unit_b) string pairs
    token_ids: list  # 2m sequences, pair-major order
    masked: list  # 2m MaskedSequence


def sample_batch(corpus, cfg, m, rng, vocab, max_seq_len, mask_rate=0.15):
    """m distinct eligible passages, two distinct units each, plus masked
    copies. Guarantees at least one masked position per batch whenever
    masking is enabled and any unit has a maskable token."""
    prepared = corpus if isinstance(corpus, PreparedCorpus) else PreparedCorpus(corpus, cfg)
    if len(prepared) < m:
        raise ValueError(
            f"sample_batch: need {m} eligible passages, have {len(prepared)}"
        )
    picks = rng.choice(len(prepared), size=m, replace=False)
    passage_ids, pairs = [], []
    for i in picks:
        pid, units = prepared.passages[int(i)]
        a, b = rng.choice(len(units), size=2, replace=False)
        passage_ids.append(pid)
        pairs.append((units[int(a)], units[int(b)]))

    token_ids = []
    for a, b in pairs:
        token_ids.append(vocab.encode(a, max_len=max_seq_len))
        token_ids.append(vocab.encode(b, max_len=max_seq_len))
    masked = []
    if mask_rate > 0:
        masked = [
            apply_mlm_masking(ids, len(vocab), rng, rate=mask_rate)
            for ids in token_ids
        ]
        if not any(seq.positions for seq in masked):
            _force_one_mask(masked)
    else:
        masked = [MaskedSequence(list(ids), [], []) for ids in token_ids]
    return PretrainBatch(passage_ids, pairs, token_ids, masked)


def _force_one_mask(masked):
    for seq in masked:
        for pos, tok in enumerate(seq.ids):
            if tok >= len(SPECIALS):
                seq.positions.append(pos)
                seq.labels.append(tok)
                seq.ids[pos] = MASK_ID
                return


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def contrastive_loss(embeddings):
    """Mean over anchors of -log softmax(partner | all non-anchor scores).

    Rows 2i and 2i+1 are partners. The denominator ranges over every other
    batch element (the partner included, as the numerator term); only the
    anchor itself is excluded. Accepts a (2m, d) graph tensor or array.
    """
    rows = Tensor(embeddings) if isinstance(embeddings, np.ndarray) else embeddings
    n = rows.shape[0]
    if n < 2 or n % 2:
        raise ValueError("contrastive_loss needs an even number of embeddings >= 2")
    # -inf on the diagonal takes each anchor out of its own softmax
    self_mask = np.zeros((n, n))
    np.fill_diagonal(self_mask, -np.inf)
    scores = ad.add(ad.matmul(rows, ad.transpose(rows)), Tensor(self_mask))
    return ad.cross_entropy_rows(scores, np.arange(n) ^ 1)


def partner_ranks(score_matrix):
    """1-based rank of each anchor's partner (2i <-> 2i+1) among the non-anchor scores."""
    s = np.asarray(score_matrix)
    n = s.shape[0]
    above = s > s[np.arange(n), np.arange(n) ^ 1][:, None]
    np.fill_diagonal(above, False)
    return (1 + above.sum(axis=1)).tolist()


def rip_loss(batch, model, prompts=None):
    """Combined pretraining loss for one batch plus its report fields.

    Embeddings come from the unmasked copies; the masked-LM term uses the
    separately masked copies. Both go through one packed forward. The
    combined value is mean_units(mlm) + mean_anchors(contrastive): a masked
    row of unit u weighs 1/(2m |P_u|), so each unit's mlm is the mean over its
    masked positions P_u, and 0 without any.
    """
    n = len(batch.token_ids)
    masked = [seq for seq in batch.masked if seq.positions]
    seqs = list(batch.token_ids) + [seq.ids for seq in masked]
    offsets = packed_offsets(seqs)
    rows = offsets[:n] + [start + pos for start, seq in zip(offsets[n:], masked)
                          for pos in seq.positions]  # [CLS] rows, then masked rows
    states, _ = encode_states(model, seqs, prefix_kv(model, prompts, "query"), rows)
    embs = ad.slice_(states, 0, 0, n)
    l_c = contrastive_loss(embs)

    l_s = Tensor(0.0)
    if masked:
        counts = np.array([len(seq.positions) for seq in masked])
        l_s = ad.cross_entropy_rows(mlm_logits(model, ad.slice_(states, 0, n, len(rows))),
                                    np.concatenate([seq.labels for seq in masked]),
                                    np.repeat(1.0 / (n * counts), counts))
    combined = ad.add(l_s, l_c)

    ranks = partner_ranks(embs.data @ embs.data.T)
    report = {
        "contrastive": l_c.item(),
        "mlm": l_s.item(),
        "combined": combined.item(),
        "mean_partner_rank": float(np.mean(ranks)),
    }
    return combined, report


# ---------------------------------------------------------------------------
# Pretraining loop
# ---------------------------------------------------------------------------


@dataclass
class PretrainResult:
    model: object
    prompts: object
    log: list
    skip_report: dict


def pretrain(corpus, model, config, prompts=None, out_dir=None):
    """Run intermediate pretraining; deterministic given config.seed."""
    prepared = PreparedCorpus(corpus, config.unit)
    m = config.batch_size
    if len(prepared) < m:
        raise ValueError(
            f"pretrain: corpus has {len(prepared)} eligible passages, "
            f"batch needs {m}"
        )

    prompts, params = unfreeze(model, prompts, config.mode, config.seed,
                               task_name="pretrain", mlm=config.mask_rate > 0)

    steps_per_epoch = max(1, len(prepared) // m)

    def epoch(rng, optimizer):
        for _ in range(steps_per_epoch):
            batch = sample_batch(prepared, config.unit, m, rng, model.vocab,
                                 model.config.max_seq_len, mask_rate=config.mask_rate)
            loss, rep = rip_loss(batch, model, prompts)
            if not math.isfinite(rep["combined"]):
                raise RuntimeError(f"pretrain: non-finite loss at step {optimizer.step_count + 1}")
            backward(loss)
            optimizer.step()
            yield PretrainStepReport(step=optimizer.step_count,
                                     learning_rate=optimizer.lr_at(optimizer.step_count), **rep)

    log = fit(model, prompts, params, config, steps_per_epoch, epoch, out_dir,
              ("pretrain_log.jsonl", "model.ckpt", "pretrained_prompts.json"))
    if out_dir is not None:
        with open(os.path.join(out_dir, "skip_report.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(prepared.skip_report, sort_keys=True, indent=2) + "\n")
    return PretrainResult(model=model, prompts=prompts, log=log,
                          skip_report=prepared.skip_report)
