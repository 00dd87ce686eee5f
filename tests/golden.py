"""Golden embeddings and training-loss trajectories of the tiny test backbones.

``golden_values()`` computes them through the public API. The stored
embeddings and DPT/ft losses in ``tests/data/golden.json`` were recorded
with the per-sequence, per-head forward that preceded the packed one; the
RIP trajectories with the per-anchor contrastive loss and the separate
pretraining loop that preceded the shared training skeleton. So
test_golden.py pins the current code to both. The ``init`` hashes of a
fresh checkpoint and fresh prompt payloads were recorded with the
hand-written initializers that preceded the parameter shape tables, and
must match bitwise, and so must the ``mining`` hash: every query's UNM pool
(candidates, denoised list, assembled negatives with their tags) over a
tiny synthetic corpus, recorded before the word-set cache and the partial
top-k selection. The ``forward_embeddings``, ``forward_losses`` and
``forward_rip`` hashes pin the embeddings, DPT/ft losses and RIP
trajectories bitwise, one hash each: the embeddings as the packed forward
computed them before the row-budget packing and the in-place attention,
the losses as re-recorded for the one masked DPT score matrix, and the RIP
trajectories as re-recorded for the one weighted masked-LM cross-entropy
(at most 1.9e-16 relative from the per-unit means it replaced). A change
that keeps the forward's numbers must keep all three.

Regenerate only on a deliberate numerical change, and only the keys it
moves; the others keep what earlier code recorded. For every embedding
list and trajectory that a rewritten key holds or hashes, it prints the
largest relative change from the stored values, the number a re-record
states as its reason:

    PYTHONPATH=src:tests python tests/golden.py KEY [KEY ...]
"""

import base64
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from promptir import synth
from promptir.encoder import encode, serialize_model
from promptir.mining import (DenseRetriever, LexicalOverlapScorer, assemble, bm25_build,
                             bm25_search, denoise, mine)
from promptir.pretrain import PretrainConfig, pretrain
from promptir.prompts import promptset_to_json
from promptir.tokenizer import Vocabulary
from promptir.training import TrainConfig, TrainingExample, train
from promptir.vector_index import encode_corpus

from conftest import TINY_TEXTS, make_tiny_model, make_tiny_prompts

PATH = Path(__file__).parent / "data" / "golden.json"

QUERIES = ["the cat", "red ball park", "quiet", "", "stars over the old city"]

WEIGHT_SCALE = 20.0

# case -> (model keyword arguments, prompt keyword arguments or None)
CASES = {
    "none": ({}, None),
    "shared": ({}, {}),
    "separate": ({}, {"separate_roles": True}),
    "mlp": ({"reparam_mode": "mlp", "mlp_hidden": 8}, {}),
}

# trajectory -> (case, training mode)
TRAJECTORIES = {
    "ft": ("none", "ft"),
    "dpt_shared": ("shared", "dpt"),
    "dpt_separate": ("separate", "dpt"),
    "dpt_mlp": ("mlp", "dpt"),
}

# prompt layouts whose fresh payload is pinned bitwise
INIT_LAYOUTS = ("shared", "separate", "mlp")

# one RIP trajectory per pretraining mode; prompts_only creates its prompt set
RIP_MODES = ("backbone", "prompts_only")
RIP_TERMS = ("contrastive", "mlm", "combined")

# values pinned bitwise, one hash each, so a change to one loss leaves the others' pins
FORWARD_KEYS = ("embeddings", "losses", "rip")


def build(case):
    model_kw, prompt_kw = CASES[case]
    model = make_tiny_model(Vocabulary.build(TINY_TEXTS), seed=3, **model_kw)
    for p in model.parameters():
        if p.ndim == 2:
            p.data *= WEIGHT_SCALE  # sharper attention, so prompts move the loss
    prompts = None if prompt_kw is None else make_tiny_prompts(model, seed=4, **prompt_kw)
    return model, prompts


def retrieval_data():
    """Eight examples over the tiny texts, two negatives each."""
    corpus = {f"p{i}": text for i, text in enumerate(TINY_TEXTS)}
    examples = [
        TrainingExample(qid=f"q{i}", query=" ".join(TINY_TEXTS[i].split()[1:4]),
                        pos_pid=f"p{i}",
                        neg_pids=[f"p{(i + 1) % 8}", f"p{(i + 3) % 8}"])
        for i in range(8)
    ]
    return corpus, examples


def sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def init_hashes():
    """sha256 of a fresh backbone checkpoint and of fresh prompt-set payloads."""
    vocab = Vocabulary.build(TINY_TEXTS)
    out = {"backbone": sha256(serialize_model(make_tiny_model(vocab, seed=3)))}
    for layout in INIT_LAYOUTS:
        model_kw, prompt_kw = CASES[layout]
        ps = make_tiny_prompts(make_tiny_model(vocab, seed=3, **model_kw), seed=4, **prompt_kw)
        out[layout] = sha256(base64.b64decode(promptset_to_json(ps)["payload_b64"]))
    return out


def mining_hash():
    """sha256 of every query's pool: candidates, denoised list, assembled negatives.

    BM25 and dense retrieval each rank the top 10 of 24 passages, so both
    the search cut-off and the denoiser's keep/drop decisions are pinned.
    """
    ds = synth.generate(synth.SynthConfig(num_topics=3, passages_per_topic=8,
                                          queries_per_topic=4, seed=5))
    model = make_tiny_model(Vocabulary.build([t for _, t in ds.corpus + ds.queries]), seed=3)
    prompts = make_tiny_prompts(model, seed=4)
    bm25 = bm25_build(ds.corpus)
    retrievers = {"bm25": lambda text, n: bm25_search(bm25, text, n),
                  "dense": DenseRetriever(encode_corpus(ds.corpus, model, prompts), model,
                                          prompts)}
    texts, rng, digest = dict(ds.corpus), np.random.default_rng(6), hashlib.sha256()
    for qid, text in ds.queries:
        pool = mine(qid, text, ds.qrels[qid], retrievers, top_n=10, sample_size=6, rng=rng)
        denoise(pool, text, texts, LexicalOverlapScorer())
        example = assemble(qid, text, ds.qrels[qid], pool, 3, 3, rng=rng)
        record = [qid, [[c.pid, c.best_rank, c.best_tag, list(c.tags)] for c in pool.candidates],
                  pool.denoised, list(zip(example.neg_pids, example.neg_tags))]
        digest.update(json.dumps(record).encode("utf-8"))
    return digest.hexdigest()


def forward_hash(value):
    """sha256 of one of golden_values()'s embeddings, losses or RIP trajectories."""
    return sha256(json.dumps(value, sort_keys=True).encode("utf-8"))


def golden_values():
    out = {"embeddings": {}, "losses": {}, "init": init_hashes(), "mining": mining_hash()}
    for case in CASES:
        model, prompts = build(case)
        cfg = model.config
        out["embeddings"][case] = {
            role: [encode(model, prompts, model.vocab.encode(t, max_len=cfg.max_seq_len),
                          role=role).tolist() for t in texts]
            for role, texts in (("passage", TINY_TEXTS), ("query", QUERIES))
        }
    corpus, examples = retrieval_data()
    for name, (case, mode) in TRAJECTORIES.items():
        model, prompts = build(case)
        config = TrainConfig(mode=mode, epochs=5, batch_size=4, negatives_per_query=2,
                             learning_rate=1e-2, warmup_ratio=0.0)
        result = train(examples[:4], corpus, model, prompts, config)
        out["losses"][name] = [r.loss for r in result.log]
    # two sentences per passage, so every passage yields a unit pair
    rip_corpus = [(f"p{i}", f"{TINY_TEXTS[i]} {TINY_TEXTS[(i + 1) % 8]}") for i in range(8)]
    out["rip"] = {}
    for mode in RIP_MODES:
        model, _ = build("none")
        config = PretrainConfig(mode=mode, epochs=5, batch_size=8, learning_rate=1e-2,
                                warmup_ratio=0.0, seed=2)
        result = pretrain(rip_corpus, model, config)
        out["rip"][mode] = {term: [getattr(r, term) for r in result.log] for term in RIP_TERMS}
    for key in FORWARD_KEYS:
        out[f"forward_{key}"] = forward_hash(out[key])
    return out


def relative_error(got, want):
    """max |got - want| / max |want| over one vector or scalar."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def drifts(got, want, path):
    """(path, max relative change over its steps) of every trajectory or
    embedding list in got, against the same place in want."""
    if isinstance(got, dict):
        for key in got:
            yield from drifts(got[key], want[key], f"{path}.{key}")
    else:
        yield path, max(relative_error(a, b) for a, b in zip(got, want, strict=True))


def main(keys):
    """Rewrite only the named keys of the golden file, printing how far the
    values each rewritten key holds or hashes moved from the stored ones."""
    got = golden_values()
    unknown = sorted(set(keys) - set(got))
    if not keys or unknown:
        raise SystemExit(f"usage: golden.py KEY [KEY ...] with keys from {sorted(got)}"
                         + (f"; unknown: {unknown}" if unknown else ""))
    want = json.loads(PATH.read_text()) if PATH.exists() else {}
    for source in dict.fromkeys(key.removeprefix("forward_") for key in keys):
        if source in FORWARD_KEYS and source in want:
            for path, change in drifts(got[source], want[source], source):
                print(f"{path}: max relative change {change:.2g}")
    want.update({key: got[key] for key in keys})
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(want, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
