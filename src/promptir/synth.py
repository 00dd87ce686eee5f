"""Deterministic synthetic retrieval benchmark.

Topic-clustered passages with controllable separability. Each topic owns a
fixed-size vocabulary; the overlap fraction dials how much of that
vocabulary is drawn from a background pool shared across topics (0 means
fully disjoint topics, higher values make topics lexically confusable).
Each query samples words from its designated positive passage, so exactly
one passage is relevant per query. Passages are multi-sentence so the
pretraining sentence splitter applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SynthConfig:
    num_topics: int = 10
    passages_per_topic: int = 20
    sentences_per_passage: tuple = (3, 6)
    words_per_sentence: tuple = (5, 9)
    topic_vocab_size: int = 30
    background_vocab_size: int = 200
    overlap_fraction: float = 0.2
    queries_per_topic: int = 4
    query_words: tuple = (3, 5)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError("overlap_fraction must be in [0, 1)")
        for name in ("num_topics", "passages_per_topic", "topic_vocab_size",
                     "background_vocab_size", "queries_per_topic"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("sentences_per_passage", "words_per_sentence", "query_words"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise ValueError(f"invalid range for {name}")


@dataclass
class SynthDataset:
    corpus: list  # [(pid, text)]
    queries: list  # [(qid, text)]
    qrels: dict  # qid -> {pid}
    topic_of_passage: dict  # pid -> topic index
    topic_of_query: dict  # qid -> topic index


def topic_word(topic, j):
    return f"t{topic:02d}w{j:02d}"


def generate(cfg):
    """Build the corpus, queries, and qrels for a config (pure function)."""
    rng = np.random.default_rng(cfg.seed)
    background = [f"bg{j:03d}" for j in range(cfg.background_vocab_size)]
    n_shared = int(round(cfg.overlap_fraction * cfg.topic_vocab_size))
    n_shared = min(n_shared, cfg.background_vocab_size)
    topic_vocabs = []
    for t in range(cfg.num_topics):
        own = [topic_word(t, j) for j in range(cfg.topic_vocab_size - n_shared)]
        picks = rng.choice(cfg.background_vocab_size, size=n_shared, replace=False)
        topic_vocabs.append(own + [background[int(j)] for j in picks])

    corpus, topic_of_passage = [], {}
    passage_words = {}
    for t in range(cfg.num_topics):
        vocab_t = topic_vocabs[t]
        for i in range(cfg.passages_per_topic):
            pid = f"p{t:03d}x{i:03d}"
            n_sent = int(rng.integers(cfg.sentences_per_passage[0],
                                      cfg.sentences_per_passage[1] + 1))
            sentences, words = [], []
            for _ in range(n_sent):
                n_words = int(rng.integers(cfg.words_per_sentence[0],
                                           cfg.words_per_sentence[1] + 1))
                sent = [vocab_t[int(j)] for j in rng.integers(len(vocab_t), size=n_words)]
                sentences.append(" ".join(sent) + ".")
                words.extend(sent)
            corpus.append((pid, " ".join(sentences)))
            topic_of_passage[pid] = t
            passage_words[pid] = words

    queries, qrels, topic_of_query = [], {}, {}
    qnum = 0
    for t in range(cfg.num_topics):
        topic_pids = [pid for pid, topic in topic_of_passage.items() if topic == t]
        for i in range(cfg.queries_per_topic):
            qid = f"q{qnum:04d}"
            qnum += 1
            pos_pid = topic_pids[i % len(topic_pids)]
            # query words sampled uniformly from the positive passage's
            # distinct words, so the overlap dial degrades queries too
            pool = sorted(set(passage_words[pos_pid]))
            n_q = int(rng.integers(cfg.query_words[0], cfg.query_words[1] + 1))
            n_q = min(n_q, len(pool))
            picks = rng.choice(len(pool), size=n_q, replace=False)
            queries.append((qid, " ".join(pool[int(j)] for j in picks)))
            qrels[qid] = {pos_pid}
            topic_of_query[qid] = t
    return SynthDataset(corpus, queries, qrels, topic_of_passage, topic_of_query)


def split_queries(dataset, n_train, n_test, seed=0):
    """Disjoint train/test query id lists, shuffled deterministically."""
    qids = [qid for qid, _ in dataset.queries]
    if n_train + n_test > len(qids):
        raise ValueError(
            f"cannot split {len(qids)} queries into {n_train}+{n_test}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(qids))
    train = [qids[int(i)] for i in order[:n_train]]
    test = [qids[int(i)] for i in order[n_train:n_train + n_test]]
    return train, test
