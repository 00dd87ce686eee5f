"""Word-level tokenizer with a corpus-built vocabulary.

Lowercased whitespace-plus-punctuation splitting; no subwords. The raw
token stream (before any vocabulary lookup) is shared with the BM25 side
so sparse and dense retrieval see identical terms.
"""

from __future__ import annotations

import re
from collections import Counter

CLS, SEP, MASK, PAD, UNK = "[CLS]", "[SEP]", "[MASK]", "[PAD]", "[UNK]"
SPECIALS = [CLS, SEP, MASK, PAD, UNK]  # reserved ids 0..4

CLS_ID, SEP_ID, MASK_ID, PAD_ID, UNK_ID = range(5)

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize_words(text):
    """Lowercase and split into word and punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


def content_words(text):
    """Word tokens only, punctuation dropped (used by lexical scorers)."""
    return [t for t in tokenize_words(text) if t[0].isalnum()]


class Vocabulary:
    """Token <-> id mapping with the five specials pinned at ids 0..4."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tokens[:5] != SPECIALS:
            raise ValueError("vocabulary must start with the reserved specials")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.tokens = tokens
        self.index = {t: i for i, t in enumerate(tokens)}

    def __len__(self):
        return len(self.tokens)

    @classmethod
    def build(cls, texts, min_freq=1):
        """Frequency-sorted vocabulary over texts; ties broken alphabetically."""
        counts = Counter()
        for text in texts:
            counts.update(tokenize_words(text))
        kept = [t for t, c in counts.items() if c >= min_freq and t not in SPECIALS]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(SPECIALS + kept)

    def encode(self, text, max_len=None):
        """[CLS] + token ids + [SEP]; unknown words map to [UNK]."""
        ids = [self.index.get(t, UNK_ID) for t in tokenize_words(text)]
        if max_len is not None:
            ids = ids[: max(0, max_len - 2)]
        return [CLS_ID] + ids + [SEP_ID]
