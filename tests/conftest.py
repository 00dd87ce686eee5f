import base64
import json
import urllib.request

import numpy as np
import pytest

from promptir.encoder import EncoderConfig, init_model
from promptir.prompts import PromptSet
from promptir.tokenizer import Vocabulary

TINY_TEXTS = [
    "the cat sat on the mat and purred softly.",
    "dogs chase the red ball across the park every day.",
    "a quick brown fox jumps over the lazy dog.",
    "rivers flow down the mountain into the quiet valley.",
    "the chef cooked a warm soup with fresh herbs.",
    "students read many books before the final exam.",
    "the old clock on the wall ticked through the night.",
    "bright stars fill the sky far from the city lights.",
]


def _doubled_roles(doc):
    payload = base64.b64decode(doc["payload_b64"])
    return {**doc, "roles": doc["roles"] * 2,
            "payload_b64": base64.b64encode(payload * 2).decode("ascii")}


# edits of a shared direct_embedding prompt-set document that must get a
# ValueError: most of them a reader which casts with int() and skips
# non-base64 characters would still load, missing_field and int_payload used
# to raise KeyError and TypeError, and a negative field used to load (L with
# an empty payload) or fail later with a message that named no field
BAD_PROMPTSET_HEADERS = {
    "float_l": lambda doc: {**doc, "l": doc["l"] + 0.7},
    "string_d": lambda doc: {**doc, "d": str(doc["d"])},
    "float_L": lambda doc: {**doc, "L": float(doc["L"])},
    "float_mlp_hidden": lambda doc: {**doc, "mlp_hidden": 0.5},
    "bool_mlp_hidden": lambda doc: {**doc, "mlp_hidden": False},
    "bool_version": lambda doc: {**doc, "version": True},
    "other_version": lambda doc: {**doc, "version": 2},
    "list_task_name": lambda doc: {**doc, "task_name": [1]},
    "doubled_role": _doubled_roles,
    "non_base64_payload": lambda doc: {**doc, "payload_b64": "!" + doc["payload_b64"]},
    "missing_field": lambda doc: {key: value for key, value in doc.items() if key != "l"},
    "int_payload": lambda doc: {**doc, "payload_b64": 5},
    "negative_l": lambda doc: {**doc, "l": -1},
    "negative_d": lambda doc: {**doc, "d": -2},
    "negative_L_empty_payload": lambda doc: {**doc, "L": -1, "payload_b64": ""},
    "negative_mlp_hidden": lambda doc: {**doc, "mlp_hidden": -3},
}


@pytest.fixture(scope="session")
def tiny_vocab():
    return Vocabulary.build(TINY_TEXTS)


def make_tiny_model(vocab, num_layers=2, hidden_size=16, num_heads=2,
                    ffn_size=32, max_seq_len=32, prompt_length=4, seed=0,
                    **kwargs):
    config = EncoderConfig(
        num_layers=num_layers,
        hidden_size=hidden_size,
        num_heads=num_heads,
        ffn_size=ffn_size,
        vocab_size=len(vocab),
        max_seq_len=max_seq_len,
        prompt_length=prompt_length,
        **kwargs,
    )
    return init_model(config, vocab, seed=seed)


def make_tiny_prompts(model, seed=1, **kwargs):
    cfg = model.config
    return PromptSet.create(
        "tiny-task",
        cfg.prompt_length,
        cfg.hidden_size,
        cfg.num_layers,
        reparam_mode=cfg.reparam_mode,
        mlp_hidden=cfg.mlp_hidden,
        seed=seed,
        **kwargs,
    )


@pytest.fixture
def tiny_model(tiny_vocab):
    return make_tiny_model(tiny_vocab)


@pytest.fixture
def tiny_prompts(tiny_model):
    return make_tiny_prompts(tiny_model)


def post_json(url, obj, headers=None, timeout=30):
    """POST obj as JSON; returns (decoded JSON or raw octet-stream body, headers)."""
    data = json.dumps(obj).encode("utf-8")
    req = urllib.request.Request(url, data=data, method="POST")
    req.add_header("Content-Type", "application/json")
    for key, value in (headers or {}).items():
        req.add_header(key, value)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        body = resp.read()
        if resp.headers.get("Content-Type") == "application/octet-stream":
            return body, dict(resp.headers)
        return json.loads(body.decode("utf-8")), dict(resp.headers)


def get_json(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))
