"""Prompt sets: per-layer prefix matrices plus their file format.

A prompt set is the unit of training and of shipping: the only trainable
parameters during prompt tuning, serialized as a JSON header plus a
base64 payload of float64 matrices. Sets are created and loaded frozen,
so a forward over one records no tape until training unfreezes it. By
default one set of matrices is shared by query and passage encoding; a
set may instead carry separate "query" and "passage" groups.

Two parameterizations: direct_embedding stores the L matrices themselves;
mlp stores one l x d source matrix and a two-layer MLP (tanh hidden) that
emits all L matrices, so realized matrices are a pure function of the
stored parameters.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROMPTSET_VERSION = 1
_HEADER_FIELDS = ("version", "task_name", "l", "d", "L", "reparam_mode", "roles", "payload_b64")


def _group_shapes(reparam_mode, l, d, num_layers, mlp_hidden):
    """{key: shape} of one role group's parameters, in payload order."""
    if reparam_mode == "mlp":
        return {"source": (l, d), "w1": (d, mlp_hidden), "b1": (mlp_hidden,),
                "w2": (mlp_hidden, num_layers * d), "b2": (num_layers * d,)}
    return {f"m{k}": (l, d) for k in range(num_layers)}


class PromptSet:
    """Per-layer prefix matrices for one retrieval task."""

    def __init__(
        self,
        task_name,
        prompt_length,
        hidden_size,
        num_layers,
        reparam_mode="direct_embedding",
        mlp_hidden=0,
        groups=None,
    ):
        if reparam_mode not in ("direct_embedding", "mlp"):
            raise ValueError(f"unknown reparam_mode: {reparam_mode}")
        if reparam_mode == "mlp" and mlp_hidden <= 0:
            raise ValueError("mlp reparametrization needs mlp_hidden > 0")
        self.task_name = task_name
        self.prompt_length = int(prompt_length)
        self.hidden_size = int(hidden_size)
        self.num_layers = int(num_layers)
        self.reparam_mode = reparam_mode
        self.mlp_hidden = int(mlp_hidden)
        self.groups = groups or {}
        self._shapes = _group_shapes(reparam_mode, self.prompt_length, self.hidden_size,
                                     self.num_layers, self.mlp_hidden)
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        task_name,
        prompt_length,
        hidden_size,
        num_layers,
        reparam_mode="direct_embedding",
        mlp_hidden=0,
        separate_roles=False,
        seed=0,
        init_scale=0.02,
    ):
        """Randomly initialized, frozen prompt set: N(0, init_scale) matrices, zero biases."""
        rng = np.random.default_rng(seed)
        shapes = _group_shapes(reparam_mode, prompt_length, hidden_size, num_layers, mlp_hidden)
        groups = {}
        for role in ["query", "passage"] if separate_roles else ["shared"]:
            groups[role] = {
                key: Tensor(rng.normal(0.0, init_scale, size=shape) if len(shape) == 2
                            else np.zeros(shape))
                for key, shape in shapes.items()
            }
        return cls(
            task_name, prompt_length, hidden_size, num_layers,
            reparam_mode, mlp_hidden, groups,
        )

    def _validate(self):
        roles = sorted(self.groups)
        if roles not in (["shared"], ["passage", "query"]):
            raise ValueError(f"prompt set roles must be shared or query+passage, got {roles}")
        for role, group in self.groups.items():
            if sorted(group) != sorted(self._shapes):
                raise ValueError(f"group {role} has wrong parameter keys")
            for key, shape in self._shapes.items():
                if group[key].shape != shape:
                    raise ValueError(
                        f"group {role}/{key}: expected shape {shape}, got {group[key].shape}"
                    )
            for key in self._shapes:
                if not np.all(np.isfinite(group[key].data)):
                    raise ValueError(f"group {role}/{key} contains non-finite values")

    # -- parameter access --------------------------------------------------

    @property
    def roles(self):
        return sorted(self.groups)

    @property
    def shared(self):
        return "shared" in self.groups

    def parameters(self):
        """Every parameter tensor, in payload order: by role, then by key."""
        return [self.groups[role][key] for role in self.roles for key in self._shapes]

    def set_trainable(self, flag):
        for p in self.parameters():
            p.requires_grad = bool(flag)
            p.grad = None

    def resolve_role(self, role):
        if self.shared:
            return "shared"
        if role not in self.groups:
            raise ValueError(f"prompt set has no group for role {role!r}")
        return role

    def realize(self, role):
        """The L realized l x d matrices for a role, as graph tensors.

        direct_embedding returns the stored matrices; mlp runs the shared
        source through the MLP so gradients flow back to its parameters.
        """
        group = self.groups[self.resolve_role(role)]
        if self.reparam_mode == "direct_embedding":
            return [group[f"m{k}"] for k in range(self.num_layers)]
        hidden = ad.tanh(ad.linear(group["source"], group["w1"], group["b1"]))
        flat = ad.linear(hidden, group["w2"], group["b2"])
        d = self.hidden_size
        return [ad.slice_(flat, 1, k * d, (k + 1) * d) for k in range(self.num_layers)]

    def check_compatible(self, config):
        """Prompt geometry against a backbone config: d, L and pinned l.

        The prefix occupies key/value slots only, so prompt length is a
        per-task choice: a config with prompt_length 0 accepts any length,
        while a nonzero value pins it (an empty set passes the length check).
        """
        if self.hidden_size != config.hidden_size:
            raise ValueError(
                f"prompt hidden size {self.hidden_size} != model hidden size "
                f"{config.hidden_size}"
            )
        if self.num_layers != config.num_layers:
            raise ValueError(
                f"prompt layer count {self.num_layers} != model layer count "
                f"{config.num_layers}"
            )
        if config.prompt_length and self.prompt_length not in (0, config.prompt_length):
            raise ValueError(
                f"prompt length {self.prompt_length} != model prompt length "
                f"{config.prompt_length}"
            )

    def copy(self):
        return promptset_from_json(promptset_to_json(self))


def promptset_to_json(ps):
    """PromptSet file content: JSON header plus base64 float64 payload."""
    payload = b"".join(np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                       for p in ps.parameters())
    return {
        "format": "promptset",
        "version": PROMPTSET_VERSION,
        "task_name": ps.task_name,
        "l": ps.prompt_length,
        "d": ps.hidden_size,
        "L": ps.num_layers,
        "reparam_mode": ps.reparam_mode,
        "mlp_hidden": ps.mlp_hidden,
        "roles": ps.roles,
        "payload_b64": base64.b64encode(payload).decode("ascii"),
    }


def promptset_from_json(doc):
    """The PromptSet a prompt-set document holds; ValueError on a missing
    header field, one of the wrong JSON type or value (a negative integer
    included), or a payload that is not exact base64 of the declared shapes."""
    if not isinstance(doc, dict) or doc.get("format") != "promptset":
        raise ValueError("not a promptset document")
    missing = [key for key in _HEADER_FIELDS if key not in doc]
    if missing:
        raise ValueError(f"promptset header lacks {missing}")
    ints = {key: doc[key] for key in ("l", "d", "L", "version")}
    ints["mlp_hidden"] = doc.get("mlp_hidden", 0)
    for key, value in ints.items():
        if type(value) is not int:  # JSON true/false arrive as bool, a subclass of int
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    if ints["version"] != PROMPTSET_VERSION:
        raise ValueError(f"unsupported promptset version {ints['version']}")
    if not isinstance(doc["task_name"], str):
        raise ValueError("task_name must be a string")
    roles = doc["roles"]
    if (not isinstance(roles, list) or not all(isinstance(r, str) for r in roles)
            or len(set(roles)) != len(roles)):
        raise ValueError(f"roles must be a list of distinct strings, got {roles!r}")
    l, d, num_layers = ints["l"], ints["d"], ints["L"]
    reparam_mode = doc["reparam_mode"]
    if not isinstance(doc["payload_b64"], str):
        raise ValueError("payload_b64 must be a string")
    payload = base64.b64decode(doc["payload_b64"], validate=True)
    shapes = _group_shapes(reparam_mode, l, d, num_layers, ints["mlp_hidden"])
    groups = {}
    offset = 0
    for role in roles:
        group = {}
        for key, shape in shapes.items():
            n = math.prod(shape)
            arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            group[key] = Tensor(arr.reshape(shape).copy())
        groups[role] = group
    if offset != len(payload):
        raise ValueError("promptset payload size mismatch")
    return PromptSet(doc["task_name"], l, d, num_layers, reparam_mode, ints["mlp_hidden"], groups)


def save_promptset(ps, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(promptset_to_json(ps), fh, sort_keys=True)
        fh.write("\n")


def load_promptset(path):
    """The PromptSet a prompt-set file holds; ValueError as promptset_from_json,
    or when the file is not JSON or nests too deep to parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return promptset_from_json(json.load(fh))
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nests too deep") from exc
