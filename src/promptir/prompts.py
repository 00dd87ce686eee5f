"""Trainable prompt sets: per-layer prefix matrices plus their file format.

A prompt set is the unit of training and of shipping: the only trainable
parameters during prompt tuning, serialized as a JSON header plus a
base64 payload of float64 matrices. By default one set of matrices is
shared by query and passage encoding; a set may instead carry separate
"query" and "passage" groups.

Two parameterizations: direct_embedding stores the L matrices themselves;
mlp stores one l x d source matrix and a two-layer MLP (tanh hidden) that
emits all L matrices, so realized matrices are a pure function of the
stored parameters.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROMPTSET_VERSION = 1

_MLP_KEYS = ("source", "w1", "b1", "w2", "b2")


def _group_keys(reparam_mode, num_layers):
    if reparam_mode == "mlp":
        return list(_MLP_KEYS)
    return [f"m{k}" for k in range(num_layers)]


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
        version=PROMPTSET_VERSION,
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
        self.version = version
        self.groups = groups or {}
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
        """Randomly initialized prompt set (N(0, init_scale) entries)."""
        rng = np.random.default_rng(seed)
        roles = ["query", "passage"] if separate_roles else ["shared"]
        groups = {}
        for role in roles:
            groups[role] = cls._init_group(
                rng, prompt_length, hidden_size, num_layers,
                reparam_mode, mlp_hidden, init_scale,
            )
        return cls(
            task_name, prompt_length, hidden_size, num_layers,
            reparam_mode, mlp_hidden, groups,
        )

    @staticmethod
    def _init_group(rng, l, d, num_layers, reparam_mode, mlp_hidden, init_scale):
        def t(*shape):
            return Tensor(rng.normal(0.0, init_scale, size=shape), requires_grad=True)

        if reparam_mode == "mlp":
            return {
                "source": t(l, d),
                "w1": t(d, mlp_hidden),
                "b1": Tensor(np.zeros(mlp_hidden), requires_grad=True),
                "w2": t(mlp_hidden, num_layers * d),
                "b2": Tensor(np.zeros(num_layers * d), requires_grad=True),
            }
        return {f"m{k}": t(l, d) for k in range(num_layers)}

    def _validate(self):
        roles = sorted(self.groups)
        if roles not in (["shared"], ["passage", "query"]):
            raise ValueError(f"prompt set roles must be shared or query+passage, got {roles}")
        l, d = self.prompt_length, self.hidden_size
        for role, group in self.groups.items():
            keys = _group_keys(self.reparam_mode, self.num_layers)
            if sorted(group) != sorted(keys):
                raise ValueError(f"group {role} has wrong parameter keys")
            if self.reparam_mode == "mlp":
                expected = {
                    "source": (l, d),
                    "w1": (d, self.mlp_hidden),
                    "b1": (self.mlp_hidden,),
                    "w2": (self.mlp_hidden, self.num_layers * d),
                    "b2": (self.num_layers * d,),
                }
            else:
                expected = {f"m{k}": (l, d) for k in range(self.num_layers)}
            for key, shape in expected.items():
                if group[key].shape != shape:
                    raise ValueError(
                        f"group {role}/{key}: expected shape {shape}, got {group[key].shape}"
                    )
            for key in keys:
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
        out = []
        for role in self.roles:
            group = self.groups[role]
            for key in _group_keys(self.reparam_mode, self.num_layers):
                out.append(group[key])
        return out

    def param_count(self):
        return sum(p.size for p in self.parameters())

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

    def realize(self, role="query"):
        """The L realized l x d matrices for a role, as graph tensors.

        direct_embedding returns the stored matrices; mlp runs the shared
        source through the MLP so gradients flow back to its parameters.
        """
        group = self.groups[self.resolve_role(role)]
        if self.reparam_mode == "direct_embedding":
            return [group[f"m{k}"] for k in range(self.num_layers)]
        hidden = ad.tanh(ad.add(ad.matmul(group["source"], group["w1"]), group["b1"]))
        flat = ad.add(ad.matmul(hidden, group["w2"]), group["b2"])
        d = self.hidden_size
        return [ad.slice_(flat, 1, k * d, (k + 1) * d) for k in range(self.num_layers)]

    def check_compatible(self, config):
        """Prompt geometry against a backbone config: d, L and pinned l.

        The prefix occupies key/value slots only, so prompt length is a
        per-task choice: a config with prompt_length 0 accepts any length,
        while a nonzero value pins it (empty prompt sets always pass).
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

    # -- serialization ------------------------------------------------------

    def _payload_arrays(self):
        arrays = []
        for role in self.roles:
            group = self.groups[role]
            for key in _group_keys(self.reparam_mode, self.num_layers):
                arrays.append(np.ascontiguousarray(group[key].data, dtype="<f8"))
        return arrays


def prompt_param_count(prompt_length, hidden_size, num_layers,
                       reparam_mode="direct_embedding", mlp_hidden=0, n_groups=1):
    """Closed-form trainable parameter count for a prompt set."""
    l, d = prompt_length, hidden_size
    if reparam_mode == "mlp":
        per_group = l * d + (d * mlp_hidden + mlp_hidden) + (mlp_hidden * num_layers * d + num_layers * d)
    else:
        per_group = num_layers * l * d
    return n_groups * per_group


def promptset_to_json(ps):
    """PromptSet file content: JSON header plus base64 float64 payload."""
    payload = b"".join(a.tobytes() for a in ps._payload_arrays())
    return {
        "format": "promptset",
        "version": ps.version,
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
    if doc.get("format") != "promptset":
        raise ValueError("not a promptset document")
    l, d, num_layers = int(doc["l"]), int(doc["d"]), int(doc["L"])
    reparam_mode = doc["reparam_mode"]
    mlp_hidden = int(doc.get("mlp_hidden", 0))
    payload = base64.b64decode(doc["payload_b64"])
    if reparam_mode == "mlp":
        shapes = [
            (l, d), (d, mlp_hidden), (mlp_hidden,),
            (mlp_hidden, num_layers * d), (num_layers * d,),
        ]
    else:
        shapes = [(l, d)] * num_layers
    groups = {}
    offset = 0
    for role in doc["roles"]:
        group = {}
        for key, shape in zip(_group_keys(reparam_mode, num_layers), shapes):
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            group[key] = Tensor(arr.reshape(shape).copy())
        groups[role] = group
    if offset != len(payload):
        raise ValueError("promptset payload size mismatch")
    return PromptSet(
        doc["task_name"], l, d, num_layers, reparam_mode, mlp_hidden,
        groups, version=int(doc["version"]),
    )


def save_promptset(ps, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(promptset_to_json(ps), fh, sort_keys=True)
        fh.write("\n")


def load_promptset(path):
    with open(path, "r", encoding="utf-8") as fh:
        return promptset_from_json(json.load(fh))
