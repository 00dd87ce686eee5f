"""Current code against values recorded from earlier, equivalent code.

Embeddings, 5-step DPT/ft loss trajectories and 5-step RIP trajectories of
the tiny backbones (tests/golden.py) must stay within GATE relative
difference of tests/data/golden.json: the packed forward and the one
cross-entropy contrastive loss sum in a different order than the code that
recorded them, so they agree to rounding, not bitwise. Initialization draws
the same numbers in the same order, so its hashes must match exactly, and
mining makes only exact decisions (ranks, set overlaps), so its pool hash
must too. The forward hashes pin those embeddings, DPT/ft losses and RIP
trajectories bitwise, one hash each, as the code computed them when it was
recorded: changes that only repack rows or reorder memory traffic must
leave every bit alone.
"""

import json

import pytest

from golden import (CASES, FORWARD_KEYS, INIT_LAYOUTS, PATH, RIP_MODES, RIP_TERMS, TRAJECTORIES,
                    golden_values, relative_error)

GATE = 1e-10
WANT = json.loads(PATH.read_text())


@pytest.fixture(scope="module")
def got():
    return golden_values()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("role", ["passage", "query"])
def test_embeddings(got, case, role):
    pairs = list(zip(got["embeddings"][case][role], WANT["embeddings"][case][role], strict=True))
    assert pairs
    for a, b in pairs:
        assert relative_error(a, b) <= GATE


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_loss_trajectory(got, name):
    losses = list(zip(got["losses"][name], WANT["losses"][name], strict=True))
    assert len(losses) == 5
    for a, b in losses:
        assert relative_error(a, b) <= GATE


@pytest.mark.parametrize("mode", RIP_MODES)
@pytest.mark.parametrize("term", RIP_TERMS)
def test_rip_trajectory(got, mode, term):
    losses = list(zip(got["rip"][mode][term], WANT["rip"][mode][term], strict=True))
    assert len(losses) == 5
    for a, b in losses:
        assert relative_error(a, b) <= GATE


@pytest.mark.parametrize("name", ["backbone", *INIT_LAYOUTS])
def test_init_bitwise(got, name):
    assert got["init"][name] == WANT["init"][name]


def test_mining_bitwise(got):
    assert got["mining"] == WANT["mining"]


@pytest.mark.parametrize("key", [f"forward_{key}" for key in FORWARD_KEYS])
def test_forward_bitwise(got, key):
    assert got[key] == WANT[key]
