"""One scaled-down world shared by every test that needs a trained model."""

from __future__ import annotations

import pytest

from bench.world import Scale, build_world

#: Counts ÷50; a small database and a two-epoch model keep the build ~1 s.
TINY = Scale(titles=200, training_pairs=200, epochs=2, hidden_size=16, divisor=50)


@pytest.fixture(scope="session")
def tiny_world():
    return build_world(seed=11, scale=TINY)
