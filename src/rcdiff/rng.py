"""Seeding conventions.

Stochastic entry points pass their ``seed``, an int or a ``SeedSequence``,
to ``np.random.default_rng``, so most also take a ``Generator``;
``sampler.run_backward`` does not, as it derives its chunk streams from it.
Derived streams (pipeline stages, per-cell sampling) are spawned with
``derive``: the child entropy is ``[root, code0, code1, ...]``, so the stream
for a given stage is a pure function of the root seed and the stage codes and
never depends on execution order.
"""

from __future__ import annotations

import numpy as np


def derive(root: int, *codes: int) -> np.random.SeedSequence:
    """Deterministic child seed for stage ``codes`` under ``root``."""
    return np.random.SeedSequence(entropy=[int(root), *map(int, codes)])
