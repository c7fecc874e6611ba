"""Counter-based random number streams.

Every stochastic routine takes an integer seed and derives independent
Philox streams from (seed, stream_id) key pairs.  Philox is counter-based
with a 2**256 period, so replicas can run in parallel with no shared state
and results are reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for stream ``stream_id`` of ``seed``."""
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be nonnegative")
    key = (seed & _MASK64) | ((stream_id & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))
