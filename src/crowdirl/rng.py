"""Deterministic random substreams on top of the Philox counter-based generator.

Every stochastic routine in the package draws from a stream identified by an
integer key tuple, so results are bit-reproducible regardless of call order,
batching or worker count; `normal_streams` draws a whole set of them at once.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def _seed_sequence(keys: tuple[int, ...]) -> np.random.SeedSequence:
    out = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise ValidationError(f"stream keys must be nonnegative, got {k}")
        out.append(k & _MASK64)
    return np.random.SeedSequence(entropy=out)


def substream(*keys: int) -> np.random.Generator:
    """Generator for the stream identified by `keys` (order-sensitive)."""
    key = _seed_sequence(keys).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_streams(seed: int, M: int, shape) -> np.ndarray:
    """Standard normals (M, *shape); row m is substream(seed, m).standard_normal(shape)."""
    gen = np.random.Generator(np.random.Philox(key=0))  # re-keyed per row: cheaper than M
    state = gen.bit_generator.state
    out = np.empty((M, *shape))
    for m in range(M):
        state["state"]["key"] = _seed_sequence((seed, m)).generate_state(2, np.uint64)
        gen.bit_generator.state = state  # counter 0, empty buffer: a fresh stream
        gen.standard_normal(out=out[m])
    return out


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single reproducible 64-bit seed."""
    return int(_seed_sequence(keys).generate_state(1, np.uint64)[0])
