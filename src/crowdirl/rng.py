"""Deterministic random substreams on top of the Philox counter-based generator.

Every stochastic routine in the package draws from a stream identified by an
integer key tuple, so results are bit-reproducible regardless of call order.
A stream's Philox key is what numpy's
`SeedSequence(keys).generate_state(2, np.uint64)` gives. A rollout set reads
one stream in row order, so row m of an (M, ...) draw is the same for every M.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

KEY_LIMIT = 1 << 64  # stream keys are uint64


def check_key(k: int) -> int:
    """A stream key (or seed) as an int: an integer, not a bool, in [0, 2**64).

    A float, bool or str is refused, not converted, so that 1.5, True and '1'
    never alias the stream of seed 1.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= int(k) < KEY_LIMIT:
        raise ValidationError(f"stream keys must be integers, nonnegative and below 2**64, got {k!r}")
    return int(k)


def _seed_sequence(keys: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=[check_key(k) for k in keys])


def substream(*keys: int) -> np.random.Generator:
    """Generator for the stream identified by `keys` (order-sensitive)."""
    key = _seed_sequence(keys).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single reproducible 64-bit seed."""
    return int(_seed_sequence(keys).generate_state(1, np.uint64)[0])
