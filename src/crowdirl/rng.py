"""Deterministic random substreams on top of the Philox counter-based generator.

Every stochastic routine in the package draws from a stream identified by an
integer key tuple, so results are bit-reproducible regardless of call order,
batching or worker count. A stream's Philox key is what numpy's
`SeedSequence(keys).generate_state(2, np.uint64)` gives; `normal_streams`
derives the keys of a whole set of (seed, m) streams in one vectorized pass
that reproduces that hash exactly, then draws each row.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# numpy's SeedSequence: a pool of 4 32-bit words, filled and mixed with the
# A constants, read out with the B constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _key(k: int) -> int:
    k = int(k)
    if k < 0:
        raise ValidationError(f"stream keys must be nonnegative, got {k}")
    return k & _MASK64


def _seed_sequence(keys: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=[_key(k) for k in keys])


def substream(*keys: int) -> np.random.Generator:
    """Generator for the stream identified by `keys` (order-sensitive)."""
    key = _seed_sequence(keys).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its multiplier advances on every call."""
    const = init

    def mix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return mix


def _stream_keys(seed: int, M: int) -> np.ndarray:
    """(M, 2) uint64 Philox keys; row m is SeedSequence([seed, m]).generate_state(2, np.uint64).

    The entropy is the seed's 32-bit words (one, or two above 2**32 - 1)
    followed by m as one word: at most 3 words, so only SeedSequence's pool
    fill and pool mix run, never its tail mixing.
    """
    seed = _key(seed)
    if M >= 1 << 32:
        raise ValidationError(f"at most 2**32 - 1 streams per seed, got M={M}")
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((_POOL_SIZE, M), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(M, dtype=np.uint32)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]  # missing words hash as 0
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    readout = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([readout(word) for word in pool], axis=1)  # (M, 4) uint32
    # as generate_state: the 4 words read as 2 little-endian 64-bit ones
    return state.astype("<u4").view("<u8").astype(np.uint64)


def normal_streams(seed: int, M: int, shape) -> np.ndarray:
    """Standard normals (M, *shape); row m is substream(seed, m).standard_normal(shape)."""
    keys = _stream_keys(seed, M)
    gen = np.random.Generator(np.random.Philox(key=0))  # re-keyed per row: cheaper than M
    state = gen.bit_generator.state
    out = np.empty((M, *shape))
    for m in range(M):
        state["state"]["key"] = keys[m]
        gen.bit_generator.state = state  # counter 0, empty buffer: a fresh stream
        gen.standard_normal(out=out[m])
    return out


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single reproducible 64-bit seed."""
    return int(_seed_sequence(keys).generate_state(1, np.uint64)[0])
