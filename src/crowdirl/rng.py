"""Deterministic random substreams on top of the Philox counter-based generator.

Every stochastic routine in the package draws from a stream identified by an
integer key tuple, so results are bit-reproducible regardless of call order.
A stream's Philox key is what numpy's
`SeedSequence(keys).generate_state(2, np.uint64)` gives. A rollout set reads
one stream in row order, so row m of an (M, ...) draw is the same for every M.

`normals` is the one place a stream's standard normals are drawn.
`start_normals` starts a draw ahead of its use: one of at least HELPER_FLOOR
normals fills on the process's one helper thread (numpy fills without the
GIL, so the caller's work, a game solve, runs alongside), a smaller one, or
any one on a host with fewer than two usable CPUs, fills inline when it is
read. Either way the same stream fills in the same order, so the bits are
those of an inline draw. The floor is where a hand-off stops costing more than it
saves, a matter of the draw's size alone: measured in process next to a
k = 3 solve (2-vCPU host), handing 1,392 normals to the helper cost the main
thread 0.08-0.14 ms, 5,760 cost 0.05-0.10 ms, 8,192 broke even, and 16,384
saved 0.1 ms and 61,440 (k = 8, M = 128) 0.9 ms.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ValidationError

KEY_LIMIT = 1 << 64  # stream keys are uint64
HELPER_FLOOR = 2**14  # normals; smaller draws fill inline (see the module docstring)


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


def normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The standard normals of seed's stream, filled in row order into an array of shape."""
    return substream(seed).standard_normal(shape)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class PendingNormals:
    """A started draw of `normals(seed, shape)`; `result()` waits for it.

    A draw without a helper's future fills inline, on the thread that reads it.
    An exception raised by the draw is raised by `result()`, with its own type.
    """

    __slots__ = ("seed", "shape", "_future")

    def __init__(self, seed: int, shape: tuple[int, ...], future=None):
        self.seed, self.shape, self._future = seed, shape, future

    def result(self) -> np.ndarray:
        if self._future is None:
            return normals(self.seed, self.shape)
        return self._future.result()


_helper = None  # the process's one helper thread, a ThreadPoolExecutor made on the first helper draw
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist here, and a draw
    handed to its pool would never run; the child makes its own on its first helper draw."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def start_normals(seed: int, shape: tuple[int, ...]) -> PendingNormals:
    """Start `normals(seed, shape)` ahead of its use: on the helper thread from HELPER_FLOOR normals up.

    The helper lives as long as the process: one made per training call gave
    back about a quarter of the gain on three sweeps of the 8-agent ring.
    """
    global _helper
    seed, shape = check_key(seed), tuple(shape)
    if math.prod(shape) < HELPER_FLOOR or _usable_cpus() < 2:
        return PendingNormals(seed, shape)
    with _helper_lock:
        if _helper is None:
            # imported on the first helper draw: importing it with the package costs milliseconds
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, "crowdirl-normals")
        return PendingNormals(seed, shape, _helper.submit(normals, seed, shape))
