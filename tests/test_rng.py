import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdirl
from crowdirl.errors import ValidationError
from crowdirl.game import PolicySequence, sample_rollouts
from crowdirl.irl import TrainingConfig
from crowdirl.rng import derive_seed, substream
from crowdirl.trajectory import AgentState, ScenarioSpec


@pytest.mark.parametrize(
    "seed", [0, 2**64 - 1, derive_seed(11, 3, 2), 2**32 - 1, 2**32, derive_seed(0, 0, 0)]
)
@pytest.mark.parametrize("M", [1, 7, 40])
def test_rows_of_one_stream_do_not_depend_on_the_draw_size(seed, M):
    # a rollout set's noise is one draw filled in row order: row m is the same
    # stretch of the stream whatever M is, and chunked draws continue it
    shape = (30, 3, 2)
    ref = substream(seed).standard_normal((64, *shape))
    assert np.array_equal(substream(seed).standard_normal((M, *shape)), ref[:M])
    gen = substream(seed)
    chunks = [gen.standard_normal((m, *shape)) for m in (M, 64 - M)]
    assert np.array_equal(np.concatenate(chunks), ref)


def _one_step_scene() -> tuple[PolicySequence, ScenarioSpec]:
    policies = PolicySequence(
        K=np.zeros((1, 1, 2, 4)), kff=np.zeros((1, 1, 2)), Sigma=np.eye(2)[None, None],
        nominal_states=np.zeros((2, 4)),
    )
    spec = ScenarioSpec(
        k=1, x0=(AgentState(0, 0, 0, 0),), goals=None, horizon=1, dt=1.0
    )
    return policies, spec


def test_negative_seeds_are_rejected():
    policies, spec = _one_step_scene()
    for call in (lambda: substream(-1), lambda: sample_rollouts(policies, spec, 2, seed=-1)):
        with pytest.raises(ValidationError, match="nonnegative"):
            call()


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", np.float64(1.0), np.bool_(True)])
def test_keys_that_are_not_integers_are_refused_not_converted(seed):
    # int() would hand 1.5, True and '1' the stream of seed 1
    policies, spec = _one_step_scene()
    for call in (lambda: substream(seed), lambda: derive_seed(3, seed),
                 lambda: sample_rollouts(policies, spec, 2, seed=seed),
                 lambda: TrainingConfig(seed=seed)):
        with pytest.raises(ValidationError, match="stream keys must be integers"):
            call()


@pytest.mark.parametrize("seed", [np.int64(1), np.uint8(7), np.uint64(2**64 - 1)])
def test_numpy_integer_keys_draw_the_stream_of_the_same_int(seed):
    assert substream(seed).standard_normal(8).tobytes() == substream(int(seed)).standard_normal(8).tobytes()
    assert TrainingConfig(seed=seed).seed == seed


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; generators are built inside calls
    code = "import sys, crowdirl; print('numpy.random' in sys.modules)"
    src = str(Path(crowdirl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_keys_beyond_64_bits_are_rejected():
    # masking 2**64 to 64 bits would hand it the stream of key 0
    for call in (lambda: substream(2**64), lambda: substream(3, 2**64 + 5),
                 lambda: derive_seed(2**64)):
        with pytest.raises(ValidationError, match="below 2\\*\\*64"):
            call()
