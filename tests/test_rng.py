import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import crowdirl
from crowdirl import rng
from crowdirl.errors import ValidationError
from crowdirl.features import CostParams
from crowdirl.game import PolicySequence, SolverConfig, build_policies, sample_rollouts
from crowdirl.irl import TrainingConfig
from crowdirl.rng import HELPER_FLOOR, derive_seed, start_normals, substream
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


@pytest.mark.parametrize("module", [
    "numpy.random",  # numpy loads it lazily; generators are built inside calls
    "concurrent.futures",  # milliseconds to import; the first helper draw loads it
])
def test_importing_the_package_leaves_lazy_modules_unloaded(module):
    code = f"import sys, crowdirl; print({module!r} in sys.modules)"
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


@pytest.mark.parametrize("shape", [
    (HELPER_FLOOR - 1,), (HELPER_FLOOR,), (HELPER_FLOOR + 1,),
    (34, 30, 8, 2), (35, 30, 8, 2),  # 16,320 and 16,800 normals, either side of the floor
])
def test_a_started_draw_is_the_inline_draw_byte_for_byte(record_draw_threads, two_cpus, shape):
    seed = derive_seed(45, 1)
    ref = substream(seed).standard_normal(shape)
    threads = record_draw_threads()
    got = start_normals(seed, shape).result()
    assert got.shape == shape and got.tobytes() == ref.tobytes()
    inline = threads == [threading.main_thread()]
    assert inline == (np.prod(shape) < HELPER_FLOOR)


@pytest.fixture
def ring8_policies(ring8_spec):
    return build_policies([CostParams.ones()] * 8, ring8_spec, SolverConfig(entropy_temp=1e-3)), ring8_spec


@pytest.mark.parametrize("M", [34, 35])  # 16,320 and 16,800 normals at k = 8, T = 30
def test_rollouts_of_a_started_draw_are_the_inline_rollouts_byte_for_byte(two_cpus, ring8_policies, M):
    policies, spec = ring8_policies
    ref = sample_rollouts(policies, spec, M, 11)
    got = sample_rollouts(policies, spec, M, 11, start_normals(11, (M, 30, 8, 2)))
    assert got.states.tobytes() == ref.states.tobytes()
    assert got.controls.tobytes() == ref.controls.tobytes()


def test_a_draw_of_another_seed_or_shape_is_refused():
    policies, spec = _one_step_scene()
    for seed, shape in ((4, (2, 1, 1, 2)), (3, (3, 1, 1, 2)), (3, (2, 1, 2, 2))):
        with pytest.raises(ValidationError, match="started draw"):
            sample_rollouts(policies, spec, 2, 3, start_normals(seed, shape))
    got = sample_rollouts(policies, spec, 2, 3, start_normals(3, (2, 1, 1, 2)))
    assert got.states.tobytes() == sample_rollouts(policies, spec, 2, 3).states.tobytes()


class _DrawFailed(Exception):
    pass


@pytest.mark.parametrize("floor", [0, 2**62], ids=["helper", "inline"])
def test_an_error_of_the_draw_reaches_the_reader_with_its_own_type(monkeypatch, two_cpus, floor):
    def failing(*keys):
        raise _DrawFailed(keys)

    monkeypatch.setattr(rng, "HELPER_FLOOR", floor)
    monkeypatch.setattr(rng, "substream", failing)
    pending = start_normals(5, (4, 3))
    with pytest.raises(_DrawFailed):
        pending.result()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_a_forked_child_makes_its_own_helper(two_cpus, ring8_policies):
    # the parent's helper thread does not exist in the child: a draw handed
    # to the parent's pool there would never run
    policies, spec = ring8_policies
    M, shape = 64, (64, 30, 8, 2)
    ref = sample_rollouts(policies, spec, M, 21)
    assert start_normals(20, shape).result().shape == shape  # the parent's helper is alive
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit alone
        code = 1
        try:
            got = sample_rollouts(policies, spec, M, 21, start_normals(21, shape))
            code = 0 if got.states.tobytes() == ref.states.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's draw hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0
