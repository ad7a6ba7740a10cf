import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdirl
from crowdirl.errors import ValidationError
from crowdirl.rng import _stream_keys, derive_seed, normal_streams, substream


@pytest.mark.parametrize(
    "seed", [0, 2**64 - 1, derive_seed(11, 3, 2), 2**32 - 1, 2**32, derive_seed(0, 0, 0)]
)
@pytest.mark.parametrize("M", [1, 7, 40])
def test_normal_streams_equal_substream_draws_bit_for_bit(seed, M):
    shape = (30, 3, 2)
    got = normal_streams(seed, M, shape)
    assert got.shape == (M, *shape)
    for m in range(M):
        assert np.array_equal(got[m], substream(seed, m).standard_normal(shape))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(11, 3, 2)])
def test_stream_keys_equal_seed_sequence_states(seed):
    # the seed is one 32-bit entropy word below 2**32 and two from there on
    keys = _stream_keys(seed, 1000)
    ref = [np.random.SeedSequence([seed, m]).generate_state(2, np.uint64) for m in range(1000)]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(ref))


def test_normal_streams_reject_two_word_stream_indices():
    # (2**32, 2**32) normals could never be allocated: the bound is checked first
    for call in (lambda: _stream_keys(0, 2**32), lambda: normal_streams(0, 2**32, (2**32,))):
        with pytest.raises(ValidationError, match="2\\*\\*32 - 1 streams"):
            call()


def test_normal_streams_reject_negative_seeds():
    with pytest.raises(ValidationError):
        normal_streams(-1, 2, (3,))


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; generators are built inside calls
    code = "import sys, crowdirl; print('numpy.random' in sys.modules)"
    src = str(Path(crowdirl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
