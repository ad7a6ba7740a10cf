import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crowdirl
from crowdirl.errors import ValidationError
from crowdirl.rng import derive_seed, normal_streams, substream


@pytest.mark.parametrize("seed", [0, 2**64 - 1, derive_seed(11, 3, 2)])
@pytest.mark.parametrize("M", [1, 7, 40])
def test_normal_streams_equal_substream_draws_bit_for_bit(seed, M):
    shape = (30, 3, 2)
    got = normal_streams(seed, M, shape)
    assert got.shape == (M, *shape)
    for m in range(M):
        assert np.array_equal(got[m], substream(seed, m).standard_normal(shape))


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
