"""Random streams of a run: pass splits, independence, uniformity, seeds,
and the lazy import of ``numpy.random``."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pulsepair import counting, rng


def _draws(seed, index, n):
    """The first n draws of stream ``index`` of ``seed``, in one call."""
    return counting._stream(seed, index).random(n)


def test_draws_are_position_addressed():
    """Draw k of a stream is its k-th draw however passes split the draws:
    each float64 draw takes one 64-bit word of the generator."""
    full = _draws(987654321, 1, 1000)
    stream = counting._stream(987654321, 1)
    parts = [stream.random(out=np.empty(size)) for size in (1, 3, 396, 100, 500)]
    np.testing.assert_array_equal(np.concatenate(parts), full)


def test_numpy_random_is_imported_only_by_the_monte_carlo():
    """In a fresh interpreter an analytic scan leaves ``numpy.random``
    unimported, and a Monte Carlo scan imports it.  Where ``import numpy``
    imports it already (numpy before 2.0), there is nothing to test."""
    src = os.path.dirname(os.path.dirname(rng.__file__))
    code = (
        "import io, sys\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "from pulsepair import cli\n"
        "for argv in (['scan'], ['scan', '--mode', 'monte-carlo', '--n-pulses', '1000']):\n"
        "    assert cli.run_command(argv, out=io.StringIO()) == 0\n"
        "    print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    if out[0] == "True":
        pytest.skip("import numpy imports numpy.random")
    assert out == ["False", "False", "True"]


def test_distinct_draw_indices_decorrelate():
    """Gap draw k and pattern draw k of one seed, which go with the same
    click pulse, are uncorrelated, as are neighbouring draws of one stream."""
    gap = _draws(11, 0, 200_000)
    pattern = _draws(11, 1, 200_001)
    assert abs(np.corrcoef(gap, pattern[:-1])[0, 1]) < 0.01
    assert abs(np.corrcoef(pattern[:-1], pattern[1:])[0, 1]) < 0.01


def test_uniformity_moments():
    u = _draws(2024, 1, 1_000_000)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5 * (1 / np.sqrt(12e6))
    assert abs(u.var() - 1 / 12) < 5e-4


def test_seeds_change_everything():
    for index in (0, 1):
        a = _draws(1, index, 1000)
        b = _draws(2, index, 1000)
        assert (a != b).mean() > 0.999
    assert (_draws(1, 0, 1000) != _draws(1, 1, 1000)).mean() > 0.999


def test_derive_seed_is_deterministic_and_spread():
    children = [rng.derive_seed(42, i) for i in range(100)]
    assert children == [rng.derive_seed(42, i) for i in range(100)]
    assert len(set(children)) == 100


def test_mix64_int_is_splitmix64():
    """The first output of reference splitmix64 seeded with 0 is the
    finalizer of one golden-ratio step."""
    assert rng.mix64_int(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


# (seed, index) -> child seed, pinned so that no rewrite of derive_seed
# moves a scan's points onto other streams; seeds equal mod 2**64 agree
_CHILD_SEEDS = {
    (-1, 0): 0x6B07B7D0A7AFE795,
    (-1, 7): 0xF2596F91B0BE209C,
    (0, 0): 0x2FF145472E2746D6,
    (12345, 0): 0x87A9436927BB6A18,
    (12345, 35): 0x63EDEC74176E1FE2,
    (715_517, 1): 0x96439CC66ED38024,
    (2**63, 2): 0xE68CF674C2B25155,
    (2**64 - 1, 0): 0x6B07B7D0A7AFE795,
    (2**64 - 1, 7): 0xF2596F91B0BE209C,
}


@pytest.mark.parametrize("seed, index", sorted(_CHILD_SEEDS))
def test_derive_seed_known_answers(seed, index):
    assert rng.derive_seed(seed, index) == _CHILD_SEEDS[seed, index]


def test_mix64_int_matches_vector_mix():
    z = np.array([0, 1, 2**63, rng.MASK64], dtype=np.uint64)
    vec = rng.mix64(z.copy())
    for x, v in zip(z, vec):
        assert rng.mix64_int(int(x)) == int(v)
