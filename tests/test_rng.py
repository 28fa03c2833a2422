"""Counter-based stream: addressability, determinism and uniformity."""

import os
import subprocess
import sys

import numpy as np

from pulsepair import rng


def _unit(words):
    """uint64 draws mapped onto float64 uniforms in [0, 1), as the gap stage does."""
    return (words >> np.uint64(11)) * 2.0**-53


def _words(key, first, n):
    """Words first, ..., first + n - 1 of the stream with key ``key``, one
    ``stream_words`` row at a time."""
    out = np.empty(n, np.uint64)
    for lo in range(0, n, rng.ROW_WORDS):
        row = out[lo : lo + rng.ROW_WORDS]
        rng.stream_words(key, first + lo, out=row, scratch=np.empty_like(row))
    return out


def test_draws_are_position_addressed():
    key = rng.pattern_stream_key(987654321)
    full = _words(key, 0, 1000)
    # any sub-slice reproduces the same values: no sequential state
    np.testing.assert_array_equal(full[400:500], _words(key, 400, 100))


def test_pattern_stream_words_match_scalar_draw():
    """Every word of the pattern stream follows the scalar formula, from a
    key apart from the gap stream's and the seed stream's of one seed."""
    key = rng.pattern_stream_key(5)
    assert len({key, rng.gap_stream_key(5), rng.stream_key(5)}) == 3
    # word indices wrap modulo 2**64, as the scalar arithmetic does
    for first, n in ((0, 1), (7, 257), (rng.MASK64 - 1, 3)):
        row = np.empty(n, np.uint64)
        assert rng.stream_words(key, first, out=row, scratch=np.empty_like(row)) is row
        scalar = [rng.mix64_int(key + (first + j + 1) * rng.DRAW_GAMMA) for j in range(n)]
        assert [int(w) for w in row] == scalar


def test_stream_words_are_draws_of_the_gap_key():
    key = rng.gap_stream_key(5)
    for first, n in ((0, 1), (3, 6), (rng.MASK64 - 2, 5), (100, rng.ROW_WORDS)):
        row = np.empty(n, np.uint64)
        got = rng.stream_words(key, first, out=row, scratch=np.empty_like(row))
        assert got is row
        for j in (0, n // 2, n - 1):
            # word indices wrap modulo 2**64
            assert int(row[j]) == rng.mix64_int(key + (first + j + 1) * rng.DRAW_GAMMA)
    assert rng.gap_stream_key(5) != rng.stream_key(5)


def test_the_offset_table_is_built_on_first_use():
    """An analytic scan in a fresh interpreter never builds the gap stream's
    offset table; a Monte Carlo run builds it once."""
    src = os.path.dirname(os.path.dirname(rng.__file__))
    code = (
        "import io\n"
        "from pulsepair import cli, rng\n"
        "for argv in (['scan'], ['scan', '--mode', 'monte-carlo', '--n-pulses', '1000']):\n"
        "    assert cli.run_command(argv, out=io.StringIO()) == 0\n"
        "    print(rng._row_offsets.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.split() == ["0", "1"]


def test_distinct_draw_indices_decorrelate():
    """Gap word k and pattern word k of one seed, which go with the same
    event, are uncorrelated, as are neighbouring words of one stream."""
    gap = _unit(_words(rng.gap_stream_key(11), 0, 200_000))
    pattern = _unit(_words(rng.pattern_stream_key(11), 0, 200_001))
    assert abs(np.corrcoef(gap, pattern[:-1])[0, 1]) < 0.01
    assert abs(np.corrcoef(pattern[:-1], pattern[1:])[0, 1]) < 0.01


def test_uniformity_moments():
    u = _unit(_words(rng.pattern_stream_key(2024), 0, 1_000_000))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5 * (1 / np.sqrt(12e6))
    assert abs(u.var() - 1 / 12) < 5e-4


def test_seeds_change_everything():
    for stream_key in (rng.gap_stream_key, rng.pattern_stream_key):
        a = _words(stream_key(1), 0, 1000)
        b = _words(stream_key(2), 0, 1000)
        assert (a != b).mean() > 0.999


def test_derive_seed_is_deterministic_and_spread():
    children = [rng.derive_seed(42, i) for i in range(100)]
    assert children == [rng.derive_seed(42, i) for i in range(100)]
    assert len(set(children)) == 100


def test_mix64_int_matches_vector_mix():
    z = np.array([0, 1, 2**63, rng.MASK64], dtype=np.uint64)
    vec = rng.mix64(z.copy())
    for x, v in zip(z, vec):
        assert rng.mix64_int(int(x)) == int(v)


def test_out_and_scratch_buffers_change_no_bits():
    key = rng.pattern_stream_key(8)
    expected = _words(key, 3, 3000)
    out = np.full(3000, rng.MASK64, np.uint64)
    scratch = np.arange(3000, dtype=np.uint64)
    assert rng.stream_words(key, 3, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, expected)
    z = np.array([0, 1, 2**63, rng.MASK64], dtype=np.uint64)
    np.testing.assert_array_equal(rng.mix64(z.copy(), np.empty_like(z)), rng.mix64(z.copy()))
