"""Counter-based stream: addressability, determinism and uniformity."""

import os
import subprocess
import sys

import numpy as np

from pulsepair import rng


def _unit(words):
    """uint64 draws mapped onto float64 uniforms in [0, 1), as the gap stage does."""
    return (words >> np.uint64(11)) * 2.0**-53


def test_draws_are_position_addressed():
    key = rng.stream_key(987654321)
    pulses = np.arange(0, 1000, dtype=np.uint64)
    keys = rng.pulse_keys(key, pulses)
    full = rng.draw_at(keys, 3)
    # any sub-slice reproduces the same values: no sequential state
    part = rng.draw_at(rng.pulse_keys(key, pulses[400:500]), 3)
    np.testing.assert_array_equal(full[400:500], part)


def test_draw_at_matches_scalar_draw():
    keys = rng.pulse_keys(rng.stream_key(5), np.arange(257, dtype=np.uint64))
    # draw indices wrap modulo 2**64, as the scalar arithmetic does
    for index in (0, 7, rng.MASK64 - 1, rng.MASK64):
        scalar = [rng.mix64_int(int(k) + (index + 1) * rng.DRAW_GAMMA) for k in keys]
        assert [int(w) for w in rng.draw_at(keys, index)] == scalar
        out = np.empty_like(keys)
        got = rng.draw_at(keys, index, out=out, scratch=np.empty_like(keys))
        assert got is out
        assert [int(w) for w in got] == scalar


def test_an_int_draw_index_matches_the_array_index():
    # stream_words adds a table of draw offsets, one per word index, to one key
    keys = rng.pulse_keys(rng.stream_key(6), np.arange(257, dtype=np.uint64))
    for index in (0, 7, rng.MASK64 - 1, rng.MASK64):
        expected = np.array(
            [rng.stream_words(int(k), index, out=np.empty(1, np.uint64),
                              scratch=np.empty(1, np.uint64))[0] for k in keys],
            dtype=np.uint64)
        np.testing.assert_array_equal(rng.draw_at(keys, index), expected)
        out = np.empty_like(keys)
        got = rng.draw_at(keys, index, out=out, scratch=np.empty_like(keys))
        assert got is out
        np.testing.assert_array_equal(got, expected)


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
    key = rng.stream_key(11)
    keys = rng.pulse_keys(key, np.arange(200_000, dtype=np.uint64))
    a = _unit(rng.draw_at(keys, 0))
    b = _unit(rng.draw_at(keys, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_uniformity_moments():
    key = rng.stream_key(2024)
    keys = rng.pulse_keys(key, np.arange(1_000_000, dtype=np.uint64))
    u = _unit(rng.draw_at(keys, 0))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5 * (1 / np.sqrt(12e6))
    assert abs(u.var() - 1 / 12) < 5e-4


def test_seeds_change_everything():
    pulses = np.arange(1000, dtype=np.uint64)
    a = rng.draw_at(rng.pulse_keys(rng.stream_key(1), pulses), 0)
    b = rng.draw_at(rng.pulse_keys(rng.stream_key(2), pulses), 0)
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
    pulses = np.arange(3, 3000, 7, dtype=np.uint64)
    keys = rng.pulse_keys(rng.stream_key(8), pulses)
    out = pulses.copy()
    scratch = np.empty_like(out)
    assert rng.pulse_keys(rng.stream_key(8), out, out=out, scratch=scratch) is out
    np.testing.assert_array_equal(out, keys)
    np.testing.assert_array_equal(
        rng.draw_at(keys, 5, out=np.empty_like(keys), scratch=np.empty_like(keys)),
        rng.draw_at(keys, 5))
    z = np.array([0, 1, 2**63, rng.MASK64], dtype=np.uint64)
    np.testing.assert_array_equal(rng.mix64(z.copy(), np.empty_like(z)), rng.mix64(z.copy()))
