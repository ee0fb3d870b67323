"""The keyed Philox streams: numpy's words, any window, any block."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from regimemm import rng

KEYS = [(0, 0, 0), (1, 5, 1), (12345, 77, 2), (2**64 - 1, 2**62 - 1, 2), (2**63, 3, 3)]


def reference(seed, path, substream, count):
    key = np.array([seed, 4 * path + substream], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


@pytest.mark.parametrize("seed, path, substream", KEYS)
def test_words_equal_numpy_philox(seed, path, substream):
    key1 = np.array([4 * path + substream], dtype=np.uint64)
    expected = reference(seed, path, substream, 41)
    np.testing.assert_array_equal(rng.words(seed, key1, [0], 41)[0], expected)
    # a start inside a 4-word block
    np.testing.assert_array_equal(rng.words(seed, key1, [7], 30)[0], expected[7:37])


@pytest.mark.parametrize("seed, path, substream", KEYS[:4])
def test_uniforms_equal_generator_random(seed, path, substream):
    draws = rng.Substream(seed, [path], substream)
    got = np.array([draws.uniform(np.array([0]))[0] for _ in range(21)])
    np.testing.assert_array_equal(got, rng.stream(seed, path, substream).random(21))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    paths=st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=5, unique=True),
    window=st.sampled_from([4, 8, 12, 64]),
    requests=st.lists(
        st.tuples(st.lists(st.booleans(), min_size=5, max_size=5), st.integers(1, 9)), max_size=10
    ),
)
def test_draws_depend_only_on_path_and_counter(seed, paths, window, requests):
    # rows draw in any pattern, through any window, in any block: each row's
    # words are its own stream's words in order
    with mock.patch.object(rng, "_WINDOW", window):
        draws = rng.Substream(seed, paths, rng.EVENTS)
    got = [[] for _ in paths]
    for mask, count in requests:
        rows = np.flatnonzero(mask[: len(paths)])
        for row, w in zip(rows, draws.raw(rows, count)):
            got[row].extend(w.tolist())
    for row, path in enumerate(paths):
        assert got[row] == reference(seed, path, rng.EVENTS, len(got[row])).tolist()


def test_exponentials_and_normals_pass_ks_at_one_percent():
    rows = np.arange(1000)
    draws = rng.Substream(2024, rows, rng.PRICES)
    exps = np.concatenate([draws.exponential(rows) for _ in range(100)])
    normals = draws.normal(rows, 100).ravel()
    assert len(exps) == len(normals) == 100_000
    assert stats.kstest(exps, "expon").pvalue > 0.01
    assert stats.kstest(normals, "norm").pvalue > 0.01
