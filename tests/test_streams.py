import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.streams import KeyedPaths, PathStream, stream_keys, uniforms


class TestUniforms:
    def test_range_and_shape(self):
        u = uniforms(0, np.arange(100), 0, 64)
        assert u.shape == (100, 64)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_pure_function_of_indices(self):
        a = uniforms(7, np.arange(10), 5, 3)
        b = uniforms(7, np.arange(10), 5, 3)
        assert np.array_equal(a, b)

    def test_start_offset_slices_the_stream(self):
        whole = uniforms(7, np.arange(4), 0, 10)
        tail = uniforms(7, np.arange(4), 6, 4)
        assert np.array_equal(whole[:, 6:], tail)

    def test_distinct_paths_distinct_draws(self):
        u = uniforms(1, np.arange(1000), 0, 4)
        assert len({tuple(row) for row in u}) == 1000

    def test_distinct_seeds_differ(self):
        a = uniforms(1, np.arange(16), 0, 8)
        b = uniforms(2, np.arange(16), 0, 8)
        assert not np.array_equal(a, b)

    def test_rough_uniformity(self):
        u = uniforms(3, np.arange(2000), 0, 50).ravel()
        # mean 1/2 +- 5 sigma, variance 1/12
        n = u.size
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / n)
        hist, _ = np.histogram(u, bins=10, range=(0, 1))
        assert np.all(np.abs(hist - n / 10) < 5 * np.sqrt(n * 0.1 * 0.9))


class TestPathStream:
    def test_sequential_view_matches_batch(self):
        s = PathStream(11, 5)
        first = s.uniforms(3)
        second = s.uniforms(4)
        batch = uniforms(11, np.uint64(5), 0, 7)
        assert np.array_equal(np.concatenate([first, second]), batch)

    def test_keys_distinct(self):
        keys = stream_keys(0, np.arange(10**5))
        assert len(np.unique(keys)) == 10**5


class TestKeyedPaths:
    """Keys computed once per chunk change where they come from, not one
    bit of the draws."""

    PATHS = np.arange(4096, 4096 + 300, dtype=np.uint64)

    @pytest.mark.parametrize("seed,start,count", [
        (0, 0, 1), (3, 5, 2), (7, 2**20, 6), (2**64 - 1, 123, 3),
    ])
    def test_same_draws_as_plain_indices(self, seed, start, count):
        keyed = KeyedPaths(seed, self.PATHS)
        assert keyed.size == self.PATHS.size
        assert np.array_equal(keyed, self.PATHS)
        assert np.array_equal(keyed.keys, stream_keys(seed, self.PATHS))
        want = uniforms(seed, self.PATHS, start, count)
        assert uniforms(seed, keyed, start, count).tobytes() == want.tobytes()

    def test_other_seed_computes_its_own_keys(self):
        keyed = KeyedPaths(1, self.PATHS)
        got = uniforms(2, keyed, 4, 3)
        assert got.tobytes() == uniforms(2, self.PATHS, 4, 3).tobytes()
        assert not np.array_equal(got, uniforms(1, self.PATHS, 4, 3))

    def test_derived_arrays_carry_no_keys(self):
        keyed = KeyedPaths(5, self.PATHS)
        for derived in (keyed[10:], keyed + np.uint64(1)):
            assert derived.keys is None
            want = uniforms(5, np.asarray(derived), 0, 2)
            assert uniforms(5, derived, 0, 2).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    path=st.integers(0, 2**40),
    start=st.integers(0, 2**20),
    count=st.integers(1, 32),
)
def test_uniforms_properties(seed, path, start, count):
    u = uniforms(seed, np.uint64(path), start, count)
    assert u.shape == (count,)
    assert np.all((u >= 0.0) & (u < 1.0))
    again = uniforms(seed, np.uint64(path), start, count)
    assert np.array_equal(u, again)
