import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk import (
    grid_for_step,
    linear_problem,
    system2d_problem,
    uniforms_per_step,
)
from csrk.conditions import default_theta_grid
from csrk.increments import (
    enumerate_outcomes,
    moments_exact,
    outcome_count,
    sample_batch,
)
from csrk.integrator import TimeGrid
from csrk.sde import Functional
from csrk.stats import check_outcome_count, mc_expectations_at, simulate_path
from csrk.streams import _GAMMA2, KeyedPaths, stream_keys, uniforms
from csrk.tableau import builtin_scheme


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


# the derivation of the streams module docstring, in Python ints
_MASK = (1 << 64) - 1


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _documented_draw(s, p, i):
    key = _mix64(_mix64(s) ^ (((p + 1) * 0x9E3779B97F4A7C15) & _MASK))
    value = _mix64((key + (i + 1) * (0xBF58476D1CE4E5B9 | 1)) & _MASK)
    return (value >> 11) * 2.0 ** -53


class TestDocumentedDerivation:
    """Every draw is the module docstring's formula, bit for bit."""

    PATHS = (0, 1, 4095, 2**40)

    @pytest.mark.parametrize("seed", (0, 1, 2**64 - 1))
    @pytest.mark.parametrize("start,count", ((0, 1), (7, 3), (100, 28)))
    @pytest.mark.parametrize("keyed", (False, True), ids=("plain", "keyed"))
    def test_matches_python_ints(self, seed, start, count, keyed):
        paths = np.array(self.PATHS, dtype=np.uint64)
        if keyed:
            paths = KeyedPaths(seed, paths)
        got = uniforms(seed, paths, start, count)
        want = [[_documented_draw(seed, p, i)
                 for i in range(start, start + count)] for p in self.PATHS]
        assert got.dtype == np.float64 and got.flags.f_contiguous
        assert got.tolist() == want
        # one path alone, as simulate draws it
        single = uniforms(seed, np.uint64(self.PATHS[-1]), start, count)
        assert single.tolist() == want[-1]


class TestPathStream:
    def test_keys_distinct(self):
        keys = stream_keys(0, np.arange(10**5))
        assert len(np.unique(keys)) == 10**5

    @pytest.mark.parametrize("seed", [2**64, -2**64, -(2**64) + 5, -1])
    def test_seed_outside_64_bits_refused(self, seed):
        # taken modulo 2^64, each would alias a seed in range (0, 0, 5, max)
        for draw in (lambda: stream_keys(seed, np.arange(3)),
                     lambda: KeyedPaths(seed, np.arange(3)),
                     lambda: uniforms(seed, np.arange(3), 0, 2)):
            with pytest.raises(ValueError) as ei:
                draw()
            assert str(ei.value) == (f"seed must be an integer in "
                                     f"[0, 2**64), got {seed}")


LIN = linear_problem(1.5, 0.1, 0.1, 2.0)
GRID = grid_for_step(LIN, 0.5)

# each would have run on wrong draws, or raised NumPy's OverflowError
ADDRESS_PROBES = {
    "float-seed": (lambda: uniforms(1.5, 0, 0, 2), "seed", "1.5"),
    "bool-seed": (lambda: uniforms(True, 0, 0, 2), "seed", "True"),
    "keyed-float-seed": (lambda: KeyedPaths(1.5, [0, 1]), "seed", "1.5"),
    "float-paths": (lambda: uniforms(0, [0.5, 1.7], 0, 1), "path", "0.5"),
    "sampled-float-paths": (lambda: sample_batch(1, 0.5, 0, [0.5, 1.7], 0),
                            "path", "0.5"),
    "negative-float-path-array": (
        lambda: uniforms(0, np.array([-1.0]), 0, 1), "path", "[-1.]"),
    "float-start": (lambda: uniforms(0, 0, 0.5, 2), "start", "0.5"),
    "negative-count": (lambda: uniforms(0, 0, 0, -1), "count", "-1"),
    "negative-step": (lambda: sample_batch(1, 0.5, 0, 0, -1), "step_index",
                      "-1"),
    "negative-path": (lambda: uniforms(0, -1, 0, 1), "path", "-1"),
    "path-2^64": (lambda: uniforms(0, 2**64, 0, 1), "path", str(2**64)),
    "negative-start": (lambda: uniforms(0, 0, -3, 2), "start", "-3"),
    # the last draw's counter, 2**64, would overflow
    "last-counter-2^64": (lambda: uniforms(0, 0, 2**64 - 1, 1),
                          "start + count", str(2**64)),
    # 1.0 == 1, so the keys made under seed 1 must not vouch for it
    "float-seed-of-keyed-paths": (
        lambda: uniforms(1.0, KeyedPaths(1, [0, 1]), 0, 2), "seed", "1.0"),
    "monte-carlo-float-seed": (
        lambda: mc_expectations_at(builtin_scheme("CRDI2WM"), LIN, GRID,
                                   Functional("identity"), [2.0], 16, 1.5),
        "seed", "1.5"),
    "simulate-bool-seed": (
        lambda: simulate_path(builtin_scheme("CRDI2WM"), LIN, GRID, True),
        "seed", "True"),
}


@pytest.mark.parametrize("probe", ADDRESS_PROBES)
def test_address_outside_the_streams_refused(probe):
    """A seed, path index, start, count and step index must each be an
    integer in [0, 2**64), and one rule says so."""
    call, name, value = ADDRESS_PROBES[probe]
    with pytest.raises(ValueError) as ei:
        call()
    assert str(ei.value) == (f"{name} must be an integer in [0, 2**64), "
                             f"got {value}")


def test_address_inside_the_streams_accepted():
    # NumPy integers and lists of Python ints are integers too
    want = uniforms(2**64 - 1, np.array([5, 2**64 - 1], dtype=np.uint64), 2,
                    1)
    for seed, paths, start, count in (
            (np.uint64(2**64 - 1), [5, 2**64 - 1], np.int32(2), np.uint8(1)),
            (2**64 - 1, (np.int64(5), np.uint64(2**64 - 1)), 2, 1)):
        got = uniforms(seed, paths, start, count)
        assert got.tobytes() == want.tobytes()


def _mc(M=16, threads=1):
    return mc_expectations_at(builtin_scheme("CRDI2WM"), LIN, GRID,
                              Functional("identity"), [2.0], M, 0,
                              threads=threads)


# every count a library entry takes: (call on the count, its name, low, a
# value it accepts)
COUNT_ENTRIES = {
    "sample_batch-m": (lambda v: sample_batch(v, 0.5, 0, 0, 0), "m", 1, 2),
    "enumerate_outcomes-m": (lambda v: enumerate_outcomes(v, 0.5), "m", 1, 2),
    "outcome_count-m": (outcome_count, "m", 1, 2),
    "uniforms_per_step-m": (uniforms_per_step, "m", 1, 2),
    "moments_exact-factor": (lambda v: moments_exact(2, 0.5, [(0,), (v, 1)]),
                             "factor index", 0, 1),
    "mc_expectations_at-M": (_mc, "M", 2, 5000),
    "mc_expectations_at-threads": (lambda v: _mc(threads=v), "threads", 1,
                                   2),
    "TimeGrid.uniform-n_steps": (lambda v: TimeGrid.uniform(0, 1, v).times,
                                 "n_steps", 1, 3),
    "check_outcome_count-n_steps": (lambda v: check_outcome_count(1, v, 100),
                                    "n_steps", 1, 4),
    "check_outcome_count-outcome_cap": (
        lambda v: check_outcome_count(1, 2, v), "outcome_cap", 1, 9),
    "default_theta_grid-points": (default_theta_grid, "points", 2, 5),
    "Functional-component": (lambda v: Functional("square", v)(np.eye(2)),
                             "component", 0, 1),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_refused_by_one_rule(entry, bad):
    """Every count is an integer in [low, 2**64), and check_index says so:
    a float is not truncated, a bool is not 1 and no count wraps."""
    call, name, low, _ = COUNT_ENTRIES[entry]
    value = {"float": 1.5, "bool": True, "below": low - 1}[bad]
    with pytest.raises(ValueError) as ei:
        call(value)
    assert str(ei.value) == (f"{name} must be an integer in [{low}, 2**64), "
                             f"got {value}")


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_numpy_count_accepted(entry):
    call, _, _, good = COUNT_ENTRIES[entry]
    np.testing.assert_equal(call(np.int64(good)), call(good))


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


LINEAR = linear_problem(1.5, 0.1, 0.1, 2.0)

# (problem, finest step, last eval time, seeds, paths) of every Monte Carlo
# run of the acceptance suite and of the README's commands
DOCUMENTED_RUNS = [
    # criterion 6, and the README's linear converge run (seed 0)
    (LINEAR, 0.0625, 1.7, (0, 1, 2), 10**6),
    # criterion 7, and the README's system2d converge run
    (system2d_problem(), 0.5, 3.8, (0,), 10**6),
    # criterion 9, on its three configurations
    (LINEAR, 0.25, 1.7, (7,), 10**5),
    (system2d_problem(), 1.0, 3.8, (7,), 10**5),
    (LINEAR, 0.5, 2.0, (7,), 10**5),
    # the README's error-table, converge and dense runs at --M 100000
    (LINEAR, 0.125, 2.0, (0,), 10**5),
    # the README's simulate run: path 0 over the whole horizon
    (LINEAR, 0.25, 2.0, (3,), 1),
]


def smallest_offset(keys):
    """Smallest circular distance, in draws, between two streams' keys.

    Draw i of a path with key k is ``mix64(k + (i+1)*GAMMA2)`` and ``mix64``
    is a bijection, so draws i and j of keys k and k' coincide exactly when
    ``(k' - k) * GAMMA2^-1 = i - j (mod 2^64)``.  Two paths of D draws each
    share none when that offset is at least D either way round the circle.
    """
    inverse = np.uint64(pow(int(_GAMMA2), -1, 2**64))
    with np.errstate(over="ignore"):
        offsets = np.sort(np.asarray(keys, dtype=np.uint64) * inverse)
    wrap = (int(offsets[0]) - int(offsets[-1])) % 2**64
    return min(int(np.diff(offsets).min()), wrap)


class TestDisjointStreams:
    def test_offset_is_the_lag_of_shared_draws(self):
        keyed = KeyedPaths(0, np.arange(2, dtype=np.uint64))
        with np.errstate(over="ignore"):
            keyed.keys = keyed.keys[:1] + np.array([0, 5], np.uint64) * _GAMMA2
        u = uniforms(0, keyed, 0, 12)
        assert smallest_offset(keyed.keys) == 5
        # the second stream is the first one five draws on
        assert np.array_equal(u[1, :7], u[0, 5:])
        assert not np.isin(u[1, :7], u[0, :5]).any()

    def test_documented_runs_share_no_draw(self):
        paths, draws = {}, 0
        for problem, h, t_last, seeds, M in DOCUMENTED_RUNS:
            steps = grid_for_step(problem, h).locate(t_last)[0] + 1
            draws = max(draws, steps * uniforms_per_step(problem.dim_noise))
            for seed in seeds:
                paths[seed] = max(paths.get(seed, 0), M)
        # criterion 6's finest grid: 28 steps of one draw
        assert draws == 28
        keys = np.concatenate([stream_keys(seed, np.arange(M, dtype=np.uint64))
                               for seed, M in paths.items()])
        # pooled over every run, which bounds each run's own offsets; 0
        # would be two equal keys
        assert smallest_offset(keys) > draws


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
