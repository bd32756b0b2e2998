import concurrent.futures
import functools
import itertools
import math
import os
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import csrk.integrator
import csrk.stats
from csrk.increments import (
    CapacityError,
    enumerate_outcomes,
    outcome_count,
    sample_batch,
)
from csrk.integrator import (
    BlowupError,
    TimeGrid,
    compute_step_arrays,
    evaluate_dense,
)
from csrk.sde import (
    Functional,
    SdeProblem,
    linear_problem,
    ode_problem,
    system2d_problem,
)
from csrk.streams import KeyedPaths
from csrk.stats import (
    _advance,
    _combine,
    _path_steps,
    check_outcome_count,
    dense_error_profile,
    empirical_order,
    error_table,
    exact_weak_expectation,
    grid_for_step,
    mc_expectation,
    mc_expectations_at,
    normal_quantile,
    simulate_path,
)
from csrk.tableau import CsrkTableau, builtin_scheme, scheme_names

LIN = linear_problem(1.5, 0.1, 0.1, 2.0)
FX = Functional("identity", 0)
FX2 = Functional("square", 0)


class TestQuantile:
    def test_ninety_percent(self):
        assert normal_quantile(0.9) == pytest.approx(
            1.6448536269514722, abs=1e-14
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(1.0)


def build_grid(h, through_profile):
    """grid_for_step(LIN, h), directly or through dense_error_profile, which
    builds its grid with it."""
    if through_profile:
        return dense_error_profile(builtin_scheme("CRDI2WM"), LIN,
                                   LIN.reference_for(FX), h, [0.5], 100, 0)
    return grid_for_step(LIN, h)


class TestGridForStep:
    def test_divisible(self):
        g = grid_for_step(LIN, 0.25)
        assert g.n_steps == 8 and g.T == 2.0

    def test_non_divisible_rejected(self):
        # one message for every caller: the dense output reads an error off
        # the grid, so no caller needs a shortened final step
        for through_profile in (False, True):
            with pytest.raises(ValueError) as ei:
                build_grid(0.3, through_profile)
            assert str(ei.value) == "step 0.3 does not divide the horizon 2.0"

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("through_profile", [False, True])
    def test_bad_step_refused(self, h, through_profile):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before dividing
            with pytest.raises(ValueError, match="positive and finite"):
                build_grid(h, through_profile)

    @pytest.mark.parametrize("h", [1e-320, 5e-324])
    @pytest.mark.parametrize("through_profile", [False, True])
    def test_step_count_overflow_refused(self, h, through_profile):
        # 2 / h is inf: no step count exists to round
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as ei:
                build_grid(h, through_profile)
        assert str(ei.value) == f"step {h} is too small for the horizon 2.0"

    @pytest.mark.parametrize("T,h,message", [
        (1e308, 0.5, "the horizon 1e+308 over steps of 0.5 overflows a float"),
        (1e308, 1e307,
         "the horizon 1e+308 over 10 steps overflows a float"),
        (1e300, 1e-10, "step 1e-10 is too small for the horizon 1e+300"),
    ])
    def test_overflowing_horizon_named(self, T, h, message):
        # the grid's nodes, not the step, overflow a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as ei:
                grid_for_step(ode_problem(0.0, 1.0, T), h)
        assert str(ei.value) == message

    @pytest.mark.parametrize("h,through_profile,count", [
        (1e-300, False, "2e+300"), (1e-300, True, "2e+300"),
        (1e-9, False, "2e+09"), (1e-9, True, "2e+09"),
        (1.9e-7, False, "1.05263e+07"),
    ])
    def test_step_count_limit(self, monkeypatch, h, through_profile, count):
        # refused before a single node is built
        monkeypatch.setattr(TimeGrid, "uniform",
                            lambda *args: pytest.fail("grid built"))
        with pytest.raises(ValueError) as ei:
            build_grid(h, through_profile)
        assert str(ei.value) == (f"step {h} on the horizon 2.0 asks for "
                                 f"{count} steps, above the limit 10000000")


def fresh_block_moments(scheme, problem, grid, f, eval_times, M, seed,
                        chunk_size):
    """(count, mean, M2) of mc_expectations_at as first written: each chunk
    fills a fresh values array and squares fresh deviation temporaries, and
    the chunks are folded by _combine in ascending order."""
    eval_points = [grid.locate(t) for t in eval_times]
    step_weights = scheme.dense_weights(1.0)
    by_step = {}
    for idx, (n, theta) in enumerate(eval_points):
        by_step.setdefault(n, []).append(
            (idx, theta, scheme.dense_weights(theta)))

    def chunk(start):
        count = min(chunk_size, M - start)
        paths = KeyedPaths(seed,
                           np.arange(start, start + count, dtype=np.uint64))
        vals = np.empty((len(eval_points), count))
        for n, cache, y in _path_steps(scheme, problem, grid, seed, paths,
                                       max(by_step) + 1, step_weights):
            for idx, theta, weights in by_step.get(n, ()):
                v = y if theta == 1.0 else evaluate_dense(cache, weights)
                vals[idx] = f(v)
        mean = vals.mean(axis=1)
        return count, mean, ((vals - mean[:, None]) ** 2).sum(axis=1)

    return functools.reduce(_combine, map(chunk, range(0, M, chunk_size)))


class TestMonteCarlo:
    @pytest.mark.parametrize("threads", (1, 2, 3))
    @pytest.mark.parametrize("problem,f,times", [
        (LIN, FX, [1.3, 0.5, 2.0, 0.1, 1.75]),
        (system2d_problem(), FX2, [3.8, 0.3, 2.0, 1.1]),
    ], ids=("linear", "system2d"))
    def test_reused_block_matches_fresh_arrays(self, monkeypatch, threads,
                                               problem, f, times):
        # the last chunk is partial: its reductions run over fewer paths
        chunk = 256
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        M, seed, t = 3 * chunk + 17, 4, builtin_scheme("CRDI3WM")
        grid = grid_for_step(problem, 0.5)
        assert any(grid.locate(x)[1] < 1.0 for x in times)
        n, mean, m2 = fresh_block_moments(t, problem, grid, f, times, M,
                                          seed, chunk)
        # frequent thread switches: values shared between workers would
        # mix their chunks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ests = mc_expectations_at(t, problem, grid, f, times, M, seed,
                                      threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert [e.samples for e in ests] == [n] * len(times)
        got = np.array([e.mean for e in ests])
        assert got.tobytes() == mean.tobytes()
        got = np.array([e.variance_of_mean for e in ests])
        assert got.tobytes() == (m2 / (n - 1) / n).tobytes()

    def test_block_sized_by_the_paths_run(self, monkeypatch):
        # values sized by the chunk, not the paths run, would take 8 GB per
        # eval point
        grid = grid_for_step(LIN, 0.25)
        t, times = builtin_scheme("CRDI3WM"), [0.25 * k for k in range(1, 9)]
        monkeypatch.setattr(csrk.stats, "_CHUNK", 10**9)
        tracemalloc.start()
        try:
            huge = mc_expectations_at(t, LIN, grid, FX, times, 100, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values of 100 paths take 800 bytes per eval point
        assert peak < 10**6
        monkeypatch.setattr(csrk.stats, "_CHUNK", 100)
        assert huge == mc_expectations_at(t, LIN, grid, FX, times, 100, 2)

    def test_one_step_cache_alive(self, monkeypatch):
        # a chunk takes step n + 1 with step n's cache gone, with eval
        # points at theta < 1 and at theta = 1; a chunk's last cache is gone
        # before the next chunk's first step
        caches, alive = [], []

        def recording(*args):
            alive.append(sum(r() is not None for r in caches))
            cache = compute_step_arrays(*args)
            caches.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", recording)
        monkeypatch.setattr(csrk.stats, "_CHUNK", 64)
        t, grid = builtin_scheme("CRDI3WM"), grid_for_step(LIN, 0.25)
        mc_expectations_at(t, LIN, grid, FX, [0.3, 0.5, 2.0], 3 * 64, 2)
        assert len(alive) == 3 * 8
        assert alive == [0] * len(alive)

    def test_bit_identical_across_thread_counts(self):
        grid = grid_for_step(LIN, 0.25)
        kw = dict(M=30000, seed=5, confidence=0.9)
        t = builtin_scheme("CRDI2WM")
        e1 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=1)
        e2 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=3)
        e3 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=8)
        assert e1.mean == e2.mean == e3.mean
        assert e1.variance_of_mean == e2.variance_of_mean == e3.variance_of_mean

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        grid, t = grid_for_step(LIN, 0.25), builtin_scheme("CRDI2WM")
        kw = dict(M=30000, seed=5, confidence=0.9)
        e1 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool on one usable CPU")

        # one CPU: the chunks run inline, as on one thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        e8 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=8)
        assert (e8.mean, e8.variance_of_mean) == (e1.mean, e1.variance_of_mean)

    def test_same_seed_bit_identical(self):
        grid = grid_for_step(LIN, 0.5)
        t = builtin_scheme("CRDI3WM")
        a = mc_expectation(t, LIN, grid, FX, 1.7, 5000, 9)
        b = mc_expectation(t, LIN, grid, FX, 1.7, 5000, 9)
        assert a == b

    def test_chunk_partition_changes_nothing_but_order(self, monkeypatch):
        # M not a multiple of the chunk size still uses every path once
        grid = grid_for_step(LIN, 0.5)
        t = builtin_scheme("CRDI2WM")
        monkeypatch.setattr(csrk.stats, "_CHUNK", 1024)
        est = mc_expectation(t, LIN, grid, FX, 2.0, 5000, 1)
        assert est.samples == 5000
        monkeypatch.setattr(csrk.stats, "_CHUNK", 617)
        est_small = mc_expectation(t, LIN, grid, FX, 2.0, 5000, 1)
        # same paths, same draws; only the reduction grouping differs
        assert est_small.mean == pytest.approx(est.mean, rel=1e-12)

    def test_zero_diffusion_zero_variance(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        grid = grid_for_step(ode, 0.25)
        t = builtin_scheme("CRDI3WM")
        est = mc_expectation(t, ode, grid, FX, 1.0, 1000, 0)
        # identical paths; only mean-summation rounding can leak in
        assert est.variance_of_mean <= 1e-30
        assert est.half_width <= 1e-14

    def test_m_too_small(self):
        grid = grid_for_step(LIN, 0.5)
        with pytest.raises(ValueError):
            mc_expectation(builtin_scheme("EULER_OPT"), LIN, grid, FX, 2.0, 1, 0)

    def test_no_eval_times(self):
        grid = grid_for_step(LIN, 0.5)
        with pytest.raises(ValueError, match="at least one evaluation time"):
            mc_expectations_at(builtin_scheme("EULER_OPT"), LIN, grid, FX, [],
                               100, 0)

    def test_dense_weights_built_once_per_run(self, monkeypatch):
        # one build at theta = 1 and one per eval point, however many chunks
        # and steps the run has
        t = builtin_scheme("CRDI3WM")
        built = []
        build = CsrkTableau.dense_weights

        def counting(self, theta):
            built.append(theta)
            return build(self, theta)

        monkeypatch.setattr(CsrkTableau, "dense_weights", counting)
        monkeypatch.setattr(csrk.stats, "_CHUNK", 1000)
        grid = grid_for_step(LIN, 0.25)
        mc_expectations_at(t, LIN, grid, FX, [0.3, 1.0, 1.7, 2.0], 5000, 3)
        assert built == [1.0] + [grid.locate(x)[1]
                                 for x in (0.3, 1.0, 1.7, 2.0)]
        built.clear()
        exact_weak_expectation(t, LIN, TimeGrid.uniform(0.0, 1.0, 3), FX,
                               theta_eval=0.5)
        assert built == [1.0, 0.5]

    @pytest.mark.parametrize("run", ["mc_expectation", "exact"])
    def test_component_the_state_lacks_refused_before_any_step(
            self, monkeypatch, run):
        # NumPy's IndexError inside a chunk before
        monkeypatch.setattr(csrk.stats, "compute_step_arrays",
                            lambda *args: pytest.fail("stepped"))
        problem, f = system2d_problem(), Functional("identity", 5)
        grid = TimeGrid.uniform(0.0, 4.0, 2)
        with pytest.raises(ValueError) as ei:
            if run == "exact":
                exact_weak_expectation(builtin_scheme("CRDI2WM"), problem,
                                       grid, f)
            else:
                mc_expectation(builtin_scheme("CRDI2WM"), problem, grid, f,
                               4.0, 100, 0)
        assert str(ei.value) == ("functional x6 reads component 5, but "
                                 "system2d has a state of dimension 2")

    def test_multiple_times_share_paths(self):
        grid = grid_for_step(LIN, 0.5)
        t = builtin_scheme("CRDI2WM")
        ests = mc_expectations_at(t, LIN, grid, FX, [0.7, 1.7, 2.0], 4000, 3)
        singles = [
            mc_expectation(t, LIN, grid, FX, tv, 4000, 3)
            for tv in (0.7, 1.7, 2.0)
        ]
        for joint, single in zip(ests, singles):
            assert joint.mean == single.mean


# finite drift and diffusion whose weighted sum overflows where dW != 0:
# only the check of the new states sees it
OVERFLOWS = SdeProblem(
    dim_state=1, dim_noise=1,
    drift=lambda t, x: 0.0 * x,
    diffusion=lambda t, x: np.full(x.shape + (1,), 1.5e308),
    x0=[0.0], t0=0.0, T=1.0, label="overflow",
)

# x0 (1 + dW) stays finite, but its square overflows where dW > 0
SQUARE_OVERFLOWS = SdeProblem(
    dim_state=1, dim_noise=1,
    drift=lambda t, x: 0.0 * x,
    diffusion=lambda t, x: x[..., :, None],
    x0=[1.2e154], t0=0.0, T=0.5, label="square-overflows",
)

# drift overflows once a stage value passes 8: a few paths of seed 3 blow up
BLOWS_UP = SdeProblem(
    dim_state=1, dim_noise=1,
    drift=lambda t, x: np.where(x > 8.0, np.inf, 0.5 * x),
    diffusion=lambda t, x: x[..., :, None],
    x0=[1.0], t0=0.0, T=1.0, label="blows-up",
)


class TestBlowup:
    @pytest.mark.parametrize("threads", (1, 2))
    def test_mc_names_first_failing_path(self, monkeypatch, threads):
        t = builtin_scheme("CRDI2WM")
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        M, chunk, seed = 256, 64, 3
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        failures = []
        for p in range(M):
            try:
                simulate_path(t, BLOWS_UP, grid, seed, p)
            except BlowupError as exc:
                failures.append((p // chunk, exc.step, p))
        # chunks run in order; within one, the earliest step, then lowest path
        _, step, path = min(failures)
        assert path >= chunk  # the failing chunk does not start at path 0
        with pytest.raises(BlowupError) as ei:
            mc_expectation(t, BLOWS_UP, grid, FX, 1.0, M, seed,
                           threads=threads)
        assert (ei.value.step, ei.value.path) == (step, path)

    def test_overflowing_state_names_first_path(self, monkeypatch):
        M, chunk, seed = 256, 64, 3
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        dW, _ = sample_batch(1, 0.5, seed, np.arange(M, dtype=np.uint64), 0)
        first = int(np.argmax(dW[:, 0] != 0.0))
        with np.errstate(over="ignore"), pytest.raises(BlowupError) as ei:
            mc_expectation(builtin_scheme("EULER_OPT"), OVERFLOWS,
                           TimeGrid.uniform(0.0, 1.0, 2), FX, 1.0, M, seed)
        assert (ei.value.step, ei.value.path) == (0, first)

    def test_simulate_names_its_path_and_step(self):
        seed = 3
        dW, _ = sample_batch(1, 0.5, seed, np.arange(64, dtype=np.uint64), 0)
        overflowing = [int(p) for p in np.flatnonzero(dW[:, 0] != 0.0)[:3]]
        assert len(overflowing) == 3 and overflowing[-1] > 1
        for path in overflowing:
            # a state that overflows in step 0 is reported there, not as
            # the non-finite drift of step 1 it leads to
            with np.errstate(over="ignore"), \
                    pytest.raises(BlowupError) as ei:
                simulate_path(builtin_scheme("EULER_OPT"), OVERFLOWS,
                              TimeGrid.uniform(0.0, 1.0, 2), seed, path)
            assert (ei.value.step, ei.value.path) == (0, path)
            assert str(ei.value) == f"path {path} blew up at step 0"

    @pytest.mark.parametrize("path", [0, 9])
    def test_simulate_names_the_path_of_a_drift_blowup(self, path):
        late = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: np.where(t < 0.4, x, np.inf * x),
            diffusion=lambda t, x: x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="late-blowup",
        )
        with pytest.raises(BlowupError) as ei:
            simulate_path(builtin_scheme("EULER_OPT"), late,
                          TimeGrid.uniform(0.0, 1.0, 5), 4, path)
        assert (ei.value.step, ei.value.path) == (2, path)
        assert (ei.value.family, ei.value.stage) == ("drift", 0)
        assert str(ei.value) == (f"path {path} blew up at step 2: non-finite "
                                 "drift value at t=0.4, stage 1")

    def test_enumeration_carries_step(self):
        late = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: np.where(t < 0.4, x, np.inf * x),
            diffusion=lambda t, x: 0.0 * x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="late-blowup",
        )
        with pytest.raises(BlowupError) as ei:
            exact_weak_expectation(builtin_scheme("EULER_OPT"), late,
                                   TimeGrid.uniform(0.0, 1.0, 5), FX)
        assert ei.value.step == 2
        # a row of an enumerated level is not a path
        assert ei.value.path is None
        assert str(ei.value) == ("enumeration blew up at step 2: non-finite "
                                 "drift value at t=0.4, stage 1")

    @pytest.mark.parametrize("threads", (1, 2))
    def test_mc_names_first_non_finite_f_value(self, monkeypatch, threads):
        M, chunk, seed = 256, 64, 3
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        dW, _ = sample_batch(1, 0.5, seed, np.arange(M, dtype=np.uint64), 0)
        first = int(np.argmax(dW[:, 0] > 0.0))
        assert first > 0
        # np.errstate would not reach the pool's threads
        with warnings.catch_warnings(), pytest.raises(BlowupError) as ei:
            warnings.simplefilter("ignore", RuntimeWarning)
            mc_expectation(builtin_scheme("EULER_OPT"), SQUARE_OVERFLOWS,
                           TimeGrid.uniform(0.0, 0.5, 1), FX2, 0.5, M, seed,
                           threads=threads)
        assert (ei.value.step, ei.value.path) == (0, first)
        assert str(ei.value) == (f"path {first} blew up at step 0: "
                                 "non-finite f value at t=0.5")

    @pytest.mark.parametrize("threads", (1, 2))
    def test_non_finite_f_value_in_a_later_chunk(self, monkeypatch, threads):
        # chunks 0 and 1 reduce their values before chunk 2's first path
        # fails
        M, chunk, seed = 40, 4, 11
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        dW, _ = sample_batch(1, 0.5, seed, np.arange(M, dtype=np.uint64), 0)
        first = int(np.argmax(dW[:, 0] > 0.0))
        assert first // chunk == 2
        with warnings.catch_warnings(), pytest.raises(BlowupError) as ei:
            warnings.simplefilter("ignore", RuntimeWarning)
            mc_expectations_at(builtin_scheme("EULER_OPT"), SQUARE_OVERFLOWS,
                               TimeGrid.uniform(0.0, 0.5, 1), FX2,
                               [0.5, 0.25], M, seed, threads=threads)
        assert (ei.value.step, ei.value.path) == (0, first)
        assert str(ei.value) == (f"path {first} blew up at step 0: "
                                 "non-finite f value at t=0.5")

    @pytest.mark.parametrize("threads", (1, 2))
    def test_non_finite_f_values_name_the_lowest_eval_index(self,
                                                            monkeypatch,
                                                            threads):
        # eval index 0 is t = 0.5 (step 1), index 1 is t = 0.2 (step 0);
        # both fail in chunk 0, index 1 on an earlier step and path
        M, chunk, seed = 64, 16, 2
        monkeypatch.setattr(csrk.stats, "_CHUNK", chunk)
        t, grid = builtin_scheme("EULER_OPT"), TimeGrid.uniform(0.0, 0.5, 2)
        assert [grid.locate(x)[0] for x in (0.5, 0.2)] == [1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            paths = [simulate_path(t, SQUARE_OVERFLOWS, grid, seed, p)
                     for p in range(chunk)]
            first = [next(p for p in range(chunk)
                          if not np.isfinite(FX2(paths[p].value(x))).all())
                     for x in (0.5, 0.2)]
        assert first[1] < first[0]
        with warnings.catch_warnings(), pytest.raises(BlowupError) as ei:
            warnings.simplefilter("ignore", RuntimeWarning)
            mc_expectations_at(t, SQUARE_OVERFLOWS, grid, FX2, [0.5, 0.2],
                               M, seed, threads=threads)
        assert (ei.value.t_n, ei.value.step, ei.value.path) == (
            0.5, 1, first[0])
        assert str(ei.value) == (f"path {first[0]} blew up at step 1: "
                                 "non-finite f value at t=0.5")

    def test_enumeration_refuses_a_non_finite_expectation(self):
        with np.errstate(over="ignore"), pytest.raises(BlowupError) as ei:
            exact_weak_expectation(builtin_scheme("EULER_OPT"),
                                   SQUARE_OVERFLOWS,
                                   TimeGrid.uniform(0.0, 0.5, 2), FX2,
                                   theta_eval=0.5)
        assert (ei.value.step, ei.value.path) == (1, None)
        assert str(ei.value) == ("enumeration blew up at step 1: non-finite "
                                 "expectation value at t=0.375")


def listed_expectation(scheme, problem, grid, f, theta_eval=1.0):
    """The enumeration loop as first written: each level gathered from
    per-slice lists of states and copied probabilities, then concatenated."""
    m, N = problem.dim_noise, grid.n_steps
    states = problem.x0[None, :].copy()
    probs = np.array([1.0])
    step_weights = scheme.dense_weights(1.0)
    for n in range(N):
        outs = enumerate_outcomes(m, grid.step(n)[1])
        final = n == N - 1
        weights = scheme.dense_weights(theta_eval) if final else step_weights
        new_states, new_probs, total = [], [], 0.0
        for dW, V, p in zip(*outs):
            for lo in range(0, states.shape[0], csrk.stats._ENUM_SLICE):
                sl = slice(lo, lo + csrk.stats._ENUM_SLICE)
                y = _advance(scheme, problem, grid, n, states[sl], dW, V,
                             weights)[1]
                if final:
                    total += p * float(probs[sl] @ f(y))
                else:
                    new_states.append(y)
                    new_probs.append(p * probs[sl])
        if final:
            return float(total)
        states = np.concatenate(new_states)
        probs = np.concatenate(new_probs)


def per_path_expectation(scheme, problem, grid, f, theta_eval):
    """E f(Y) summed over every outcome sequence, one path at a time."""
    m, N = problem.dim_noise, grid.n_steps
    laws = [list(zip(*enumerate_outcomes(m, grid.step(n)[1])))
            for n in range(N)]
    total = 0.0
    for seq in itertools.product(*laws):
        y, prob = problem.x0, 1.0
        for n, (dW, V, p) in enumerate(seq):
            t_n, h_n = grid.step(n)
            cache = compute_step_arrays(scheme, problem, t_n, y, h_n, dW, V)
            y = evaluate_dense(cache, scheme.dense_weights(
                theta_eval if n == N - 1 else 1.0))
            prob *= p
        total += prob * float(f(y))
    return total


class TestSimulateIsMonteCarloPath:
    """simulate_path(seed, p) is row p of a Monte Carlo batch of seed."""

    @pytest.mark.parametrize("name", scheme_names())
    @pytest.mark.parametrize("problem", [LIN, system2d_problem()],
                             ids=["linear", "system2d"])
    def test_nodes_are_batch_rows(self, name, problem):
        scheme = builtin_scheme(name)
        grid = TimeGrid.uniform(problem.t0, problem.T, 5)  # h * x rounds
        seed, start, count = 5, 60, 8
        paths = KeyedPaths(seed,
                           np.arange(start, start + count, dtype=np.uint64))
        rows = [y for _, _, y in _path_steps(
            scheme, problem, grid, seed, paths, grid.n_steps,
            scheme.dense_weights(1.0))]
        for p in range(start, start + count):
            nodes = simulate_path(scheme, problem, grid, seed, p).nodes
            for n, batch in enumerate(rows):
                assert (nodes[n + 1] == batch[p - start]).all()

    @pytest.mark.parametrize("path", [1.5, -1, 2**64, np.int64(-1)],
                             ids=["float", "negative", "2^64", "int64"])
    def test_path_outside_the_streams_refused(self, path):
        # np.uint64 would take 1.5 as path 1 and overflow on the others
        with pytest.raises(ValueError) as ei:
            simulate_path(builtin_scheme("CRDI2WM"), LIN,
                          TimeGrid.uniform(0.0, 2.0, 4), 0, path)
        assert str(ei.value) == ("path must be an integer in [0, 2**64), "
                                 f"got {path}")


class TestExactExpectation:
    @pytest.mark.parametrize("theta", (1.0, 0.5))
    @pytest.mark.parametrize("name,problem,N,f", [
        ("CRDI3WM", LIN, 3, FX2),
        # the second component is driven by the first, so the steps' moment
        # maps do not commute and the step order matters
        ("CRDI2WM", system2d_problem(), 2, Functional("square", 1)),
    ], ids=["CRDI3WM-linear", "CRDI2WM-system2d"])
    def test_matches_per_path_enumeration(self, name, problem, N, f, theta):
        t = builtin_scheme(name)
        grid = TimeGrid.uniform(problem.t0, problem.T, N)
        got = exact_weak_expectation(t, problem, grid, f, theta_eval=theta)
        want = per_path_expectation(t, problem, grid, f, theta)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("slice_rows", (1, 3, 5, 7))
    @pytest.mark.parametrize("theta", (1.0, 0.3))
    @pytest.mark.parametrize("name,problem,n_max,f", [
        ("CRDI3WM", LIN, 6, FX2),
        ("CRDI2WM", system2d_problem(), 3, Functional("square", 1)),
    ], ids=["CRDI3WM-linear", "CRDI2WM-system2d"])
    def test_bit_identical_to_listed_levels(self, monkeypatch, slice_rows,
                                            theta, name, problem, n_max, f):
        # outcome blocks have 3^j or 18^j rows: slices of 1 or 3 rows write
        # each outcome's rows into whole row blocks, slices of 5 or 7 rows
        # straddle two blocks and span outcome blocks
        monkeypatch.setattr(csrk.stats, "_ENUM_SLICE", slice_rows)
        t = builtin_scheme(name)
        for N in range(1, n_max + 1):
            grid = TimeGrid.uniform(problem.t0, problem.T, N)
            got = exact_weak_expectation(t, problem, grid, f, theta_eval=theta)
            assert got == listed_expectation(t, problem, grid, f, theta), N

    @pytest.mark.parametrize("theta", (1.0, 0.3))
    @pytest.mark.parametrize("problem,N", [(LIN, 8), (system2d_problem(), 3)],
                             ids=["linear", "system2d"])
    def test_row_tiles_change_no_bit(self, monkeypatch, problem, N, theta):
        # tiles of 1 and 7 rows split every slice of a level; 2^15 rows is
        # one pass per slice.  The slice moves the bits of the final
        # reduction (ROADMAP item 3), the tile none.
        t = builtin_scheme("CRDI3WM")
        grid = TimeGrid.uniform(problem.t0, problem.T, N)
        for slice_rows in (5, 1 << 20):
            monkeypatch.setattr(csrk.stats, "_ENUM_SLICE", slice_rows)
            got = set()
            for tile in (1, 7, 1 << 15):
                monkeypatch.setattr(csrk.integrator, "_TILE", tile)
                got.add(exact_weak_expectation(t, problem, grid, FX2,
                                               theta_eval=theta).hex())
            assert len(got) == 1, (slice_rows, got)

    def test_peak_memory_below_listed_levels(self, monkeypatch):
        slice_rows, N = 2048, 12
        monkeypatch.setattr(csrk.stats, "_ENUM_SLICE", slice_rows)
        t, grid = builtin_scheme("CRDI3WM"), TimeGrid.uniform(0.0, 2.0, N)

        def traced(expectation):
            tracemalloc.start()
            try:
                value = expectation(t, LIN, grid, FX2)
                return value, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        got, peak = traced(exact_weak_expectation)
        want, listed_peak = traced(listed_expectation)
        assert got == want
        # the largest stored level (level N-1, 3^(N-1) states of d = 1), the
        # probabilities of the largest level of at most one slice of rows
        # (level 6, 729 rows), and 20 slices for a step's temporaries and
        # the blocks in flight; the levels N-2 and N-1 held at once with
        # level N-2's probabilities, as stored before, take about 60
        formed = max(3**j for j in range(N) if 3**j <= slice_rows)
        level, probs, one_slice = 8 * 3**(N - 1), 8 * formed, 8 * slice_rows
        assert peak <= level + probs + 20 * one_slice, (peak, level)
        assert peak <= 0.35 * listed_peak, (peak, listed_peak)

    @pytest.mark.parametrize("slice_rows", (2, 5))
    @pytest.mark.parametrize("problem,N", [(LIN, 5), (system2d_problem(), 3)],
                             ids=["linear", "system2d"])
    def test_steps_run_in_level_order(self, monkeypatch, slice_rows, problem,
                                      N):
        # perfbench/spans.py derives stats.enum.rows_peak from these runs:
        # it takes the calls of one step to be one run, in call order, and
        # their rows to add up to the next level
        monkeypatch.setattr(csrk.stats, "_ENUM_SLICE", slice_rows)
        calls = []

        def spy(*args):
            calls.append(args)
            return compute_step_arrays(*args)

        monkeypatch.setattr(csrk.stats, "compute_step_arrays", spy)
        grid = TimeGrid.uniform(problem.t0, problem.T, N)
        exact_weak_expectation(builtin_scheme("CRDI3WM"), problem, grid, FX)
        starts = [grid.step(n)[0] for n in range(N)]
        steps = [starts.index(args[2]) for args in calls]
        assert steps == sorted(steps)
        K = outcome_count(problem.dim_noise)
        for n in range(N):
            rows = sum(args[3].shape[0]
                       for args, s in zip(calls, steps) if s == n)
            assert rows == K * K**n, n

    def test_blowup_in_a_level_of_several_slices(self, monkeypatch):
        # from t = 0.4 states of 1.5 or more blow up: the 9 states of level
        # 2 are read in five 2-row slices, and rows 5, 7 and 8 fail, so the
        # first failing slice is the third
        monkeypatch.setattr(csrk.stats, "_ENUM_SLICE", 2)
        late = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: np.where((t < 0.4) | (x < 1.5), x,
                                        np.inf * x),
            diffusion=lambda t, x: 0.1 * x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="late-blowup",
        )
        with pytest.raises(BlowupError) as ei:
            exact_weak_expectation(builtin_scheme("EULER_OPT"), late,
                                   TimeGrid.uniform(0.0, 1.0, 5), FX)
        assert (ei.value.step, ei.value.path) == (2, None)
        assert str(ei.value) == ("enumeration blew up at step 2: non-finite "
                                 "drift value at t=0.4, stage 1")

    def test_one_step_euler_by_hand(self):
        # E[x0 (1 + a h + b dW)] = x0 (1 + a h)
        g = TimeGrid.uniform(0.0, 0.25, 1)
        val = exact_weak_expectation(
            builtin_scheme("EULER_LINEAR"), LIN, g, FX
        )
        assert val == pytest.approx(0.1 * (1 + 1.5 * 0.25), rel=1e-14)

    def test_capacity_error(self):
        g = TimeGrid.uniform(0.0, 2.0, 20)
        with pytest.raises(CapacityError, match="mc_expectation"):
            exact_weak_expectation(
                builtin_scheme("CRDI2WM"), LIN, g, FX, outcome_cap=1000
            )

    @pytest.mark.parametrize("m,n_steps,cap,refused", [
        (1, 6, 3**6, False),
        (1, 6, 3**6 - 1, True),
        (2, 2, 18**2, False),
        (2, 3, 18**2, True),
        (1, 1, 3, False),
        (1, 10**23, 5 * 10**7, True),
    ])
    def test_outcome_count(self, m, n_steps, cap, refused):
        if refused:
            with pytest.raises(CapacityError, match="--outcome-cap"):
                check_outcome_count(m, n_steps, cap)
        else:
            check_outcome_count(m, n_steps, cap)

    def test_matches_mc_within_5_sigma_over_20_seeds(self):
        g = TimeGrid.uniform(0.0, 2.0, 4)
        t = builtin_scheme("CRDI2WM")
        exact = exact_weak_expectation(t, LIN, g, FX2)
        for seed in range(20):
            est = mc_expectation(t, LIN, g, FX2, 2.0, 40000, seed)
            sigma = math.sqrt(est.variance_of_mean)
            assert abs(est.mean - exact) <= 5 * sigma, f"seed {seed}"

    def test_theta_eval_on_final_step(self):
        t = builtin_scheme("CRDI3WM")
        g = TimeGrid.uniform(0.0, 1.0, 2)
        full = exact_weak_expectation(t, LIN, g, FX, theta_eval=1.0)
        mid = exact_weak_expectation(t, LIN, g, FX, theta_eval=0.5)
        assert mid != full
        # theta = 0 discards the final step entirely
        left = exact_weak_expectation(t, LIN, g, FX, theta_eval=0.0)
        one = exact_weak_expectation(t, LIN, TimeGrid.uniform(0, 0.5, 1), FX)
        assert left == pytest.approx(one, rel=1e-14)

    @pytest.mark.parametrize("theta", [1.5, -0.5, math.nan])
    def test_theta_eval_refused_by_the_weights_before_any_step(
            self, monkeypatch, theta):
        monkeypatch.setattr(csrk.stats, "compute_step_arrays",
                            lambda *args: pytest.fail("stepped"))
        with pytest.raises(ValueError) as ei:
            exact_weak_expectation(builtin_scheme("CRDI3WM"), LIN,
                                   TimeGrid.uniform(0.0, 1.0, 2), FX,
                                   theta_eval=theta)
        assert str(ei.value) == f"theta must lie in [0, 1], got {theta}"

    def test_system2d_enumeration_runs(self):
        t = builtin_scheme("CRDI4WM")
        g = TimeGrid.uniform(0.0, 4.0, 2)
        val = exact_weak_expectation(t, system2d_problem(), g, FX2,
                                     outcome_cap=10**4)
        assert np.isfinite(val)


class TestOrderEstimation:
    def test_synthetic_power_law(self):
        pairs = [(h, 3.0 * h**2) for h in (0.5, 0.25, 0.125, 0.0625)]
        est = empirical_order(pairs)
        assert est.slope == pytest.approx(2.0, abs=1e-12)
        assert est.intercept == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_published_digits_linear(self):
        pairs = [
            (2**-1, -2.188e-2), (2**-2, -3.965e-3),
            (2**-3, -5.662e-4), (2**-4, -8.682e-5),
        ]
        assert empirical_order(pairs).slope == pytest.approx(2.66, abs=0.02)

    def test_published_digits_system2d(self):
        pairs = [
            (2.0, -1.031e-2), (1.0, -2.161e-3),
            (0.5, -4.258e-4), (0.25, -9.392e-5),
        ]
        assert empirical_order(pairs).slope == pytest.approx(2.26, abs=0.02)

    def test_logs_are_math_log2(self):
        # NumPy's AVX-512 log2 loop rounds each of these errors 1 ulp away
        # from math.log2, which moves the slope and the intercept
        pairs = [(0.5, 0.45261136773356764), (0.25, -0.39354872813983033),
                 (0.125, 0.07147570439737935)]
        x = np.array([math.log2(h) for h, _ in pairs])
        y = np.array([math.log2(abs(e)) for _, e in pairs])
        x_mean, y_mean = np.add.reduce(x) / 3, np.add.reduce(y) / 3
        dx = x - x_mean
        slope = np.add.reduce(dx * (y - y_mean)) / np.add.reduce(dx * dx)
        est = empirical_order(pairs)
        assert est.slope.hex() == float(slope).hex()
        assert est.intercept.hex() == float(y_mean - slope * x_mean).hex()

    def test_zero_errors_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="zero error"):
            est = empirical_order([(0.5, 0.0), (0.25, 1e-3), (0.125, 2.5e-4)])
        assert est.slope == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("err", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_refused(self, err):
        # refused before the fit, which would give a nan slope, and for
        # inf a RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as ei:
                empirical_order([(0.5, 1e-3), (0.25, err),
                                 (0.125, 2.5e-4)])
        assert str(ei.value) == f"error at h=0.25 must be finite, got {err}"

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            empirical_order([(0.5, 1e-3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                empirical_order([(0.5, 0.0), (0.25, 0.0)])

    def test_needs_two_distinct_steps(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before the fit
            with pytest.raises(ValueError) as ei:
                empirical_order([(0.25, 1e-3), (0.25, 2e-3)])
        assert str(ei.value) == ("order estimation needs nonzero errors at 2 "
                                 "or more distinct step sizes, got "
                                 "[0.25, 0.25]")
        # the only other step size has a zero error, which is dropped
        with pytest.warns(UserWarning, match="zero error"), \
                pytest.raises(ValueError, match=r"got \[0.5, 0.5\]"):
            empirical_order([(0.5, 1e-3), (0.25, 0.0), (0.5, 3e-3)])


class TestErrorTable:
    def test_rows_against_reference(self):
        t = builtin_scheme("CRDI2WM")
        recs = error_table(t, LIN, LIN.reference_for(FX), 2.0, [0.5, 0.25],
                           20000, 4)
        assert [r.h for r in recs] == [0.5, 0.25]
        for r in recs:
            assert r.ci_low == r.mean_error - r.half_width
            assert r.ci_high == r.mean_error + r.half_width
        assert abs(recs[1].mean_error) < abs(recs[0].mean_error)

    def test_provenance_selector(self):
        t = builtin_scheme("CRDI2WM")
        sys2 = system2d_problem()
        refs = [sys2.reference_for(FX2),
                sys2.reference_for(FX2, "paper_stated")]
        derived, stated = [error_table(t, sys2, ref, 4.0, [1.0], 2000, 0)
                           for ref in refs]
        diff = math.exp(-4.0) - math.exp(-271 / 256 * 4.0)
        assert derived[0].mean_error - stated[0].mean_error == pytest.approx(
            diff, rel=1e-12
        )
        est = mc_expectation(t, sys2, grid_for_step(sys2, 1.0), FX2, 4.0,
                             2000, 0)
        for ref, rows in zip(refs, (derived, stated)):
            assert rows[0].mean_error == est.mean - ref.value(4.0)
            assert rows[0].variance_of_mean == est.variance_of_mean

    @pytest.mark.parametrize("h_list", ([], np.array([])))
    def test_no_step_sizes(self, h_list):
        with pytest.raises(ValueError, match="at least one step size"):
            error_table(builtin_scheme("EULER_OPT"), LIN, LIN.reference_for(FX),
                        2.0, h_list, 100, 0)


class TestDenseProfile:
    def test_zero_diffusion_profile_deterministic(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        t, ref = builtin_scheme("CRDI3WM"), ode.reference_for(FX)
        rows_small = dense_error_profile(t, ode, ref, 0.25, [0.5], 100, 0)
        rows_big = dense_error_profile(t, ode, ref, 0.25, [0.5], 1000, 7)
        for (ta, tha, ra), (tb, thb, rb) in zip(rows_small, rows_big):
            assert (ta, tha) == (tb, thb)
            assert ra.mean_error == pytest.approx(rb.mean_error, rel=1e-12)
            assert ra.variance_of_mean <= 1e-30

    def test_profile_layout(self):
        t = builtin_scheme("CRDI2WM")
        rows = dense_error_profile(t, LIN, LIN.reference_for(FX), 0.5,
                                   [0.25, 0.75], 500, 0)
        assert len(rows) == 4 * 2
        times = [r[0] for r in rows]
        assert times[0] == pytest.approx(0.125)
        assert times[-1] == pytest.approx(1.875)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            dense_error_profile(
                builtin_scheme("CRDI2WM"), LIN, LIN.reference_for(FX), 0.5,
                [1.0], 100, 0
            )
