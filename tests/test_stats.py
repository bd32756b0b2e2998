import itertools
import math
import warnings

import numpy as np
import pytest

from csrk.increments import CapacityError, enumerate_outcomes, sample_batch
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
from csrk.streams import PathStream
from csrk.stats import (
    ErrorRecord,
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
from csrk.tableau import CsrkTableau, builtin_scheme

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


class TestGridForStep:
    def test_divisible(self):
        g = grid_for_step(LIN, 0.25)
        assert g.n_steps == 8 and g.T == 2.0

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="allow_shortened"):
            grid_for_step(LIN, 0.3)

    def test_shortened_final_step(self):
        g = grid_for_step(LIN, 0.3, allow_shortened=True)
        assert g.T == 2.0
        assert g.step(g.n_steps - 1)[1] == pytest.approx(0.2)

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("allow_shortened", [False, True])
    def test_bad_step_refused(self, h, allow_shortened):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before dividing
            with pytest.raises(ValueError, match="positive and finite"):
                grid_for_step(LIN, h, allow_shortened)


class TestMonteCarlo:
    def test_bit_identical_across_thread_counts(self):
        grid = grid_for_step(LIN, 0.25)
        kw = dict(M=30000, seed=5, confidence=0.9)
        t = builtin_scheme("CRDI2WM")
        e1 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=1)
        e2 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=3)
        e3 = mc_expectation(t, LIN, grid, FX, 2.0, **kw, threads=8)
        assert e1.mean == e2.mean == e3.mean
        assert e1.variance_of_mean == e2.variance_of_mean == e3.variance_of_mean

    def test_same_seed_bit_identical(self):
        grid = grid_for_step(LIN, 0.5)
        t = builtin_scheme("CRDI3WM")
        a = mc_expectation(t, LIN, grid, FX, 1.7, 5000, 9)
        b = mc_expectation(t, LIN, grid, FX, 1.7, 5000, 9)
        assert a == b

    def test_chunk_partition_changes_nothing_but_order(self):
        # M not a multiple of the chunk size still uses every path once
        grid = grid_for_step(LIN, 0.5)
        t = builtin_scheme("CRDI2WM")
        est = mc_expectation(t, LIN, grid, FX, 2.0, 5000, 1, chunk_size=1024)
        assert est.samples == 5000
        est_small = mc_expectation(
            t, LIN, grid, FX, 2.0, 5000, 1, chunk_size=617
        )
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
        grid = grid_for_step(LIN, 0.25)
        mc_expectations_at(t, LIN, grid, FX, [0.3, 1.0, 1.7, 2.0], 5000, 3,
                           chunk_size=1000)
        assert built == [1.0] + [grid.locate(x)[1]
                                 for x in (0.3, 1.0, 1.7, 2.0)]
        built.clear()
        exact_weak_expectation(t, LIN, TimeGrid.uniform(0.0, 1.0, 3), FX,
                               theta_eval=0.5)
        assert built == [1.0, 0.5]

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


# drift overflows once a stage value passes 8: a few paths of seed 3 blow up
BLOWS_UP = SdeProblem(
    dim_state=1, dim_noise=1,
    drift=lambda t, x: np.where(x > 8.0, np.inf, 0.5 * x),
    diffusion=lambda t, x: x[..., :, None],
    x0=[1.0], t0=0.0, T=1.0, label="blows-up",
)


class TestBlowup:
    @pytest.mark.parametrize("threads", (1, 2))
    def test_mc_names_first_failing_path(self, threads):
        t = builtin_scheme("CRDI2WM")
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        M, chunk, seed = 256, 64, 3
        failures = []
        for p in range(M):
            try:
                simulate_path(t, BLOWS_UP, grid, PathStream(seed, p))
            except BlowupError as exc:
                failures.append((p // chunk, exc.step, p))
        # chunks run in order; within one, the earliest step, then lowest path
        _, step, path = min(failures)
        assert path >= chunk  # the failing chunk does not start at path 0
        with pytest.raises(BlowupError) as ei:
            mc_expectation(t, BLOWS_UP, grid, FX, 1.0, M, seed,
                           chunk_size=chunk, threads=threads)
        assert (ei.value.step, ei.value.path) == (step, path)

    def test_overflowing_state_names_first_path(self):
        # finite drift and diffusion whose weighted sum overflows where
        # dW != 0: only the check of the chunk's new states sees it
        huge = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: 0.0 * x,
            diffusion=lambda t, x: np.full(x.shape + (1,), 1.5e308),
            x0=[0.0], t0=0.0, T=1.0, label="overflow",
        )
        M, chunk, seed = 256, 64, 3
        dW, _ = sample_batch(1, 0.5, seed, np.arange(M, dtype=np.uint64), 0)
        first = int(np.argmax(dW[:, 0] != 0.0))
        with np.errstate(over="ignore"), pytest.raises(BlowupError) as ei:
            mc_expectation(builtin_scheme("EULER_OPT"), huge,
                           TimeGrid.uniform(0.0, 1.0, 2), FX, 1.0, M, seed,
                           chunk_size=chunk)
        assert (ei.value.step, ei.value.path) == (0, first)

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

    def test_zero_errors_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="zero error"):
            est = empirical_order([(0.5, 0.0), (0.25, 1e-3), (0.125, 2.5e-4)])
        assert est.slope == pytest.approx(2.0, abs=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            empirical_order([(0.5, 1e-3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                empirical_order([(0.5, 0.0), (0.25, 0.0)])

    def test_accepts_error_records(self):
        recs = [
            ErrorRecord(h=0.5, mean_error=1e-2, variance_of_mean=0.0,
                        half_width=0.0),
            ErrorRecord(h=0.25, mean_error=2.5e-3, variance_of_mean=0.0,
                        half_width=0.0),
        ]
        assert empirical_order(recs).slope == pytest.approx(2.0, abs=1e-12)


class TestErrorTable:
    def test_rows_against_reference(self):
        t = builtin_scheme("CRDI2WM")
        recs = error_table(t, LIN, FX, 2.0, [0.5, 0.25], 20000, 4)
        assert [r.h for r in recs] == [0.5, 0.25]
        for r in recs:
            assert r.ci_low == r.mean_error - r.half_width
            assert r.ci_high == r.mean_error + r.half_width
        assert abs(recs[1].mean_error) < abs(recs[0].mean_error)

    def test_provenance_selector(self):
        t = builtin_scheme("CRDI2WM")
        sys2 = system2d_problem()
        derived = error_table(t, sys2, FX2, 4.0, [1.0], 2000, 0)
        stated = error_table(t, sys2, FX2, 4.0, [1.0], 2000, 0,
                             provenance="paper_stated")
        diff = math.exp(-4.0) - math.exp(-271 / 256 * 4.0)
        assert derived[0].mean_error - stated[0].mean_error == pytest.approx(
            diff, rel=1e-12
        )

    def test_missing_reference(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        with pytest.raises(KeyError):
            error_table(builtin_scheme("EULER_OPT"), ode, FX2, 1.0, [0.5],
                        100, 0)

    @pytest.mark.parametrize("h_list", ([], np.array([])))
    def test_no_step_sizes(self, h_list):
        with pytest.raises(ValueError, match="at least one step size"):
            error_table(builtin_scheme("EULER_OPT"), LIN, FX, 2.0, h_list,
                        100, 0)


class TestDenseProfile:
    def test_zero_diffusion_profile_deterministic(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        t = builtin_scheme("CRDI3WM")
        rows_small = dense_error_profile(t, ode, FX, 0.25, [0.5], 100, 0)
        rows_big = dense_error_profile(t, ode, FX, 0.25, [0.5], 1000, 7)
        for (ta, tha, ra), (tb, thb, rb) in zip(rows_small, rows_big):
            assert (ta, tha) == (tb, thb)
            assert ra.mean_error == pytest.approx(rb.mean_error, rel=1e-12)
            assert ra.variance_of_mean <= 1e-30

    def test_profile_layout(self):
        t = builtin_scheme("CRDI2WM")
        rows = dense_error_profile(t, LIN, FX, 0.5, [0.25, 0.75], 500, 0)
        assert len(rows) == 4 * 2
        times = [r[0] for r in rows]
        assert times[0] == pytest.approx(0.125)
        assert times[-1] == pytest.approx(1.875)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            dense_error_profile(
                builtin_scheme("CRDI2WM"), LIN, FX, 0.5, [1.0], 100, 0
            )
