import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.increments import (
    StepIncrements,
    enumerate_outcomes,
    sample,
    sample_batch,
)
from csrk.integrator import (
    BlowupError,
    PlannedTheta,
    TimeGrid,
    compute_step,
    compute_step_arrays,
    evaluate_dense,
    query,
    simulate_path,
)
from csrk.sde import SdeProblem, linear_problem, ode_problem, system2d_problem
from csrk.stats import empirical_order
from csrk.streams import PathStream
from csrk.tableau import builtin_scheme, scheme_names

LIN = linear_problem(1.5, 0.1, 0.1, 2.0)


class TestTimeGrid:
    def test_uniform_hits_endpoint_exactly(self):
        g = TimeGrid.uniform(0.0, 0.7, 7)
        assert g.times[-1] == 0.7
        assert g.n_steps == 7

    def test_locate_conventions(self):
        g = TimeGrid.uniform(0.0, 2.0, 4)
        assert g.locate(0.0) == (0, 0.0)
        assert g.locate(2.0) == (3, 1.0)
        n, th = g.locate(0.5)  # node -> left-closed next step
        assert (n, th) == (1, 0.0)
        n, th = g.locate(0.65)
        assert n == 1 and th == pytest.approx(0.3)

    def test_locate_domain(self):
        g = TimeGrid.uniform(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            g.locate(-0.1)
        with pytest.raises(ValueError):
            g.locate(1.1)

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0])
        with pytest.raises(ValueError):
            TimeGrid([0.0, 1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before dividing by 0
            with pytest.raises(ValueError, match="at least one step"):
                TimeGrid.uniform(0.0, 1.0, 0)


class TestStages:
    def test_single_stage_collapses_to_left_node(self):
        y = np.array([0.1])
        inc = sample(1, 0.5, PathStream(0, 0))
        cache = compute_step(
            builtin_scheme("EULER_OPT"), LIN, 0.0, y, 0.5, inc
        )
        # H_1^(0) = H_1^(k) = y_n, so the cached values are a(y_n), b(y_n)
        assert cache.a_vals[0][0] == pytest.approx(1.5 * 0.1)
        assert cache.b_diag[0][0][0] == pytest.approx(0.1 * 0.1)

    def test_crdi2_stage2_diffusion_argument(self):
        a, b, h = 1.5, 0.1, 0.25
        y = np.array([0.1])
        inc = sample(1, h, PathStream(3, 0))
        cache = compute_step(builtin_scheme("CRDI2WM"), LIN, 0.0, y, h, inc)
        # H_2^(1) = y (1 + (2/3) a h + sqrt(2/3) b sqrt(h))
        H2 = 0.1 * (1 + 2 / 3 * a * h + math.sqrt(2 / 3) * b * math.sqrt(h))
        assert cache.b_diag[1][0][0] == pytest.approx(b * H2, rel=1e-14)

    def test_zero_diffusion_classical_stages(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        inc = sample(1, 0.5, PathStream(0, 0))
        cache = compute_step(
            builtin_scheme("CRDI3WM"), ode, 0.0, np.array([1.0]), 0.5, inc
        )
        # H_2^(0) = 1 + 0.5 h a(H_1), H_3^(0) = 1 + 0.75 h a(H_2)
        h = 0.5
        H2 = 1 + 0.5 * h * 1.0
        H3 = 1 + 0.75 * h * H2
        assert cache.a_vals[1][0] == pytest.approx(H2)
        assert cache.a_vals[2][0] == pytest.approx(H3)

    def test_mismatched_increment_step(self):
        inc = sample(1, 0.5, PathStream(0, 0))
        with pytest.raises(ValueError):
            compute_step(
                builtin_scheme("EULER_OPT"), LIN, 0.0, np.array([0.1]),
                0.25, inc,
            )

    def test_blowup_error_carries_context(self):
        bad = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: x * np.inf,
            diffusion=lambda t, x: x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="bad",
        )
        inc = sample(1, 0.5, PathStream(0, 0))
        with pytest.raises(BlowupError) as ei:
            compute_step(
                builtin_scheme("CRDI2WM"), bad, 0.0, np.array([1.0]), 0.5, inc
            )
        assert ei.value.family == "drift"
        assert ei.value.stage == 0
        assert ei.value.t_n == 0.0


class TestDenseOutput:
    def test_euler_linear_dense_formula(self):
        a, b, h, th = 1.5, 0.1, 0.5, 0.37
        y = np.array([0.1])
        inc = sample(1, h, PathStream(5, 0))
        cache = compute_step(
            builtin_scheme("EULER_LINEAR"), LIN, 0.0, y, h, inc
        )
        got = evaluate_dense(cache, builtin_scheme("EULER_LINEAR"), th)
        expect = 0.1 * (1 + a * th * h + b * th * inc.dW[0])
        assert got[0] == pytest.approx(expect, rel=1e-14)

    def test_theta_zero_bit_exact(self):
        y = np.array([0.1])
        inc = sample(1, 0.5, PathStream(0, 0))
        for name in scheme_names():
            t = builtin_scheme(name)
            cache = compute_step(t, LIN, 0.0, y, 0.5, inc)
            out = evaluate_dense(cache, t, 0.0)
            assert np.array_equal(out, y)

    def test_theta_domain(self):
        inc = sample(1, 0.5, PathStream(0, 0))
        t = builtin_scheme("EULER_OPT")
        cache = compute_step(t, LIN, 0.0, np.array([0.1]), 0.5, inc)
        with pytest.raises(ValueError):
            evaluate_dense(cache, t, 1.5)

    def test_euler_opt_one_step_mean_theta_scaled(self):
        """Enumerated E[Y(t0 + theta h)] = x0 (1 + a theta h) exactly."""
        a, x0, h = 1.5, 0.1, 0.25
        t = builtin_scheme("EULER_OPT")
        for th in (0.2, 0.5, 0.8, 1.0):
            mean = 0.0
            for inc, p in enumerate_outcomes(1, h):
                cache = compute_step(t, LIN, 0.0, np.array([x0]), h, inc)
                mean += p * evaluate_dense(cache, t, th)[0]
            assert mean == pytest.approx(x0 * (1 + a * th * h), rel=1e-14)


def dense_reference(cache, scheme, theta):
    """evaluate_dense with the weights and I2 rebuilt on every call."""
    if theta == 0.0:
        return cache.y_n.copy()
    s = scheme.stages
    m = cache.dW.shape[-1]
    h, sqrt_h = cache.h, cache.sqrt_h
    al = scheme.alpha_at(theta)
    b1 = scheme.beta_at(1, theta)
    b2 = scheme.beta_at(2, theta)
    b3 = scheme.beta_at(3, theta)
    b4 = scheme.beta_at(4, theta)
    dW = cache.dW
    I2 = 0.5 * (dW[..., :, None] * dW[..., None, :] + cache.V)

    y = cache.y_n.copy()
    for i in range(s):
        if al[i] != 0.0:
            y += (al[i] * h) * cache.a_vals[i]
    for i in range(s):
        if b1[i] == 0.0 and b2[i] == 0.0:
            continue
        for k in range(m):
            coeff = b1[i] * dW[..., k] + (b2[i] / sqrt_h) * I2[..., k, k]
            y += coeff[..., None] * cache.b_diag[i][k]
    if cache.b_cross is not None:
        for i in range(s):
            if b3[i] == 0.0 and b4[i] == 0.0:
                continue
            for k in range(m):
                for l in range(m):
                    if k == l:
                        continue
                    coeff = b3[i] * dW[..., k] + (b4[i] / sqrt_h) * I2[..., k, l]
                    y += coeff[..., None] * cache.b_cross[i][k][l]
    return y


class TestDenseWeights:
    """Planned weights and I2 read from the cache change where they come
    from, not one bit of the dense output."""

    @pytest.mark.parametrize("name", scheme_names())
    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("batched", (False, True), ids=("single", "batch"))
    def test_matches_reference(self, name, m, batched):
        problem = LIN if m == 1 else system2d_problem()
        scheme, h = builtin_scheme(name), 0.3  # h * x rounds
        if batched:
            # on a signed-zero row, skipping a term that adds +0 or -0
            # changes the sign of the result
            scale = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])[:, None]
            y = problem.x0 * scale
            dW, V = sample_batch(m, h, 7, np.arange(5, dtype=np.uint64), 0)
        else:
            y = problem.x0
            inc = sample(m, h, PathStream(7, 0))
            dW, V = inc.dW, inc.V
        cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, V)
        for theta in (0.0, 0.3, 1.0):
            want = dense_reference(cache, scheme, theta)
            # a theta planned for another scheme does not lend its weights
            other = PlannedTheta(builtin_scheme("EULER_OPT"), theta)
            for th in (theta, PlannedTheta(scheme, theta), other):
                got = evaluate_dense(cache, scheme, th)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestPaths:
    def test_node_consistency(self):
        grid = TimeGrid.uniform(0.0, 2.0, 8)
        t = builtin_scheme("CRDI3WM")
        path = simulate_path(t, LIN, grid, PathStream(1, 0))
        for n in range(grid.n_steps):
            dense1 = evaluate_dense(path.caches[n], t, 1.0)
            assert np.array_equal(dense1, path.nodes[n + 1])

    def test_query_conventions(self):
        grid = TimeGrid.uniform(0.0, 2.0, 4)
        t = builtin_scheme("CRDI2WM")
        path = simulate_path(t, LIN, grid, PathStream(2, 0))
        assert np.array_equal(query(path, 0.0), LIN.x0)
        assert np.array_equal(query(path, 2.0), path.nodes[-1])
        assert np.array_equal(query(path, 0.5), path.nodes[1])
        mid = query(path, 0.65)
        expect = evaluate_dense(path.caches[1], t, 0.3)
        assert np.allclose(mid, expect, atol=0.0, rtol=1e-15)

    def test_zero_diffusion_seed_independent(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        grid = TimeGrid.uniform(0.0, 1.0, 5)
        t = builtin_scheme("CRDI4WM")
        p1 = simulate_path(t, ode, grid, PathStream(0, 0))
        p2 = simulate_path(t, ode, grid, PathStream(99, 123))
        for a, b in zip(p1.nodes, p2.nodes):
            assert np.array_equal(a, b)

    def test_grid_outside_problem_interval(self):
        with pytest.raises(ValueError):
            simulate_path(
                builtin_scheme("EULER_OPT"), LIN,
                TimeGrid.uniform(0.0, 3.0, 3), PathStream(0, 0),
            )

    def test_blowup_carries_step_index(self):
        decays = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: np.where(t < 0.4, x, np.inf * x),
            diffusion=lambda t, x: 0.0 * x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="late-blowup",
        )
        with pytest.raises(BlowupError) as ei:
            simulate_path(
                builtin_scheme("EULER_OPT"), decays,
                TimeGrid.uniform(0.0, 1.0, 5), PathStream(0, 0),
            )
        assert ei.value.step == 2


class TestOdeReduction:
    def _slope(self, name, theta=None):
        ode = ode_problem(1.0, 1.0, 1.0)
        t = builtin_scheme(name)
        pairs = []
        for k in range(2, 7):
            n = 2**k
            grid = TimeGrid.uniform(0.0, 1.0, n)
            path = simulate_path(t, ode, grid, PathStream(0, 0))
            if theta is None:
                err = path.nodes[-1][0] - math.e
            else:
                t_eval = grid.step(n // 2)[0] + theta / n
                err = query(path, t_eval)[0] - math.exp(t_eval)
            pairs.append((1.0 / n, err))
        return empirical_order(pairs).slope

    @pytest.mark.parametrize(
        "name,expect",
        [
            ("EULER_LINEAR", 1.0), ("EULER_OPT", 1.0),
            ("CRDI1WM", 2.0), ("CRDI2WM", 2.0),
            ("CRDI3WM", 3.0), ("CRDI4WM", 3.0), ("CRDI5WM", 3.0),
        ],
    )
    def test_node_order(self, name, expect):
        assert self._slope(name) == pytest.approx(expect, abs=0.1)

    @pytest.mark.parametrize(
        "name", ("CRDI2WM", "CRDI3WM", "CRDI4WM", "CRDI5WM")
    )
    def test_dense_order_at_half(self, name):
        assert self._slope(name, theta=0.5) >= 2.0


class TestEvaluationCounts:
    """Drift is evaluated N*s times; the diffusion matrix N*s*m times for
    the diagonal family plus N*s*m more for the cross family (each cross
    call supplying its m-1 off-diagonal columns)."""

    @pytest.mark.parametrize("name", scheme_names())
    @pytest.mark.parametrize("problem_name", ("linear", "system2d"))
    def test_contract(self, counting, name, problem_name):
        base = LIN if problem_name == "linear" else system2d_problem()
        problem, counts = counting(base)
        scheme = builtin_scheme(name)
        N, s, m = 5, scheme.stages, problem.dim_noise
        grid = TimeGrid.uniform(problem.t0, problem.T, N)
        path = simulate_path(scheme, problem, grid, PathStream(0, 0))
        # dense queries must not add any evaluations
        for t_q in np.linspace(problem.t0, problem.T, 17):
            query(path, t_q)
        assert counts["drift"] == N * s
        cross_calls = N * s * m if scheme.uses_cross_stages and m > 1 else 0
        assert counts["diffusion"] == N * s * m + cross_calls
        # in column terms: N*s*m diagonal + N*s*m*(m-1) cross columns
        diag_cols = N * s * m
        cross_cols = cross_calls * (m - 1)
        assert cross_cols == (N * s * m * (m - 1)
                              if scheme.uses_cross_stages and m > 1 else 0)
        assert diag_cols == N * s * m


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(scheme_names()),
    problem_name=st.sampled_from(("linear", "system2d")),
    h=st.floats(0.05, 1.0, allow_nan=False),
    seed=st.integers(0, 2**16),
    theta=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
)
def test_dense_consistency_property(name, problem_name, h, seed, theta):
    """theta = 0 reproduces y_n and theta = 1 the next node, bit-exactly."""
    problem = LIN if problem_name == "linear" else system2d_problem()
    scheme = builtin_scheme(name)
    y = problem.x0
    inc = sample(problem.dim_noise, h, PathStream(seed, 0))
    cache = compute_step(scheme, problem, problem.t0, y, h, inc)
    y_next = evaluate_dense(cache, scheme, 1.0)
    out = evaluate_dense(cache, scheme, theta)
    if theta == 0.0:
        assert np.array_equal(out, y)
    elif theta == 1.0:
        assert np.array_equal(out, y_next)
    else:
        assert np.all(np.isfinite(out))
