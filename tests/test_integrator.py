import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.increments import enumerate_outcomes, sample, sample_batch
from csrk.integrator import (
    BlowupError,
    _check_finite,
    TimeGrid,
    compute_step_arrays,
    evaluate_dense,
)
from csrk.sde import SdeProblem, linear_problem, ode_problem, system2d_problem
from csrk.stats import empirical_order, query, simulate_path
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before subtracting
            for nodes in ([0.0, math.nan], [0.0, math.inf],
                          [0.0, 1.0, math.inf, math.inf], [-math.inf, 0.0]):
                with pytest.raises(ValueError, match="must be finite"):
                    TimeGrid(nodes)
            for t0, T in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)):
                with pytest.raises(ValueError, match="must be finite"):
                    TimeGrid.uniform(t0, T, 2)


class TestStages:
    def test_single_stage_collapses_to_left_node(self):
        y = np.array([0.1])
        dW, V = sample(1, 0.5, PathStream(0, 0))
        cache = compute_step_arrays(
            builtin_scheme("EULER_OPT"), LIN, 0.0, y, 0.5, dW, V
        )
        # H_1^(0) = H_1^(k) = y_n, so the cached values are a(y_n), b(y_n)
        assert cache.a_vals[0][0] == pytest.approx(1.5 * 0.1)
        assert cache.b_diag[0][0][0] == pytest.approx(0.1 * 0.1)

    def test_crdi2_stage2_diffusion_argument(self):
        a, b, h = 1.5, 0.1, 0.25
        y = np.array([0.1])
        dW, V = sample(1, h, PathStream(3, 0))
        cache = compute_step_arrays(builtin_scheme("CRDI2WM"), LIN, 0.0, y, h,
                                    dW, V)
        # H_2^(1) = y (1 + (2/3) a h + sqrt(2/3) b sqrt(h))
        H2 = 0.1 * (1 + 2 / 3 * a * h + math.sqrt(2 / 3) * b * math.sqrt(h))
        assert cache.b_diag[1][0][0] == pytest.approx(b * H2, rel=1e-14)

    def test_zero_diffusion_classical_stages(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        dW, V = sample(1, 0.5, PathStream(0, 0))
        cache = compute_step_arrays(
            builtin_scheme("CRDI3WM"), ode, 0.0, np.array([1.0]), 0.5, dW, V
        )
        # H_2^(0) = 1 + 0.5 h a(H_1), H_3^(0) = 1 + 0.75 h a(H_2)
        h = 0.5
        H2 = 1 + 0.5 * h * 1.0
        H3 = 1 + 0.75 * h * H2
        assert cache.a_vals[1][0] == pytest.approx(H2)
        assert cache.a_vals[2][0] == pytest.approx(H3)

    def test_blowup_error_carries_context(self):
        bad = SdeProblem(
            dim_state=1, dim_noise=1,
            drift=lambda t, x: x * np.inf,
            diffusion=lambda t, x: x[..., :, None],
            x0=[1.0], t0=0.0, T=1.0, label="bad",
        )
        dW, V = sample(1, 0.5, PathStream(0, 0))
        with pytest.raises(BlowupError) as ei:
            compute_step_arrays(
                builtin_scheme("CRDI2WM"), bad, 0.0, np.array([1.0]), 0.5,
                dW, V,
            )
        assert ei.value.family == "drift"
        assert ei.value.stage == 0
        assert ei.value.t_n == 0.0


def step_reference(scheme, problem, t_n, y_n, h, dW, V):
    """compute_step_arrays reading A, B and c = A e from the tableau's
    matrices."""
    s, m = scheme.stages, problem.dim_noise
    A0, A1, A2 = scheme.A0, scheme.A1, scheme.A2
    c0, c1, c2 = A0.sum(axis=1), A1.sum(axis=1), A2.sum(axis=1)
    B0, B1, B2 = scheme.B0, scheme.B1, scheme.B2
    sqrt_h = math.sqrt(h)
    cross = scheme.uses_cross_stages and m > 1
    a_vals, b_diag, b_cross = [None] * s, [None] * s, [None] * s
    for i in range(s):
        H0 = y_n
        for j in range(i):
            if A0[i, j] != 0.0:
                H0 = H0 + (h * A0[i, j]) * a_vals[j]
            if B0[i, j] != 0.0:
                for r in range(m):
                    H0 = H0 + B0[i, j] * dW[..., r, None] * b_diag[j][r]
        a_vals[i] = np.asarray(
            problem.drift(t_n + c0[i] * h, H0), dtype=float)
        diag_i = []
        for k in range(m):
            Hk = y_n
            for j in range(i):
                if A1[i, j] != 0.0:
                    Hk = Hk + (h * A1[i, j]) * a_vals[j]
                if B1[i, j] != 0.0:
                    Hk = Hk + (sqrt_h * B1[i, j]) * b_diag[j][k]
            bmat = np.asarray(
                problem.diffusion(t_n + c1[i] * h, Hk), dtype=float)
            diag_i.append(bmat[..., :, k])
        b_diag[i] = diag_i
        if cross:
            cross_i = [[None] * m for _ in range(m)]
            for l in range(m):
                Hl = y_n
                for j in range(i):
                    if A2[i, j] != 0.0:
                        Hl = Hl + (h * A2[i, j]) * a_vals[j]
                    if B2[i, j] != 0.0:
                        Hl = Hl + (sqrt_h * B2[i, j]) * b_diag[j][l]
                bmat = np.asarray(
                    problem.diffusion(t_n + c2[i] * h, Hl),
                    dtype=float)
                for k in range(m):
                    if k != l:
                        cross_i[k][l] = bmat[..., :, k]
            b_cross[i] = cross_i
    return a_vals, b_diag, b_cross if cross else None


def flat_arrays(tree):
    """The arrays of a nested list/tuple structure, in order (None kept)."""
    if isinstance(tree, (list, tuple)):
        return [a for t in tree for a in flat_arrays(t)]
    return [tree]


class TestStagePlan:
    """Couplings and nodes planned per scheme change where the coefficients
    come from, not one bit of the stage values."""

    @pytest.mark.parametrize("name", scheme_names())
    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("batched", (False, True), ids=("single", "batch"))
    def test_matches_matrix_loop(self, name, m, batched):
        problem = LIN if m == 1 else system2d_problem()
        scheme, h, t_n = builtin_scheme(name), 0.3, 0.7  # h * A rounds
        if batched:
            # signed zeros meet every increment; skipping a term that adds
            # +0 or -0, or regrouping a product, shows in some row
            rng = np.random.default_rng(3)
            scale = np.concatenate([[-0.0, 0.0] * 16, rng.uniform(-2, 2, 96)])
            y = problem.x0 * scale[:, None]
            dW, V = sample_batch(m, h, 7, np.arange(128, dtype=np.uint64), 0)
        else:
            y = problem.x0
            dW, V = sample(m, h, PathStream(7, 0))
        cache = compute_step_arrays(scheme, problem, t_n, y, h, dW, V)
        want = step_reference(scheme, problem, t_n, y, h, dW, V)
        got = (cache.a_vals, cache.b_diag, cache.b_cross)
        got, want = flat_arrays(got), flat_arrays(want)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_crdi3_plan(self):
        scheme = builtin_scheme("CRDI3WM")
        (_, K0), _, _ = scheme.stage_plan
        assert K0 == ((), ((0, 0.5, scheme.B0[1, 0]),),
                      ((0, 0.0, scheme.B0[2, 0]), (1, 0.75, 0.0)))
        assert all(type(v) is float for _, a, b in K0[2] for v in (a, b))


class TestCheckFinite:
    def test_overflowing_sum_of_finite_values_passes(self):
        for arr in (np.array([1e308, 1e308]), np.array([[1e308], [-1e308]]),
                    np.full((4, 2, 2), 1e200)):
            _check_finite(arr, 0.0, 0, "drift", arr.ndim > 1)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("row", (0, 3, 6))
    def test_names_first_bad_row(self, bad, row):
        arr = np.ones((7, 2, 2))
        arr[row, 1, 0] = bad
        arr[6, 0, 1] = bad  # a later row is not reported
        with pytest.raises(BlowupError) as ei:
            _check_finite(arr, 0.5, 2, "cross diffusion", True)
        e = ei.value
        assert (e.path, e.stage, e.family, e.t_n) == (
            row, 2, "cross diffusion", 0.5)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_step_names_row_stage_and_family(self, bad):
        row, b = 2, 0.1
        rows = np.arange(5)[:, None]

        def diffusion(t, x):
            # non-finite in one row from the first stage with c1 > 0
            out = np.where((rows == row) & (t > 0.0), bad, b * x)
            return out[..., :, None]

        problem = SdeProblem(
            dim_state=1, dim_noise=1, drift=lambda t, x: 1.5 * x,
            diffusion=diffusion, x0=[0.1], t0=0.0, T=1.0, label="bad",
        )
        dW, V = sample_batch(1, 0.25, 0, np.arange(5, dtype=np.uint64), 0)
        y = np.full((5, 1), 0.1)
        with pytest.raises(BlowupError) as ei:
            compute_step_arrays(builtin_scheme("CRDI3WM"), problem, 0.0, y,
                                0.25, dW, V)
        e = ei.value
        assert (e.path, e.stage, e.family) == (row, 1, "diffusion")


class TestDenseOutput:
    def test_euler_linear_dense_formula(self):
        a, b, h, th = 1.5, 0.1, 0.5, 0.37
        y = np.array([0.1])
        dW, V = sample(1, h, PathStream(5, 0))
        cache = compute_step_arrays(
            builtin_scheme("EULER_LINEAR"), LIN, 0.0, y, h, dW, V
        )
        got = evaluate_dense(cache,
                             builtin_scheme("EULER_LINEAR").dense_weights(th))
        expect = 0.1 * (1 + a * th * h + b * th * dW[0])
        assert got[0] == pytest.approx(expect, rel=1e-14)

    def test_theta_zero_bit_exact(self):
        y = np.array([0.1])
        dW, V = sample(1, 0.5, PathStream(0, 0))
        for name in scheme_names():
            t = builtin_scheme(name)
            cache = compute_step_arrays(t, LIN, 0.0, y, 0.5, dW, V)
            out = evaluate_dense(cache, t.dense_weights(0.0))
            assert np.array_equal(out, y)

    def test_theta_domain(self):
        dW, V = sample(1, 0.5, PathStream(0, 0))
        t = builtin_scheme("EULER_OPT")
        cache = compute_step_arrays(t, LIN, 0.0, np.array([0.1]), 0.5, dW, V)
        with pytest.raises(ValueError):
            evaluate_dense(cache, t.dense_weights(1.5))

    def test_euler_opt_one_step_mean_theta_scaled(self):
        """Enumerated E[Y(t0 + theta h)] = x0 (1 + a theta h) exactly."""
        a, x0, h = 1.5, 0.1, 0.25
        t = builtin_scheme("EULER_OPT")
        for th in (0.2, 0.5, 0.8, 1.0):
            mean = 0.0
            for dW, V, p in zip(*enumerate_outcomes(1, h)):
                cache = compute_step_arrays(t, LIN, 0.0, np.array([x0]), h,
                                            dW, V)
                mean += p * evaluate_dense(cache, t.dense_weights(th))[0]
            assert mean == pytest.approx(x0 * (1 + a * th * h), rel=1e-14)


def dense_reference(cache, scheme, theta):
    """evaluate_dense with the weights and I2 rebuilt on every call."""
    if theta == 0.0:
        return cache.y_n.copy()
    s = scheme.stages
    m = cache.dW.shape[-1]
    h, sqrt_h = cache.h, cache.sqrt_h
    al, b1, b2, b3, b4 = (
        np.array([w(theta) for w in ws])
        for ws in (scheme.alpha, scheme.beta1, scheme.beta2, scheme.beta3,
                   scheme.beta4))
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
    """Weights built once and I2 read from the cache change where they come
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
            dW, V = sample(m, h, PathStream(7, 0))
        cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, V)
        for theta in (0.0, 0.3, 1.0):
            want = dense_reference(cache, scheme, theta)
            got = evaluate_dense(cache, scheme.dense_weights(theta))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestPaths:
    def test_node_consistency(self):
        grid = TimeGrid.uniform(0.0, 2.0, 8)
        t = builtin_scheme("CRDI3WM")
        path = simulate_path(t, LIN, grid, PathStream(1, 0))
        for n in range(grid.n_steps):
            dense1 = evaluate_dense(path.caches[n], t.dense_weights(1.0))
            assert np.array_equal(dense1, path.nodes[n + 1])

    def test_query_conventions(self):
        grid = TimeGrid.uniform(0.0, 2.0, 4)
        t = builtin_scheme("CRDI2WM")
        path = simulate_path(t, LIN, grid, PathStream(2, 0))
        assert np.array_equal(query(path, 0.0), LIN.x0)
        assert np.array_equal(query(path, 2.0), path.nodes[-1])
        assert np.array_equal(query(path, 0.5), path.nodes[1])
        mid = query(path, 0.65)
        expect = evaluate_dense(path.caches[1], t.dense_weights(0.3))
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
    dW, V = sample(problem.dim_noise, h, PathStream(seed, 0))
    cache = compute_step_arrays(scheme, problem, problem.t0, y, h, dW, V)
    y_next = evaluate_dense(cache, scheme.dense_weights(1.0))
    out = evaluate_dense(cache, scheme.dense_weights(theta))
    if theta == 0.0:
        assert np.array_equal(out, y)
    elif theta == 1.0:
        assert np.array_equal(out, y_next)
    else:
        assert np.all(np.isfinite(out))
