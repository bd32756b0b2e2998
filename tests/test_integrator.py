import dataclasses
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csrk.increments
import csrk.integrator
from csrk.increments import enumerate_outcomes, sample_batch
from csrk.integrator import (
    BlowupError,
    _check_finite,
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
from csrk.stats import (
    _path_steps,
    empirical_order,
    mc_expectations_at,
    simulate_path,
)
from csrk.streams import KeyedPaths, uniforms
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
            with pytest.raises(ValueError, match=r"n_steps must be an "
                               r"integer in \[1, 2\*\*64\), got 0"):
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

    @pytest.mark.parametrize("t0,T,n,span", [
        (0.0, 1e308, 4, "1e+308"), (-1e308, 1e308, 2, "inf"),
    ])
    def test_overflowing_horizon_named(self, t0, T, n, span):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                TimeGrid.uniform(t0, T, n)
        assert str(info.value) == (f"the horizon {span} over {n} steps "
                                   "overflows a float")
        # a node k < n overflows: the last node is T itself
        assert TimeGrid.uniform(0.0, 1e308, 2).times[1] == 5e307

    @pytest.mark.parametrize("n,message", [
        (-1, "n must be an integer in [0, 2**64), got -1"),
        (4, "n must be an integer in [0, 4), got 4"),
        (1.5, "n must be an integer in [0, 2**64), got 1.5"),
        (True, "n must be an integer in [0, 2**64), got True"),
    ])
    def test_step_index_refused(self, n, message):
        # step(-1) read the last node, a step back to the start
        with pytest.raises(ValueError) as info:
            TimeGrid.uniform(0.0, 2.0, 4).step(n)
        assert str(info.value) == message


class TestStages:
    def test_single_stage_collapses_to_left_node(self):
        y = np.array([0.1])
        dW, I2 = sample_batch(1, 0.5, 0, 0, 0)
        cache = compute_step_arrays(
            builtin_scheme("EULER_OPT"), LIN, 0.0, y, 0.5, dW, I2
        )
        # H_1^(0) = H_1^(k) = y_n, so the cached values are a(y_n), b(y_n)
        assert cache.a_vals[0][0] == pytest.approx(1.5 * 0.1)
        assert cache.b_vals[0][0][0][0] == pytest.approx(0.1 * 0.1)

    def test_crdi2_stage2_diffusion_argument(self):
        a, b, h = 1.5, 0.1, 0.25
        y = np.array([0.1])
        dW, I2 = sample_batch(1, h, 3, 0, 0)
        cache = compute_step_arrays(builtin_scheme("CRDI2WM"), LIN, 0.0, y, h,
                                    dW, I2)
        # H_2^(1) = y (1 + (2/3) a h + sqrt(2/3) b sqrt(h))
        H2 = 0.1 * (1 + 2 / 3 * a * h + math.sqrt(2 / 3) * b * math.sqrt(h))
        assert cache.b_vals[1][0][0][0] == pytest.approx(b * H2, rel=1e-14)

    def test_zero_diffusion_classical_stages(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        dW, I2 = sample_batch(1, 0.5, 0, 0, 0)
        cache = compute_step_arrays(
            builtin_scheme("CRDI3WM"), ode, 0.0, np.array([1.0]), 0.5, dW, I2
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
        dW, I2 = sample_batch(1, 0.5, 0, 0, 0)
        with pytest.raises(BlowupError) as ei:
            compute_step_arrays(
                builtin_scheme("CRDI2WM"), bad, 0.0, np.array([1.0]), 0.5,
                dW, I2,
            )
        assert ei.value.family == "drift"
        assert ei.value.stage == 0
        assert ei.value.t_n == 0.0

    @pytest.mark.parametrize("batched,drift,diffusion,message", [
        # a constant drift of the state's shape, not the batch's
        (True, lambda t, x: np.array([0.5]), None,
         "drift at stage 1 returned shape (1,), expected (5, 1)"),
        (False, lambda t, x: 0.5, None,
         "drift at stage 1 returned shape (), expected (1,)"),
        # a diffusion without its noise axis
        (True, None, lambda t, x: 0.1 * x,
         "diffusion at stage 1 returned shape (5, 1), expected (5, 1, 1)"),
        (False, None, lambda t, x: 0.1 * x,
         "diffusion at stage 1 returned shape (1,), expected (1, 1)"),
    ], ids=("constant-drift-batch", "scalar-drift-single",
            "no-noise-axis-batch", "no-noise-axis-single"))
    def test_shape_contract_enforced(self, batched, drift, diffusion,
                                     message):
        problem = dataclasses.replace(
            LIN, drift=drift or LIN.drift,
            diffusion=diffusion or LIN.diffusion)
        y = np.full((5, 1) if batched else (1,), 0.1)
        dW, I2 = sample_batch(1, 0.25, 0, np.arange(5, dtype=np.uint64)
                             if batched else 0, 0)
        with pytest.raises(ValueError) as ei:
            compute_step_arrays(builtin_scheme("CRDI3WM"), problem, 0.0, y,
                                0.25, dW, I2)
        assert str(ei.value) == message

    def test_shape_contract_in_monte_carlo(self):
        problem = dataclasses.replace(LIN, diffusion=lambda t, x: 0.1 * x)
        with pytest.raises(ValueError, match="diffusion at stage 1 returned "
                           r"shape \(1024, 1\), expected \(1024, 1, 1\)"):
            mc_expectations_at(builtin_scheme("CRDI3WM"), problem,
                               TimeGrid.uniform(0.0, 2.0, 4),
                               Functional("identity"), [2.0], 1024, 0)


def step_reference(scheme, problem, t_n, y_n, h, dW):
    """compute_step_arrays reading A, B and c = A e from the tableau's
    matrices; no stage reads I2."""
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


def as_table(b_diag, b_cross):
    """The reference's b_diag[i][k] and b_cross[i][k][l] as the cache's
    b_vals[i][k][k] and b_vals[i][k][l]."""
    m = len(b_diag[0])
    return [[[b_diag[i][k] if k == l else
              b_cross[i][k][l] if b_cross is not None else None
              for l in range(m)] for k in range(m)]
            for i in range(len(b_diag))]


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
            dW, I2 = sample_batch(m, h, 7, np.arange(128, dtype=np.uint64), 0)
        else:
            y = problem.x0
            dW, I2 = sample_batch(m, h, 7, 0, 0)
        cache = compute_step_arrays(scheme, problem, t_n, y, h, dW, I2)
        want = step_reference(scheme, problem, t_n, y, h, dW)
        a_vals, b_diag, b_cross = want
        got = flat_arrays((cache.a_vals, cache.b_vals))
        want = flat_arrays((a_vals, as_table(b_diag, b_cross)))
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
        # batches are path-fastest in memory; the row is the logical one
        for order in "CF":
            arr = np.ones((7, 2, 2), order=order)
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
        dW, I2 = sample_batch(1, 0.25, 0, np.arange(5, dtype=np.uint64), 0)
        y = np.full((5, 1), 0.1)
        with pytest.raises(BlowupError) as ei:
            compute_step_arrays(builtin_scheme("CRDI3WM"), problem, 0.0, y,
                                0.25, dW, I2)
        e = ei.value
        assert (e.path, e.stage, e.family) == (row, 1, "diffusion")


def with_layout(problem, order):
    """The problem with its drift and diffusion returns copied to
    ``order`` ("C" or "F")."""
    drift, diffusion = problem.drift, problem.diffusion
    return dataclasses.replace(
        problem,
        drift=lambda t, x: np.array(drift(t, x), order=order),
        diffusion=lambda t, x: np.array(diffusion(t, x), order=order),
    )


class TestLayout:
    """Batches are path-fastest in memory (Fortran order for (B, ...)), so
    the element-wise loops of a step run over the paths, not over d or m;
    the layout moves no bit."""

    @pytest.mark.parametrize("name", scheme_names())
    def test_bits_independent_of_layout(self, name):
        problem, scheme, h, t_n = system2d_problem(), builtin_scheme(name), \
            0.3, 0.7
        y = np.random.default_rng(5).uniform(-2, 2, (64, 2))
        dW, I2 = sample_batch(2, h, 7, np.arange(64, dtype=np.uint64), 0)
        outs = {}
        # None: the problem as given, on the increments sample_batch makes
        for order in (None, "C", "F"):
            p, args = problem, (y, dW, I2)
            if order is not None:
                p = with_layout(problem, order)
                args = [np.array(a, order=order) for a in args]
            cache = compute_step_arrays(scheme, p, t_n, args[0], h, *args[1:])
            if order is not None:
                for a in (cache.y_n, cache.dW, cache.I2, *cache.a_vals):
                    assert a.flags[f"{order}_CONTIGUOUS"]
            arrays = [cache.I2, *cache.a_vals, *flat_arrays(cache.b_vals)]
            arrays += [evaluate_dense(cache, scheme.dense_weights(theta))
                       for theta in (0.4, 1.0)]
            outs[order] = [None if a is None else a.tobytes()
                           for a in arrays]
        assert outs["C"] == outs[None]
        assert outs["F"] == outs[None]

    def test_path_loop_is_path_fastest(self, monkeypatch):
        drawn = []

        def recording(*args):
            drawn.append(uniforms(*args))
            return drawn[-1]

        monkeypatch.setattr(csrk.increments, "uniforms", recording)
        problem, scheme = system2d_problem(), builtin_scheme("CRDI3WM")
        grid = TimeGrid.uniform(problem.t0, problem.T, 8)
        paths = KeyedPaths(3, np.arange(4096, dtype=np.uint64))
        _, cache, y = next(_path_steps(scheme, problem, grid, 3, paths, 1,
                                       scheme.dense_weights(1.0)))
        b_vals = flat_arrays(cache.b_vals)
        assert all(b is not None for b in b_vals)  # the cross family ran
        assert len(drawn) == 1
        for a in (*drawn, cache.dW, cache.y_n, cache.I2, y,
                  *cache.a_vals, *b_vals):
            assert a.shape[0] == 4096 and a.flags.f_contiguous


class TestDenseOutput:
    def test_euler_linear_dense_formula(self):
        a, b, h, th = 1.5, 0.1, 0.5, 0.37
        y = np.array([0.1])
        dW, I2 = sample_batch(1, h, 5, 0, 0)
        cache = compute_step_arrays(
            builtin_scheme("EULER_LINEAR"), LIN, 0.0, y, h, dW, I2
        )
        got = evaluate_dense(cache,
                             builtin_scheme("EULER_LINEAR").dense_weights(th))
        expect = 0.1 * (1 + a * th * h + b * th * dW[0])
        assert got[0] == pytest.approx(expect, rel=1e-14)

    def test_theta_zero_bit_exact(self):
        y = np.array([0.1])
        dW, I2 = sample_batch(1, 0.5, 0, 0, 0)
        for name in scheme_names():
            t = builtin_scheme(name)
            cache = compute_step_arrays(t, LIN, 0.0, y, 0.5, dW, I2)
            out = evaluate_dense(cache, t.dense_weights(0.0))
            assert np.array_equal(out, y)

    # m = 2 schemes without a cross family: the cross family of
    # _add_terms is skipped on its zero weights
    @pytest.mark.parametrize("name,path_bits,mean_bits", [
        ("CRDI1WM",
         ["0x1.982c5c51ffd92p-1", "0x1.09268040d672bp-1",
          "0x1.92facef23d242p-2", "0x1.5ccd567c8310ap-3",
          "0x1.87c40aac3d8bcp-4", "-0x1.c9d4447f13f10p-9"],
         ["0x1.82218e6b6da47p-5", "0x1.f2d1d29da3067p-13"]),
        ("EULER_OPT",
         ["0x1.8fbdfc862d2c1p-1", "0x1.893816e2ad742p-2",
          "0x1.58f0e58b38094p-2", "-0x1.f8c701a81352dp-6",
          "0x1.fe8110ba8bfbcp-5", "-0x1.a86c1b1a94a0cp-10"],
         ["0x1.70ad7b25d2048p-7", "0x1.a0792864220e6p-14"]),
    ])
    def test_no_cross_family_bits_on_system2d(self, name, path_bits,
                                              mean_bits):
        problem, scheme = system2d_problem(), builtin_scheme(name)
        assert not scheme.uses_cross_stages
        grid = TimeGrid.uniform(0.0, 4.0, 8)
        path = simulate_path(scheme, problem, grid, 11, 5)
        assert [v.hex() for t in (0.3, 1.3, 3.95)
                for v in path.value(t)] == path_bits
        ests = mc_expectations_at(scheme, problem, grid,
                                  Functional("square", 1), [1.3, 3.95], 4096,
                                  7)
        assert [e.mean.hex() for e in ests] == mean_bits

    def test_theta_domain(self):
        dW, I2 = sample_batch(1, 0.5, 0, 0, 0)
        t = builtin_scheme("EULER_OPT")
        cache = compute_step_arrays(t, LIN, 0.0, np.array([0.1]), 0.5, dW,
                                    I2)
        with pytest.raises(ValueError):
            evaluate_dense(cache, t.dense_weights(1.5))

    def test_euler_opt_one_step_mean_theta_scaled(self):
        """Enumerated E[Y(t0 + theta h)] = x0 (1 + a theta h) exactly."""
        a, x0, h = 1.5, 0.1, 0.25
        t = builtin_scheme("EULER_OPT")
        for th in (0.2, 0.5, 0.8, 1.0):
            mean = 0.0
            for dW, I2, p in zip(*enumerate_outcomes(1, h)):
                cache = compute_step_arrays(t, LIN, 0.0, np.array([x0]), h,
                                            dW, I2)
                mean += p * evaluate_dense(cache, t.dense_weights(th))[0]
            assert mean == pytest.approx(x0 * (1 + a * th * h), rel=1e-14)


def dense_reference(cache, scheme, theta):
    """evaluate_dense with the weights rebuilt on every call, from the
    cache's increments dW and I2 as they are."""
    if theta == 0.0:
        return cache.y_n.copy()
    s = scheme.stages
    m = cache.dW.shape[-1]
    h, sqrt_h = cache.h, math.sqrt(cache.h)
    al, b1, b2, b3, b4 = (
        np.array([w(theta) for w in ws])
        for ws in (scheme.alpha, scheme.beta1, scheme.beta2, scheme.beta3,
                   scheme.beta4))
    dW, I2 = cache.dW, cache.I2

    y = cache.y_n.copy()
    for i in range(s):
        if al[i] != 0.0:
            y += (al[i] * h) * cache.a_vals[i]
    for i in range(s):
        if b1[i] == 0.0 and b2[i] == 0.0:
            continue
        for k in range(m):
            coeff = b1[i] * dW[..., k] + (b2[i] / sqrt_h) * I2[..., k, k]
            y += coeff[..., None] * cache.b_vals[i][k][k]
    if scheme.uses_cross_stages and m > 1:
        for i in range(s):
            if b3[i] == 0.0 and b4[i] == 0.0:
                continue
            for k in range(m):
                for l in range(m):
                    if k == l:
                        continue
                    coeff = b3[i] * dW[..., k] + (b4[i] / sqrt_h) * I2[..., k, l]
                    y += coeff[..., None] * cache.b_vals[i][k][l]
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
            dW, I2 = sample_batch(m, h, 7, np.arange(5, dtype=np.uint64), 0)
        else:
            y = problem.x0
            dW, I2 = sample_batch(m, h, 7, 0, 0)
        cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, I2)
        for theta in (0.0, 0.3, 1.0):
            want = dense_reference(cache, scheme, theta)
            got = evaluate_dense(cache, scheme.dense_weights(theta))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [n for n in scheme_names()
                                      if builtin_scheme(n).uses_cross_stages])
    def test_noise_sums_in_order_on_a_sampled_batch(self, name):
        # the diagonal family's sum comes before the cross family's; on 4096
        # sampled paths, summing them the other way round changes bits
        problem, scheme, h = system2d_problem(), builtin_scheme(name), 0.3
        dW, I2 = sample_batch(2, h, 7, np.arange(4096, dtype=np.uint64), 0)
        y = np.broadcast_to(problem.x0, (4096, 2)).copy()
        cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, I2)
        for theta in (0.3, 1.0):
            want = dense_reference(cache, scheme, theta)
            got = evaluate_dense(cache, scheme.dense_weights(theta))
            assert got.tobytes() == want.tobytes()


class TestRowTiles:
    """A batch of more than _TILE rows is combined one row tile at a time,
    with the same operations in the same order on row views: the bytes and
    layout of one pass, and no temporary the size of the batch."""

    @pytest.mark.parametrize("order", ("F", "C"))
    @pytest.mark.parametrize("theta", (0.3, 1.0))
    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("batched", (False, True),
                             ids=("enumeration", "paths"))
    def test_same_bytes_and_layout(self, monkeypatch, batched, m, theta,
                                   order):
        problem = LIN if m == 1 else system2d_problem()
        scheme, h, rows = builtin_scheme("CRDI3WM"), 0.3, 50
        y = np.array(np.random.default_rng(3).uniform(
            -2, 2, (rows, problem.dim_state)), order=order)
        if batched:
            dW, I2 = sample_batch(m, h, 7, np.arange(rows, dtype=np.uint64),
                                  0)
        else:
            # an enumeration step: one outcome's increments for every row
            dW, I2, _ = (a[-1] for a in enumerate_outcomes(m, h))
        cache = compute_step_arrays(scheme, problem, 0.2, y, h, dW, I2)
        if m > 1:
            assert cache.b_vals[0][0][1] is not None  # the cross family ran
        weights = scheme.dense_weights(theta)
        want = evaluate_dense(cache, weights)
        # 7 rows a tile: 7 whole tiles and one of 1 row
        monkeypatch.setattr(csrk.integrator, "_TILE", 7)
        got = evaluate_dense(cache, weights)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.flags[f"{order}_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_peak_is_the_output_and_a_few_tiles(self, monkeypatch):
        rows, tile = 1 << 16, 1 << 10
        scheme, h = builtin_scheme("CRDI3WM"), 0.25
        y = np.full((rows, 1), 0.1, order="F")
        dW, I2 = sample_batch(1, h, 7, np.arange(rows, dtype=np.uint64), 0)
        cache = compute_step_arrays(scheme, LIN, 0.0, y, h, dW, I2)
        weights = scheme.dense_weights(0.3)
        monkeypatch.setattr(csrk.integrator, "_TILE", tile)
        tracemalloc.start()
        try:
            out = evaluate_dense(cache, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass makes a product and a coefficient of the batch's rows
        # next to the output; a tile's temporaries are a few tile rows
        assert peak < out.nbytes + 8 * (8 * tile), (peak, out.nbytes)


class TestStepEnd:
    """After its last drift or diffusion call a step makes nothing
    batch-sized but the finiteness mask of that call's value: it keeps the
    I2 it was given."""

    SLACK = 8 << 10  # Python objects

    @pytest.mark.parametrize("problem_name", ("linear", "system2d"))
    def test_nothing_batch_sized_after_the_last_call(self, problem_name):
        base = LIN if problem_name == "linear" else system2d_problem()
        scheme, h, rows = builtin_scheme("CRDI3WM"), 0.25, 4096
        y = np.broadcast_to(base.x0, (rows, base.dim_state)).copy("F")
        dW, I2 = sample_batch(base.dim_noise, h, 7,
                              np.arange(rows, dtype=np.uint64), 0)
        compute_step_arrays(scheme, base, 0.0, y, h, dW, I2)  # warm caches
        at_return, mask = [0], [0]

        def spying(fn):
            def call(t, x):
                out = fn(t, x)
                # the peak restarts when the last call returns, from what
                # is alive then: the stage values and this call's input
                tracemalloc.reset_peak()
                at_return[0] = tracemalloc.get_traced_memory()[0]
                mask[0] = out.size  # np.isfinite's bools
                return out
            return call

        problem = dataclasses.replace(base, drift=spying(base.drift),
                                      diffusion=spying(base.diffusion))
        tracemalloc.start()
        try:
            cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, I2)
            beside = tracemalloc.get_traced_memory()[1] - at_return[0]
        finally:
            tracemalloc.stop()
        assert cache.I2 is I2
        assert beside <= mask[0] + self.SLACK, beside


class TestGivenI2:
    """A step takes any iterated-integral approximation: the cache keeps
    the I2 it is given and the dense output reads it, while no stage
    value depends on it."""

    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("batched", (False, True), ids=("single", "batch"))
    def test_cache_and_dense_use_the_given_i2(self, m, batched):
        problem = LIN if m == 1 else system2d_problem()
        scheme, h = builtin_scheme("CRDI3WM"), 0.3
        paths = np.arange(5, dtype=np.uint64) if batched else 0
        dW, I2 = sample_batch(m, h, 7, paths, 0)
        y = np.broadcast_to(problem.x0, dW.shape[:-1] + (problem.dim_state,))
        # Gaussian stand-ins, not 0.5 * (dW dW^T + V) for any V of the law
        given = np.random.default_rng(1).normal(0.0, h, I2.shape)
        cache = compute_step_arrays(scheme, problem, 0.0, y, h, dW, given)
        law = compute_step_arrays(scheme, problem, 0.0, y, h, dW, I2)
        assert cache.I2.tobytes() == given.tobytes()
        for a, b in zip(flat_arrays((cache.a_vals, cache.b_vals)),
                        flat_arrays((law.a_vals, law.b_vals))):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        for theta in (0.3, 1.0):
            weights = scheme.dense_weights(theta)
            got = evaluate_dense(cache, weights)
            assert got.tobytes() == dense_reference(
                cache, scheme, theta).tobytes()
            assert not np.array_equal(got, evaluate_dense(law, weights))


class TestStageInputLifetime:
    """A stage input lives through its own drift or diffusion call only."""

    @pytest.mark.parametrize("name", scheme_names())
    @pytest.mark.parametrize("problem_name", ("linear", "system2d"))
    @pytest.mark.parametrize("batched", (False, True), ids=("single", "batch"))
    def test_earlier_inputs_dead_at_each_call(self, name, problem_name,
                                              batched):
        base = LIN if problem_name == "linear" else system2d_problem()
        scheme, h, m = builtin_scheme(name), 0.3, base.dim_noise
        rows = 64 if batched else None
        if batched:
            y = np.broadcast_to(base.x0, (rows, base.dim_state)).copy("F")
            dW, I2 = sample_batch(m, h, 7, np.arange(rows, dtype=np.uint64), 0)
        else:
            y = base.x0.copy()
            dW, I2 = sample_batch(m, h, 7, 0, 0)
        inputs, alive = [], []

        def recording(fn):
            def call(t, x):
                # earlier stage inputs still alive, y_n itself aside
                alive.append(sum(r() is not None and r() is not y
                                 for r in inputs))
                inputs.append(weakref.ref(x))
                return fn(t, x)
            return call

        problem = dataclasses.replace(
            base, drift=recording(base.drift),
            diffusion=recording(base.diffusion))
        compute_step_arrays(scheme, problem, 0.0, y, h, dW, I2)
        assert len(alive) > scheme.stages
        assert alive == [0] * len(alive)


class TestPaths:
    def test_node_consistency(self):
        grid = TimeGrid.uniform(0.0, 2.0, 8)
        t = builtin_scheme("CRDI3WM")
        path = simulate_path(t, LIN, grid, seed=1)
        for n in range(grid.n_steps):
            dense1 = evaluate_dense(path.caches[n], t.dense_weights(1.0))
            assert np.array_equal(dense1, path.nodes[n + 1])

    def test_query_conventions(self):
        grid = TimeGrid.uniform(0.0, 2.0, 4)
        t = builtin_scheme("CRDI2WM")
        path = simulate_path(t, LIN, grid, seed=2)
        assert np.array_equal(path.value(0.0), LIN.x0)
        assert np.array_equal(path.value(2.0), path.nodes[-1])
        assert np.array_equal(path.value(0.5), path.nodes[1])
        mid = path.value(0.65)
        expect = evaluate_dense(path.caches[1], t.dense_weights(0.3))
        assert np.allclose(mid, expect, atol=0.0, rtol=1e-15)

    def test_zero_diffusion_seed_independent(self):
        ode = ode_problem(1.0, 1.0, 1.0)
        grid = TimeGrid.uniform(0.0, 1.0, 5)
        t = builtin_scheme("CRDI4WM")
        p1 = simulate_path(t, ode, grid, seed=0)
        p2 = simulate_path(t, ode, grid, seed=99, path=123)
        for a, b in zip(p1.nodes, p2.nodes):
            assert np.array_equal(a, b)

    def test_grid_outside_problem_interval(self):
        with pytest.raises(ValueError):
            simulate_path(
                builtin_scheme("EULER_OPT"), LIN,
                TimeGrid.uniform(0.0, 3.0, 3), seed=0,
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
                TimeGrid.uniform(0.0, 1.0, 5), seed=0,
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
            path = simulate_path(t, ode, grid, seed=0)
            if theta is None:
                err = path.nodes[-1][0] - math.e
            else:
                t_eval = grid.step(n // 2)[0] + theta / n
                err = path.value(t_eval)[0] - math.exp(t_eval)
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
        path = simulate_path(scheme, problem, grid, seed=0)
        # dense queries must not add any evaluations
        for t_q in np.linspace(problem.t0, problem.T, 17):
            path.value(t_q)
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
    dW, I2 = sample_batch(problem.dim_noise, h, seed, 0, 0)
    cache = compute_step_arrays(scheme, problem, problem.t0, y, h, dW, I2)
    y_next = evaluate_dense(cache, scheme.dense_weights(1.0))
    out = evaluate_dense(cache, scheme.dense_weights(theta))
    if theta == 0.0:
        assert np.array_equal(out, y)
    elif theta == 1.0:
        assert np.array_equal(out, y_next)
    else:
        assert np.all(np.isfinite(out))
