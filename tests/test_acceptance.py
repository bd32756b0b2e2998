"""Acceptance suite: ten criteria, one pass/fail line each.

Every criterion prints ``ACCEPTANCE <n> [PASS|FAIL] <label>`` on the real
stdout (outside pytest capture) and then asserts.  Statistical criteria use
fixed seeds, so they are deterministic run to run.
"""

import math
import time

import numpy as np
import pytest

import csrk
from csrk import (
    Functional,
    TimeGrid,
    builtin_scheme,
    check_conditions,
    compute_step_arrays,
    empirical_order,
    evaluate_dense,
    exact_weak_expectation,
    grid_for_step,
    linear_problem,
    mc_expectation,
    moments_exact,
    ode_problem,
    sample_batch,
    scheme_names,
    simulate_path,
    system2d_problem,
)
from csrk.conditions import evaluate_condition
from csrk.tableau import ConditionId

LIN = linear_problem(1.5, 0.1, 0.1, 2.0)
FX = Functional("identity", 0)
FX2 = Functional("square", 0)


def _report(capsys, num, label, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    detail = f" -- {'; '.join(failures)}" if failures else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} [{status}] {label}{timing}{detail}",
              flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_order_conditions(capsys):
    t0 = time.perf_counter()
    failures = []
    for name in scheme_names():
        report = check_conditions(builtin_scheme(name), tol=1e-12)
        if not report.passed:
            bad = [str(r.cid) for r in report.records if not r.passed]
            failures.append(f"{name} fails {bad}")
    # negative controls
    r13 = evaluate_condition(
        builtin_scheme("EULER_OPT"), ConditionId("order2_at_one", 13), 1.0
    )
    if not r13 > 1e-12:
        failures.append("EULER_OPT unexpectedly satisfies condition 13")
    r4 = evaluate_condition(
        builtin_scheme("EULER_LINEAR"), ConditionId("continuous_order1", 4),
        0.5,
    )
    if abs(r4 - 0.25) > 1e-12:
        failures.append(f"EULER_LINEAR continuous cond 4 residual {r4} != 0.25")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(capsys, 1, "order-condition suite, tol 1e-12", failures, elapsed)


def test_criterion_02_increment_moments(capsys):
    t0 = time.perf_counter()
    failures = []
    h, rel = 0.37, 1e-14
    for m in (1, 2, 3):
        for k in range(m):
            checks = [
                ("E[I_k]", moments_exact(m, h, [(k,)]), 0.0),
                ("E[I_k^2]", moments_exact(m, h, [(k,)] * 2), h),
                ("E[I_k^4]", moments_exact(m, h, [(k,)] * 4), 3 * h * h),
            ]
            for l in range(m):
                checks.append(
                    ("E[I_kl]", moments_exact(m, h, [(k, l)]), 0.0)
                )
                checks.append(
                    ("E[I_kl^2]", moments_exact(m, h, [(k, l)] * 2),
                     h * h / 2)
                )
            for label, got, want in checks:
                tol = rel * max(abs(want), h)
                if abs(got - want) > tol:
                    failures.append(f"m={m} {label}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(capsys, 2, "exact increment moments m in {1,2,3}", failures,
            elapsed)


def _ode_slope(name, theta=None):
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


def test_criterion_03_ode_reduction(capsys):
    t0 = time.perf_counter()
    failures = []
    targets = {
        "EULER_LINEAR": 1.0, "EULER_OPT": 1.0,
        "CRDI1WM": 2.0, "CRDI2WM": 2.0,
        "CRDI3WM": 3.0, "CRDI4WM": 3.0, "CRDI5WM": 3.0,
    }
    for name, want in targets.items():
        got = _ode_slope(name)
        if abs(got - want) > 0.1:
            failures.append(f"{name} node slope {got:.3f} != {want} +- 0.1")
    for name in ("CRDI2WM", "CRDI3WM", "CRDI4WM", "CRDI5WM"):
        got = _ode_slope(name, theta=0.5)
        if got < 2.0:
            failures.append(f"{name} dense slope {got:.3f} < 2.0")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(capsys, 3, "ODE reduction orders", failures, elapsed)


def test_criterion_04_local_weak_order(capsys):
    t0 = time.perf_counter()
    failures = []
    hs = [2.0**-k for k in range(3, 8)]

    def local_slope(name, f, ref):
        t = builtin_scheme(name)
        pairs = []
        for h in hs:
            v = exact_weak_expectation(t, LIN, TimeGrid.uniform(0, h, 1), f)
            pairs.append((h, v - ref(h)))
        return empirical_order(pairs).slope

    ref2 = lambda h: 0.01 * math.exp(3.01 * h)
    ref1 = lambda h: 0.1 * math.exp(1.5 * h)
    for name in ("CRDI2WM", "CRDI3WM"):
        got = local_slope(name, FX2, ref2)
        if abs(got - 3.0) > 0.15:
            failures.append(f"{name} local slope {got:.3f} != 3.0 +- 0.15")
    for name in ("EULER_LINEAR", "EULER_OPT"):
        got = local_slope(name, FX, ref1)
        if abs(got - 2.0) > 0.15:
            failures.append(f"{name} local slope {got:.3f} != 2.0 +- 0.15")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(capsys, 4, "noise-free local weak order", failures, elapsed)


def test_criterion_05_global_weak_order(capsys):
    t0 = time.perf_counter()
    failures = []

    def global_slope(name):
        t = builtin_scheme(name)
        pairs = []
        for n in (4, 8, 16):
            g = TimeGrid.uniform(0.0, 2.0, n)
            v = exact_weak_expectation(t, LIN, g, FX2, outcome_cap=5 * 10**7)
            pairs.append((2.0 / n, v - 0.01 * math.exp(3.01 * 2.0)))
        return empirical_order(pairs).slope

    for name in ("CRDI2WM", "CRDI3WM"):
        got = global_slope(name)
        if got < 1.8:
            failures.append(f"{name} global slope {got:.3f} < 1.8")
    for name in ("EULER_LINEAR", "EULER_OPT"):
        got = global_slope(name)
        if abs(got - 1.0) > 0.25:
            failures.append(f"{name} global slope {got:.3f} != 1.0 +- 0.25")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    _report(capsys, 5, "noise-free global weak order N in {4,8,16}", failures,
            elapsed)


def _pooled(scheme, problem, f, t_eval, h, M, seeds, threads=1):
    """Average of per-seed MC estimates; variance of the pooled mean."""
    ests = [
        mc_expectation(scheme, problem, grid_for_step(problem, h), f, t_eval,
                       M, seed, threads=threads)
        for seed in seeds
    ]
    mean = sum(e.mean for e in ests) / len(ests)
    var = sum(e.variance_of_mean for e in ests) / len(ests) ** 2
    return mean, var


def test_criterion_06_published_bias_table(capsys):
    t0 = time.perf_counter()
    failures = []
    t = builtin_scheme("CRDI3WM")
    ref = 0.1 * math.exp(1.5 * 1.7)
    M, seeds = 10**6, (0, 1, 2)
    z99 = csrk.stats.normal_quantile(0.99)
    rows = []
    for h in (0.5, 0.25, 0.125, 0.0625):
        mean, var = _pooled(t, LIN, FX, 1.7, h, M, seeds, threads=4)
        rows.append((h, mean - ref, var))
    for (h, mu, var), target in zip(rows[:2], (-2.188e-2, -3.965e-3)):
        bound = max(3 * math.sqrt(var), 0.05 * abs(target))
        if abs(mu - target) > bound:
            failures.append(
                f"h={h}: mu {mu:.4e} not within {bound:.1e} of {target:.4e}"
            )
    # finer rows: |mu| keeps shrinking, up to 99% CI slack
    for (h_prev, mu_prev, var_prev), (h, mu, var) in zip(rows[1:], rows[2:]):
        slack = z99 * (math.sqrt(var) + math.sqrt(var_prev))
        if abs(mu) - abs(mu_prev) > slack:
            failures.append(
                f"|mu| grew from {abs(mu_prev):.2e} (h={h_prev}) to "
                f"{abs(mu):.2e} (h={h})"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(capsys, 6, "desk-scale published bias table (linear, t=1.7)",
            failures, elapsed)


def test_criterion_07_system2d_order(capsys):
    t0 = time.perf_counter()
    failures = []
    t = builtin_scheme("CRDI3WM")
    sys2 = system2d_problem()
    ref = sys2.reference_for(FX2).value(3.8)
    pairs = []
    for h in (2.0, 1.0, 0.5):
        est = mc_expectation(
            t, sys2, grid_for_step(sys2, h), FX2, 3.8, 10**6, 0, threads=4
        )
        pairs.append((h, est.mean - ref))
    slope = empirical_order(pairs).slope
    if abs(slope - 2.27) > 0.5:
        failures.append(f"slope {slope:.3f} != 2.27 +- 0.5")
    elapsed = time.perf_counter() - t0
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s >= 180s")
    _report(capsys, 7, "desk-scale order estimate (system2d, t=3.8)", failures,
            elapsed)


def test_criterion_08_published_digit_slopes(capsys):
    failures = []
    t1 = [
        (2**-1, -2.188e-2), (2**-2, -3.965e-3),
        (2**-3, -5.662e-4), (2**-4, -8.682e-5),
    ]
    t2 = [
        (2.0, -1.031e-2), (1.0, -2.161e-3),
        (0.5, -4.258e-4), (0.25, -9.392e-5),
    ]
    s1 = empirical_order(t1).slope
    s2 = empirical_order(t2).slope
    if abs(s1 - 2.66) > 0.02:
        failures.append(f"linear-table slope {s1:.4f} != 2.66 +- 0.02")
    if abs(s2 - 2.26) > 0.02:
        failures.append(f"system2d-table slope {s2:.4f} != 2.26 +- 0.02")
    _report(capsys, 8, "regression on the published table digits", failures)


def test_criterion_09_determinism(capsys):
    t0 = time.perf_counter()
    failures = []
    configs = [
        ("CRDI3WM", LIN, FX, 1.7, 0.25),
        ("CRDI3WM", system2d_problem(), FX2, 3.8, 1.0),
        ("CRDI2WM", LIN, FX2, 2.0, 0.5),
    ]
    for name, problem, f, t_eval, h in configs:
        t = builtin_scheme(name)
        grid = grid_for_step(problem, h)
        ests = [
            mc_expectation(t, problem, grid, f, t_eval, 10**5, 7,
                           threads=workers)
            for workers in (1, 3, 8)
        ]
        if not all(
            e.mean == ests[0].mean
            and e.variance_of_mean == ests[0].variance_of_mean
            for e in ests[1:]
        ):
            failures.append(f"{name}/{problem.label}: thread count changed "
                            "the result")
    elapsed = time.perf_counter() - t0
    _report(capsys, 9, "bit-identical results across thread counts", failures,
            elapsed)


def test_criterion_10_dense_consistency(capsys, counting):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(12345)
    problems = (LIN, system2d_problem())
    names = scheme_names()
    for trial in range(60):
        name = names[rng.integers(len(names))]
        problem = problems[rng.integers(2)]
        scheme = builtin_scheme(name)
        h = float(rng.uniform(0.05, 1.0))
        y = problem.x0 * (1 + 0.1 * rng.standard_normal(problem.dim_state))
        dW, V = sample_batch(problem.dim_noise, h, int(rng.integers(2**32)),
                             0, 0)
        cache = compute_step_arrays(scheme, problem, problem.t0, y, h, dW, V)
        y1 = evaluate_dense(cache, scheme.dense_weights(1.0))
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = evaluate_dense(cache, scheme.dense_weights(theta))
            if theta == 0.0 and not np.array_equal(out, y):
                failures.append(f"{name} theta=0 not bit-exact")
            if theta == 1.0 and not np.array_equal(out, y1):
                failures.append(f"{name} theta=1 not bit-exact")
    # evaluation-count contract
    for name in names:
        for base in problems:
            problem, counts = counting(base)
            scheme = builtin_scheme(name)
            N, s, m = 4, scheme.stages, problem.dim_noise
            grid = TimeGrid.uniform(problem.t0, problem.T, N)
            path = simulate_path(scheme, problem, grid, seed=1)
            for tq in np.linspace(problem.t0, problem.T, 11):
                path.value(tq)
            cross = N * s * m if scheme.uses_cross_stages and m > 1 else 0
            if counts["drift"] != N * s:
                failures.append(
                    f"{name}/{base.label}: drift count {counts['drift']} != "
                    f"{N * s}"
                )
            if counts["diffusion"] != N * s * m + cross:
                failures.append(
                    f"{name}/{base.label}: diffusion count "
                    f"{counts['diffusion']} != {N * s * m + cross}"
                )
    elapsed = time.perf_counter() - t0
    _report(capsys, 10, "dense-output consistency + evaluation counts",
            failures, elapsed)
