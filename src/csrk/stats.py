"""Path simulation, Monte Carlo and exact-enumeration weak-error estimation.

One routine, ``_advance``, takes every step, for three callers that differ
only in the states they step and where the increments come from:

* ``simulate_path`` steps one path (state ``(d,)``) on draws from its
  ``PathStream`` and keeps each step's cache for dense queries;
* the MC engine steps fixed-size chunks of paths (states ``(B, d)``) on
  counter-based draws, functions of (seed, path index, step), see
  streams.py.  Per-chunk mean/M2 statistics are folded in ascending chunk
  order, so the result is bit-identical for any thread count given (seed,
  M, chunk size);
* the enumeration oracle expands the joint outcome tree level by level, one
  row of the ``enumerate_outcomes`` table at a time, in slices of at most
  ``_ENUM_SLICE`` states.  It is exact up to floating-point arithmetic: the
  noise-free reference the MC machinery is validated against.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .increments import (
    CapacityError,
    enumerate_outcomes,
    outcome_count,
    sample,
    sample_batch,
)
from .integrator import (
    BlowupError,
    StageCache,
    TimeGrid,
    compute_step_arrays,
    evaluate_dense,
)
from .sde import Functional, SdeProblem
from .streams import KeyedPaths, PathStream
from .tableau import CsrkTableau

__all__ = [
    "ContinuousPath",
    "simulate_path",
    "query",
    "MonteCarloEstimate",
    "ErrorRecord",
    "OrderEstimate",
    "mc_expectation",
    "mc_expectations_at",
    "exact_weak_expectation",
    "error_table",
    "empirical_order",
    "dense_error_profile",
    "grid_for_step",
    "exact_grid",
    "check_step",
    "DEFAULT_CHUNK_SIZE",
]

DEFAULT_CHUNK_SIZE = 4096
_ENUM_SLICE = 1 << 20


def normal_quantile(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    variance_of_mean: float
    half_width: float
    samples: int
    seed: int
    eval_time: float
    confidence: float


@dataclass(frozen=True)
class ErrorRecord:
    h: float
    mean_error: float
    variance_of_mean: float
    half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean_error - self.half_width

    @property
    def ci_high(self) -> float:
        return self.mean_error + self.half_width


@dataclass(frozen=True)
class OrderEstimate:
    pairs: tuple[tuple[float, float], ...]  # (h, |error|)
    slope: float
    intercept: float


def check_step(h: float) -> None:
    """Refuse a step size that is not positive and finite."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, got {h}")


def _dividing_grid(problem: SdeProblem, h: float) -> TimeGrid | None:
    """Uniform grid with step h, or None if h does not divide the horizon."""
    check_step(h)
    n_exact = (problem.T - problem.t0) / h
    n = round(n_exact)
    if n >= 1 and abs(n_exact - n) <= 1e-9 * max(1.0, n):
        return TimeGrid.uniform(problem.t0, problem.T, n)
    return None


def exact_grid(problem: SdeProblem, h: float) -> TimeGrid:
    """Uniform grid with step h, which must divide the horizon."""
    grid = _dividing_grid(problem, h)
    if grid is None:
        raise ValueError(
            f"step {h} does not divide the horizon {problem.T - problem.t0}")
    return grid


def grid_for_step(problem: SdeProblem, h: float,
                  allow_shortened: bool = False) -> TimeGrid:
    """Uniform grid with step h; h must divide the horizon unless the caller
    explicitly allows a shortened final step."""
    grid = _dividing_grid(problem, h)
    if grid is not None:
        return grid
    span = problem.T - problem.t0
    if not allow_shortened:
        raise ValueError(
            f"step {h} does not divide the horizon {span}; pass "
            "allow_shortened (--allow-shortened on the command line) to "
            "accept a shortened final step"
        )
    n = math.floor(span / h)
    times = list(problem.t0 + h * np.arange(n + 1))
    if times[-1] < problem.T:
        times.append(problem.T)
    return TimeGrid(np.array(times))


# ---------------------------------------------------------------------------
# the step, and whole-path simulation with dense output
# ---------------------------------------------------------------------------

def _advance(scheme, problem, grid, n, y, dW, V, weights):
    """Step n of the grid from states y: (cache, Y(t_n + theta h_n)), where
    ``weights`` is ``scheme.dense_weights(theta)``.

    A BlowupError leaves with its step index set.
    """
    t_n, h_n = grid.step(n)
    try:
        cache = compute_step_arrays(scheme, problem, t_n, y, h_n, dW, V)
    except BlowupError as exc:
        exc.step = n
        raise
    return cache, evaluate_dense(cache, weights)


@dataclass(frozen=True)
class ContinuousPath:
    grid: TimeGrid
    scheme: CsrkTableau
    caches: tuple[StageCache, ...]
    nodes: tuple[np.ndarray, ...]  # nodes[n+1] is dense(theta=1) of step n

    def value(self, t: float):
        """Y(t); at a node, the same bits as ``nodes``."""
        n, theta = self.grid.locate(t)
        return evaluate_dense(self.caches[n], self.scheme.dense_weights(theta))


def simulate_path(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    stream: PathStream,
) -> ContinuousPath:
    """Whole-path simulation with fresh, independent increments per step."""
    if grid.t0 < problem.t0 or grid.T > problem.T:
        raise ValueError("grid exceeds the problem's time interval")
    step_weights = scheme.dense_weights(1.0)
    y = problem.x0.copy()
    caches, nodes = [], [y]
    for n in range(grid.n_steps):
        dW, V = sample(problem.dim_noise, grid.step(n)[1], stream)
        cache, y = _advance(scheme, problem, grid, n, y, dW, V, step_weights)
        caches.append(cache)
        nodes.append(y)
    return ContinuousPath(grid, scheme, tuple(caches), tuple(nodes))


def query(path: ContinuousPath, t: float):
    return path.value(t)


# ---------------------------------------------------------------------------
# chunked Monte Carlo core
# ---------------------------------------------------------------------------

def _chunk_values(scheme, problem, grid, step_weights, eval_points, f, seed,
                  start, count):
    """f-values at every eval point for paths [start, start+count).

    ``step_weights`` are the dense weights at theta = 1; each eval point is
    ``(n, theta, dense weights at theta)``.
    """
    m = problem.dim_noise
    # the stream keys of the chunk's paths, computed once for all its steps
    paths = KeyedPaths(seed, np.arange(start, start + count, dtype=np.uint64))
    by_step: dict[int, list] = {}
    for idx, (n, theta, weights) in enumerate(eval_points):
        by_step.setdefault(n, []).append((idx, theta, weights))
    last_step = max(by_step)
    y = np.broadcast_to(problem.x0, (count, problem.dim_state)).copy()
    vals = np.empty((len(eval_points), count))
    for n in range(last_step + 1):
        dW, V = sample_batch(m, grid.step(n)[1], seed, paths, n)
        try:
            cache, y = _advance(scheme, problem, grid, n, y, dW, V,
                                step_weights)
        except BlowupError as exc:
            exc.path += start
            raise
        for idx, theta, weights in by_step.get(n, ()):
            v = y if theta == 1.0 else evaluate_dense(cache, weights)
            vals[idx] = f(v)
        if not np.isfinite(y).all():
            bad = ~np.isfinite(y).all(axis=-1)
            raise BlowupError(
                f"path {start + int(np.argmax(bad))} blew up at step {n}",
                step=n, path=start + int(np.argmax(bad)),
            )
    return vals


def _combine(acc, other):
    """Welford-style combination of (n, mean, M2) accumulators."""
    n_a, mean_a, m2_a = acc
    n_b, mean_b, m2_b = other
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def _mc_moments(scheme, problem, grid, eval_points, f, M, seed,
                chunk_size=DEFAULT_CHUNK_SIZE, threads=1):
    """Per-eval-point (count, mean, M2), deterministic in (seed, M, chunk)."""
    if M < 2:
        raise ValueError("need at least M = 2 samples")
    if chunk_size < 1:
        raise ValueError("need chunk_size >= 1")
    n_chunks = (M + chunk_size - 1) // chunk_size
    # the dense weights of the step and of each eval theta are built here,
    # not on every chunk and step
    step_weights = scheme.dense_weights(1.0)
    eval_points = [(n, theta, scheme.dense_weights(theta))
                   for n, theta in eval_points]

    def one(c):
        start = c * chunk_size
        count = min(chunk_size, M - start)
        vals = _chunk_values(
            scheme, problem, grid, step_weights, eval_points, f, seed, start,
            count,
        )
        mean = vals.mean(axis=1)
        m2 = ((vals - mean[:, None]) ** 2).sum(axis=1)
        return count, mean, m2

    # both maps yield in ascending chunk order, which fixes the reduction
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return functools.reduce(_combine, pool.map(one, range(n_chunks)))
    return functools.reduce(_combine, map(one, range(n_chunks)))


def mc_expectations_at(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    f: Functional,
    eval_times,
    M: int,
    seed: int,
    confidence: float = 0.9,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> list[MonteCarloEstimate]:
    """Estimates of E f(Y(t)) at several times, sharing one set of paths."""
    z = normal_quantile(confidence)
    eval_points = [grid.locate(t) for t in eval_times]
    if not eval_points:
        raise ValueError("need at least one evaluation time")
    n, mean, m2 = _mc_moments(
        scheme, problem, grid, eval_points, f, M, seed, chunk_size, threads
    )
    out = []
    for t, mu, s2 in zip(eval_times, mean, m2):
        var_mean = s2 / (n - 1) / n
        out.append(
            MonteCarloEstimate(
                mean=float(mu),
                variance_of_mean=float(var_mean),
                half_width=float(z * math.sqrt(var_mean)),
                samples=n,
                seed=seed,
                eval_time=float(t),
                confidence=confidence,
            )
        )
    return out


def mc_expectation(
    scheme, problem, grid, f, t_eval, M, seed,
    confidence: float = 0.9,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> MonteCarloEstimate:
    return mc_expectations_at(
        scheme, problem, grid, f, [t_eval], M, seed, confidence, chunk_size,
        threads,
    )[0]


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def exact_weak_expectation(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    f: Functional,
    theta_eval: float = 1.0,
    outcome_cap: int = 10**7,
) -> float:
    """E f(Y) by exhaustive expansion of the joint outcome tree.

    ``theta_eval`` applies to the final step, so the value is
    E f(Y(t_{N-1} + theta_eval * h_{N-1})).  Exact up to floating point.
    """
    if not 0.0 <= theta_eval <= 1.0:
        raise ValueError("theta_eval must lie in [0, 1]")
    m, N = problem.dim_noise, grid.n_steps
    k = outcome_count(m)
    if k**N > outcome_cap:
        raise CapacityError(
            f"{k}^{N} outcome sequences exceed the cap {outcome_cap}; "
            "use mc_expectation instead"
        )
    states = problem.x0[None, :].copy()
    probs = np.array([1.0])
    step_weights = scheme.dense_weights(1.0)
    for n in range(N):
        outs = enumerate_outcomes(m, grid.step(n)[1])
        final = n == N - 1
        weights = scheme.dense_weights(theta_eval) if final else step_weights
        new_states, new_probs, total = [], [], 0.0
        for dW, V, p in zip(*outs):
            for lo in range(0, states.shape[0], _ENUM_SLICE):
                sl = slice(lo, lo + _ENUM_SLICE)
                # keep no cache alive into the next slice's step
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
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# tables and regression
# ---------------------------------------------------------------------------

def error_table(
    scheme, problem, f, t_eval, h_list, M, seed,
    confidence: float = 0.9,
    provenance: str | None = None,
    allow_shortened: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> list[ErrorRecord]:
    """One MC estimate per step size against the problem's reference."""
    if len(h_list) == 0:
        raise ValueError("need at least one step size")
    ref = problem.reference_for(f, provenance)
    exact = ref.value(t_eval)
    # every step size is checked before the first estimate is run
    grids = [grid_for_step(problem, h, allow_shortened) for h in h_list]
    records = []
    for h, grid in zip(h_list, grids):
        est = mc_expectation(
            scheme, problem, grid, f, t_eval, M, seed, confidence,
            chunk_size, threads,
        )
        records.append(
            ErrorRecord(
                h=float(h),
                mean_error=est.mean - exact,
                variance_of_mean=est.variance_of_mean,
                half_width=est.half_width,
            )
        )
    return records


def empirical_order(records) -> OrderEstimate:
    """Least-squares slope of log2|error| against log2 h.

    Accepts ErrorRecords or (h, error) pairs; zero-error entries are dropped
    with a warning.
    """
    pairs = []
    for r in records:
        h, err = (r.h, r.mean_error) if isinstance(r, ErrorRecord) else r
        if err == 0.0:
            warnings.warn(f"dropping zero error at h={h} from order fit")
            continue
        pairs.append((float(h), abs(float(err))))
    if len(pairs) < 2:
        raise ValueError("order estimation needs at least 2 nonzero errors")
    x = np.log2([h for h, _ in pairs])
    y = np.log2([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    return OrderEstimate(tuple(pairs), float(slope), float(intercept))


def dense_error_profile(
    scheme, problem, f, h, theta_list, M, seed,
    confidence: float = 0.9,
    provenance: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
):
    """Errors of E f(Y(t_n + theta h)) at every node and theta.

    One MC pass: each path's step caches are queried at all requested times.
    Returns a list of (t, theta, ErrorRecord) triples.
    """
    for th in theta_list:
        if not 0.0 <= th < 1.0:
            raise ValueError("theta values must lie in [0, 1)")
    if len(set(theta_list)) < len(theta_list):
        raise ValueError(f"theta values must be distinct, got {theta_list}")
    ref = problem.reference_for(f, provenance)
    grid = exact_grid(problem, h)
    times, thetas = [], []
    for n in range(grid.n_steps):
        t_n, h_n = grid.step(n)
        for th in theta_list:
            times.append(t_n + th * h_n)
            thetas.append(th)
    ests = mc_expectations_at(
        scheme, problem, grid, f, times, M, seed, confidence, chunk_size,
        threads,
    )
    out = []
    for t, th, est in zip(times, thetas, ests):
        out.append(
            (
                t,
                th,
                ErrorRecord(
                    h=float(h),
                    mean_error=est.mean - ref.value(t),
                    variance_of_mean=est.variance_of_mean,
                    half_width=est.half_width,
                ),
            )
        )
    return out
