"""Path simulation, Monte Carlo and exact-enumeration weak-error estimation.

One routine, ``_advance``, takes every step, for two loops that differ only
in the states they step and where the increments come from:

* the path loop, ``_path_steps``, steps paths on counter-based draws,
  functions of (seed, path index, step), see streams.py.  The one Monte
  Carlo routine, ``mc_expectations_at``, runs it on fixed-size chunks of
  paths (states ``(B, d)``) and folds per-chunk mean/M2 statistics in
  ascending chunk order, so the result is bit-identical for any thread
  count given (seed, M, chunk size).  Each worker thread writes the f-values
  and their squared deviations of every chunk it runs into one statistics
  block, allocated on its first chunk and sized by the largest chunk run,
  so no chunk faults a fresh block in.  ``simulate_path`` runs it on one path
  (state ``(d,)``), so simulated path p is Monte Carlo path p, and keeps
  each step's cache for dense queries;
* the enumeration oracle expands the joint outcome tree level by level, one
  row of the ``enumerate_outcomes`` table at a time, in slices of at most
  ``_ENUM_SLICE`` states.  Each step writes the next level into one array
  in outcome-major order (row ``o*R + i`` is outcome ``o`` applied to row
  ``i``).  Probabilities stay one level behind: the oracle keeps those of
  the level before and the step's outcome probabilities ``ps``, and forms
  ``ps[o] * probs[i]`` for the whole level at the start of the next step,
  or slice by slice in the final step.  It is exact up to floating-point
  arithmetic: the noise-free reference the MC machinery is validated
  against.

A non-finite stage value, state, f-value or enumerated expectation raises a
``BlowupError``.  The tables measure the functional of the given
``ReferenceSolution``; which reference to use is the caller's choice.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .increments import (
    CapacityError,
    enumerate_outcomes,
    outcome_count,
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
from .streams import KeyedPaths
from .tableau import CsrkTableau

__all__ = [
    "ContinuousPath",
    "simulate_path",
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
    "check_outcome_count",
    "check_fit_steps",
    "DEFAULT_CHUNK_SIZE",
]

DEFAULT_CHUNK_SIZE = 4096
# a grid stores every node, and a simulated path every step's cache
_MAX_STEPS = 10**7
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
    span = problem.T - problem.t0
    n_exact = span / h
    if not math.isfinite(n_exact):
        raise ValueError(f"step {h} is too small for the horizon {span}")
    n = round(n_exact)
    if n > _MAX_STEPS:
        raise ValueError(f"step {h} on the horizon {span} asks for "
                         f"{n_exact:.6g} steps, above the limit {_MAX_STEPS}")
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
# the step, and paths with dense output
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
    seed: int,
    path: int = 0,
) -> ContinuousPath:
    """Monte Carlo path ``path`` of ``seed``, with every step's cache kept
    for dense queries."""
    if grid.t0 < problem.t0 or grid.T > problem.T:
        raise ValueError("grid exceeds the problem's time interval")
    caches, nodes = [], [problem.x0.copy()]
    for _, cache, y in _path_steps(scheme, problem, grid, seed,
                                   np.uint64(path), grid.n_steps,
                                   scheme.dense_weights(1.0)):
        caches.append(cache)
        nodes.append(y)
    return ContinuousPath(grid, scheme, tuple(caches), tuple(nodes))


# ---------------------------------------------------------------------------
# the path loop, and the chunked Monte Carlo core
# ---------------------------------------------------------------------------

def _path_steps(scheme, problem, grid, seed, paths, n_steps, step_weights):
    """Steps 0 .. n_steps-1 from x0 of one path (``paths`` 0-d, states
    ``(d,)``) or of a batch (states ``(B, d)``): yields (n, cache, y).

    Step n of path p draws from (seed, p, n); ``step_weights`` are the dense
    weights at theta = 1.  A BlowupError leaves with its step and path set.
    """
    m = problem.dim_noise
    y = np.broadcast_to(problem.x0, paths.shape + (problem.dim_state,)).copy()
    for n in range(n_steps):
        dW, V = sample_batch(m, grid.step(n)[1], seed, paths, n)
        try:
            cache, y = _advance(scheme, problem, grid, n, y, dW, V,
                                step_weights)
        except BlowupError as exc:
            # exc.path is the failing batch row, None for a single path
            exc.path = int(paths.flat[exc.path or 0])
            raise
        if not np.isfinite(y).all():
            path = int(paths.flat[np.argmin(np.isfinite(y).all(axis=-1))])
            raise BlowupError(step=n, path=path)
        yield n, cache, y


def _combine(acc, other):
    """Welford-style combination of (n, mean, M2) accumulators."""
    n_a, mean_a, m2_a = acc
    n_b, mean_b, m2_b = other
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


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
    """Estimates of E f(Y(t)) at several times, sharing one set of paths.

    A non-finite f-value raises a BlowupError naming its path and time.
    """
    z = normal_quantile(confidence)
    eval_points = [grid.locate(t) for t in eval_times]
    if not eval_points:
        raise ValueError("need at least one evaluation time")
    if M < 2:
        raise ValueError("need at least M = 2 samples")
    if chunk_size < 1:
        raise ValueError("need chunk_size >= 1")
    # the dense weights and the eval points of each step are built here,
    # not on every chunk and step
    step_weights = scheme.dense_weights(1.0)
    by_step: dict[int, list] = {}
    for idx, (n, theta) in enumerate(eval_points):
        by_step.setdefault(n, []).append(
            (idx, theta, scheme.dense_weights(theta)))

    n_eval, rows = len(eval_points), min(chunk_size, M)
    # one statistics block per worker thread and run, sized by the largest
    # chunk: a fresh block per chunk is page-faulted in again every time
    worker = threading.local()

    def chunk(start):
        count = min(chunk_size, M - start)
        # the stream keys of the chunk's paths, computed once for all steps
        paths = KeyedPaths(seed,
                           np.arange(start, start + count, dtype=np.uint64))
        if not hasattr(worker, "block"):
            worker.block = np.empty(n_eval * rows)
        # the contiguous prefix has the layout of np.empty((n_eval, count))
        vals = worker.block[:n_eval * count].reshape(n_eval, count)
        for n, cache, y in _path_steps(scheme, problem, grid, seed, paths,
                                       max(by_step) + 1, step_weights):
            for idx, theta, weights in by_step.get(n, ()):
                v = y if theta == 1.0 else evaluate_dense(cache, weights)
                vals[idx] = f(v)
        if not np.isfinite(vals).all():
            # the first eval point with a non-finite value, then its first path
            idx, row = divmod(int(np.argmin(np.isfinite(vals))), count)
            raise BlowupError(t_n=float(eval_times[idx]), family="f",
                              step=eval_points[idx][0], path=start + row)
        mean = vals.mean(axis=1)
        # the deviations overwrite the values, by the ufuncs of
        # (vals - mean[:, None]) ** 2, so M2 keeps its bits
        np.subtract(vals, mean[:, None], out=vals)
        np.square(vals, out=vals)
        return count, mean, vals.sum(axis=1)

    starts = range(0, M, chunk_size)
    # both maps yield in ascending chunk order, which fixes the reduction
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            n, mean, m2 = functools.reduce(_combine, pool.map(chunk, starts))
    else:
        n, mean, m2 = functools.reduce(_combine, map(chunk, starts))
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

def check_outcome_count(m: int, n_steps: int, outcome_cap: int) -> None:
    """Refuse an enumeration of n_steps steps whose outcome tree has more
    than outcome_cap leaves."""
    k, count = outcome_count(m), 1
    # multiplied up to the cap only, so a huge n_steps costs nothing
    for _ in range(n_steps):
        count *= k
        if count > outcome_cap:
            raise CapacityError(
                f"{k}^{n_steps} outcome sequences exceed the cap "
                f"{outcome_cap} (outcome_cap, --outcome-cap on the command "
                "line); use mc_expectation instead"
            )


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
    E f(Y(t_{N-1} + theta_eval * h_{N-1})).  Exact up to floating point;
    a non-finite stage value or expectation raises a BlowupError.
    """
    if not 0.0 <= theta_eval <= 1.0:
        raise ValueError("theta_eval must lie in [0, 1]")
    m, N = problem.dim_noise, grid.n_steps
    check_outcome_count(m, N, outcome_cap)
    states = problem.x0[None, :].copy()
    # row o*R + i of states has probability ps[o] * probs[i]: probs are kept
    # one level behind the states, so the largest level stores none
    ps = probs = np.ones(1)
    step_weights = scheme.dense_weights(1.0)
    for n in range(N):
        outs = enumerate_outcomes(m, grid.step(n)[1])
        final = n == N - 1
        weights = scheme.dense_weights(theta_eval) if final else step_weights
        rows, total = states.shape[0], 0.0
        if not final:
            probs, ps = _row_probs(ps, probs, 0, rows), outs[2]
            new_states = np.empty((ps.size * rows, states.shape[1]))
        for o, (dW, V, p) in enumerate(zip(*outs)):
            for lo in range(0, rows, _ENUM_SLICE):
                hi = min(lo + _ENUM_SLICE, rows)
                # keep no cache alive into the next slice's step
                try:
                    y = _advance(scheme, problem, grid, n, states[lo:hi], dW,
                                 V, weights)[1]
                except BlowupError as exc:
                    exc.path = None  # a slice row is not a path
                    raise
                if final:
                    total += p * float(_row_probs(ps, probs, lo, hi) @ f(y))
                else:
                    new_states[o * rows + lo:o * rows + hi] = y
        if final:
            if not math.isfinite(total):
                t_n, h_n = grid.step(n)
                raise BlowupError(t_n=t_n + theta_eval * h_n,
                                  family="expectation", step=n)
            return float(total)
        states = new_states
    raise AssertionError("unreachable")


def _row_probs(ps, probs, lo, hi):
    """Probabilities of rows [lo, hi) of a level whose row o*R + i has
    probability ps[o] * probs[i], where R = probs.size."""
    R = probs.size
    out = np.empty(hi - lo)
    # [lo, hi) may span several outcome blocks
    for o in range(lo // R, (hi - 1) // R + 1):
        a, b = max(lo, o * R), min(hi, (o + 1) * R)
        np.multiply(ps[o], probs[a - o * R:b - o * R], out=out[a - lo:b - lo])
    return out


# ---------------------------------------------------------------------------
# tables and regression
# ---------------------------------------------------------------------------

def error_table(
    scheme, problem, reference, t_eval, h_list, M, seed,
    confidence: float = 0.9,
    allow_shortened: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> list[ErrorRecord]:
    """One MC estimate of ``reference.functional`` per step size, less the
    reference value at ``t_eval``."""
    if len(h_list) == 0:
        raise ValueError("need at least one step size")
    exact = reference.at(t_eval)
    # every step size is checked before the first estimate is run
    grids = [grid_for_step(problem, h, allow_shortened) for h in h_list]
    records = []
    for h, grid in zip(h_list, grids):
        est = mc_expectation(scheme, problem, grid, reference.functional,
                             t_eval, M, seed, confidence, chunk_size, threads)
        records.append(_error_record(h, est, exact))
    return records


def _error_record(h, est: MonteCarloEstimate, exact: float) -> ErrorRecord:
    return ErrorRecord(h=float(h), mean_error=est.mean - exact,
                       variance_of_mean=est.variance_of_mean,
                       half_width=est.half_width)


def check_fit_steps(hs) -> None:
    """Refuse an order fit over fewer than two distinct step sizes."""
    hs = [float(h) for h in hs]
    if len(set(hs)) < 2:
        raise ValueError("order estimation needs nonzero errors at 2 or more "
                         f"distinct step sizes, got {hs}")


def empirical_order(errors) -> OrderEstimate:
    """Least-squares slope of log2|error| against log2 h of (h, error) pairs.

    Zero-error pairs are dropped with a warning; the others must span at
    least two distinct step sizes.
    """
    pairs = []
    for h, err in errors:
        if err == 0.0:
            warnings.warn(f"dropping zero error at h={h} from order fit")
            continue
        pairs.append((float(h), abs(float(err))))
    check_fit_steps([h for h, _ in pairs])
    x = np.log2([h for h, _ in pairs])
    y = np.log2([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    return OrderEstimate(tuple(pairs), float(slope), float(intercept))


def dense_error_profile(
    scheme, problem, reference, h, theta_list, M, seed,
    confidence: float = 0.9,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
):
    """Errors of E f(Y(t_n + theta h)) against the reference, for f its
    ``reference.functional``, at every node and theta.

    One MC pass: each path's step caches are queried at all requested times.
    Returns a list of (t, theta, ErrorRecord) triples.
    """
    for th in theta_list:
        if not 0.0 <= th < 1.0:
            raise ValueError("theta values must lie in [0, 1)")
    if len(set(theta_list)) < len(theta_list):
        raise ValueError(f"theta values must be distinct, got {theta_list}")
    grid = exact_grid(problem, h)
    times, thetas = [], []
    for n in range(grid.n_steps):
        t_n, h_n = grid.step(n)
        for th in theta_list:
            times.append(t_n + th * h_n)
            thetas.append(th)
    ests = mc_expectations_at(
        scheme, problem, grid, reference.functional, times, M, seed,
        confidence, chunk_size, threads,
    )
    return [(t, th, _error_record(h, est, reference.at(t)))
            for t, th, est in zip(times, thetas, ests)]
