"""Path simulation, Monte Carlo and exact-enumeration weak-error estimation.

One routine, ``_advance``, takes every step, for two loops that differ only
in the states they step and where the increments come from:

* the path loop, ``_path_steps``, steps paths on counter-based draws,
  functions of (seed, path index, step), see streams.py.  The one Monte
  Carlo routine, ``mc_expectations_at``, runs it on fixed-size chunks of
  paths (states ``(B, d)``) and folds per-chunk mean/M2 statistics in
  ascending chunk order, so the result is bit-identical for any thread
  count given (seed, M).  A chunk reduces each eval point's f-values to
  its mean and M2 as soon as they exist, so it keeps two arrays of one
  value per eval point.  ``simulate_path`` runs the loop on one path
  (state ``(d,)``), so simulated path p is Monte Carlo path p, and keeps
  each step's cache for dense queries;
* the enumeration oracle expands the joint outcome tree level by level, in
  slices of at most ``_ENUM_SLICE`` states.  A level is stored as a list of
  row blocks, one per slice the next step reads, in outcome-major order
  (row ``o*R + i`` is outcome ``o`` applied to row ``i``).  Each step takes
  each slice through every row of the ``enumerate_outcomes`` table, then
  drops its block, so the level it reads shrinks as the next one fills.
  Row ``o*R + i`` has probability ``ps[o]`` times that of row ``i``.  The
  probabilities are two values: ``base``, those of the last level with at
  most ``_ENUM_SLICE`` rows, formed once its states have been stepped, and
  ``above``, the outcome probabilities ``ps`` of each step since.  So no
  probability array is larger than one slice: the final step forms
  ``ps[o] * (ps'[o'] * (... * base[i]))`` once per slice and adds the
  (outcome, slice) terms in outcome-major order.  It is exact up to
  floating-point arithmetic: the noise-free reference the MC machinery is
  validated against.

A non-finite stage value, state, f-value or enumerated expectation raises a
``BlowupError``; ``_advance`` names the step of a stage value or state and,
where the rows are paths, its path.  The tables measure the functional of the
given ``ReferenceSolution``; which reference to use is the caller's choice.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .increments import (
    CapacityError,
    check_step,
    enumerate_outcomes,
    outcome_count,
    sample_batch,
)
from .integrator import (
    BlowupError,
    StageCache,
    TimeGrid,
    _check_finite,
    compute_step_arrays,
    evaluate_dense,
)
from .sde import Functional, SdeProblem
from .streams import KeyedPaths, check_index
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
    "check_outcome_count",
    "check_fit_steps",
]

# paths per Monte Carlo chunk; fixed, since the chunks partition the Welford
# reduction and another size moves the last bits of every estimate
_CHUNK = 4096
# a grid stores every node, and csrk simulate every output row
_MAX_STEPS = 10**7
_ENUM_SLICE = 1 << 20
# default cap on an enumeration's tree leaves (outcome_cap, --outcome-cap)
_OUTCOME_CAP = 10**7


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


def grid_for_step(problem: SdeProblem, h: float) -> TimeGrid:
    """Uniform grid with step h, which must divide the horizon."""
    check_step(h)
    span = problem.T - problem.t0
    n_exact = span / h
    if not math.isfinite(n_exact):
        # the horizon is named where even a grid of the step limit over it
        # overflows a float
        if not math.isfinite(span * _MAX_STEPS):
            raise ValueError(f"the horizon {span} over steps of {h} "
                             "overflows a float")
        raise ValueError(f"step {h} is too small for the horizon {span}")
    n = round(n_exact)
    if n > _MAX_STEPS:
        raise ValueError(f"step {h} on the horizon {span} asks for "
                         f"{n_exact:.6g} steps, above the limit {_MAX_STEPS}")
    if n < 1 or abs(n_exact - n) > 1e-9 * max(1.0, n):
        raise ValueError(f"step {h} does not divide the horizon {span}")
    return TimeGrid.uniform(problem.t0, problem.T, n)


# ---------------------------------------------------------------------------
# the step, and paths with dense output
# ---------------------------------------------------------------------------

def _advance(scheme, problem, grid, n, y, dW, I2, weights, paths=None):
    """Step n of the grid from states y: (cache, Y(t_n + theta h_n)), where
    ``weights`` is ``scheme.dense_weights(theta)``.

    A non-finite stage value or new state raises a BlowupError with its
    step set, and with its path: the entry of ``paths`` at the failing
    batch row, or None without ``paths``, whose rows are not paths.
    """
    t_n, h_n = grid.step(n)
    try:
        cache = compute_step_arrays(scheme, problem, t_n, y, h_n, dW, I2)
        y = evaluate_dense(cache, weights)
        _check_finite(y, None, None, None, y.ndim > 1)
    except BlowupError as exc:
        exc.step = n
        exc.path = None if paths is None else int(paths.flat[exc.path or 0])
        raise
    return cache, y


@dataclass(frozen=True)
class ContinuousPath:
    grid: TimeGrid
    scheme: CsrkTableau
    caches: tuple[StageCache, ...]
    nodes: tuple[np.ndarray, ...]  # nodes[n+1] is dense(theta=1) of step n

    def value(self, t: float):
        """Y(t); at a node, the same bits as ``nodes``."""
        n = self.grid.locate(t)[0]
        return _dense_value(self.scheme, self.caches[n], t)


def _dense_value(scheme, cache, t):
    """Y(t) from the cache of the step that starts at or before t; at that
    step's end theta is exactly 1, so this gives the node's value."""
    theta = (t - cache.t_n) / cache.h
    return evaluate_dense(cache, scheme.dense_weights(theta))


def simulate_path(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    seed: int,
    path: int = 0,
) -> ContinuousPath:
    """Monte Carlo path ``path`` of ``seed``, with every step's cache kept
    for dense queries."""
    # np.uint64 would truncate a float index, and overflow outside 64 bits
    check_index("path", path)
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
    weights at theta = 1.
    """
    m = problem.dim_noise
    y = np.broadcast_to(problem.x0, paths.shape + (problem.dim_state,)
                        ).copy(order="F")
    for n in range(n_steps):
        # the increments go straight into the step, whose cache keeps them
        cache, y = _advance(scheme, problem, grid, n, y,
                            *sample_batch(m, grid.step(n)[1], seed, paths, n),
                            step_weights, paths)
        yield n, cache, y
        # step n + 1 is taken with no cache of step n held here
        del cache


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    threads: int = 1,
) -> list[MonteCarloEstimate]:
    """Estimates of E f(Y(t)) at several times, sharing one set of paths.

    A non-finite f-value raises a BlowupError once its chunk has taken its
    last step, naming the time, step and first path of the lowest eval
    index with one.
    """
    z = normal_quantile(confidence)
    # refused here, not in the first chunk's worker
    check_index("seed", seed)
    problem.check_functional(f)
    eval_points = [grid.locate(t) for t in eval_times]
    if not eval_points:
        raise ValueError("need at least one evaluation time")
    check_index("M", M, 2)
    check_index("threads", threads, 1)
    # the dense weights and the eval points of each step are built here,
    # not on every chunk and step
    step_weights = scheme.dense_weights(1.0)
    by_step: dict[int, list] = {}
    for idx, (n, theta) in enumerate(eval_points):
        by_step.setdefault(n, []).append(
            (idx, theta, scheme.dense_weights(theta)))

    n_eval = len(eval_points)

    def chunk(start):
        count = min(_CHUNK, M - start)
        # the stream keys of the chunk's paths, computed once for all steps
        paths = KeyedPaths(seed,
                           np.arange(start, start + count, dtype=np.uint64))
        mean, m2 = np.empty(n_eval), np.empty(n_eval)
        # eval index -> first path with a non-finite f-value; raised after
        # the last step, so a state blow-up at a later step comes first
        bad = {}
        for n, cache, y in _path_steps(scheme, problem, grid, seed, paths,
                                       max(by_step) + 1, step_weights):
            for idx, theta, weights in by_step.get(n, ()):
                vals = f(y if theta == 1.0 else evaluate_dense(cache, weights))
                # no mask outlives the test: one held across the steps let
                # the C allocator hand the step temporaries back to the
                # kernel after every chunk (70 page faults a chunk)
                if not np.isfinite(vals).all():
                    bad[idx] = start + int(np.argmin(np.isfinite(vals)))
                    continue
                # the bits of a row of a C-ordered (n_eval, count)
                # reduction; vals.mean() and .sum() are these reductions
                # behind a Python wrapper
                mean[idx] = np.add.reduce(vals, axis=None) / vals.size
                dev = vals - mean[idx]
                m2[idx] = np.add.reduce(np.square(dev, out=dev), axis=None)
            # nor here: the next step is taken with one cache alive, its own
            del cache
        if bad:
            idx = min(bad)
            raise BlowupError(t_n=float(eval_times[idx]), family="f",
                              step=eval_points[idx][0], path=bad[idx])
        return count, mean, m2

    starts = range(0, M, _CHUNK)
    # more workers than usable CPUs only pass the GIL back and forth, and
    # more than the chunks would have nothing to run
    workers = min(threads, _usable_cpus(), len(starts))
    # both maps yield in ascending chunk order, which fixes the reduction
    if workers > 1:
        # imported here: a run on one worker needs no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
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
    threads: int = 1,
) -> MonteCarloEstimate:
    return mc_expectations_at(
        scheme, problem, grid, f, [t_eval], M, seed, confidence, threads,
    )[0]


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def check_outcome_count(m: int, n_steps: int, outcome_cap: int) -> None:
    """Refuse an enumeration of n_steps steps whose outcome tree has more
    than outcome_cap leaves."""
    check_index("outcome_cap", outcome_cap, 1)
    k, count, n = outcome_count(m), 1, 0
    # multiplied up to the cap only, so a huge n_steps costs nothing; the
    # cap comes first, as it also refuses a step count past 2**64
    while n < n_steps:
        count, n = count * k, n + 1
        if count > outcome_cap:
            raise CapacityError(
                f"{k}^{n_steps} outcome sequences exceed the cap "
                f"{outcome_cap} (outcome_cap, --outcome-cap on the command "
                "line); use mc_expectation instead"
            )
    check_index("n_steps", n_steps, 1)


def exact_weak_expectation(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    f: Functional,
    theta_eval: float = 1.0,
    outcome_cap: int = _OUTCOME_CAP,
) -> float:
    """E f(Y) by exhaustive expansion of the joint outcome tree.

    ``theta_eval`` applies to the final step, so the value is
    E f(Y(t_{N-1} + theta_eval * h_{N-1})).  Exact up to floating point;
    a non-finite stage value or expectation raises a BlowupError.
    """
    # the weights refuse a theta_eval outside [0, 1], before any step
    weights = scheme.dense_weights(1.0)
    final_weights = scheme.dense_weights(theta_eval)
    problem.check_functional(f)
    m, N = problem.dim_noise, grid.n_steps
    check_outcome_count(m, N, outcome_cap)
    # the level's R rows in blocks: block b holds rows [b*S, (b+1)*S), the
    # slice the next step reads, for S = _ENUM_SLICE
    rows, blocks = 1, [problem.x0[None, :].copy()]
    # the level's probabilities: those of the last level with at most one
    # slice of rows, and the outcome probabilities of each step since, so no
    # probability array is larger than one slice
    base, above = np.ones(1), []
    for n in range(N - 1):
        outs = enumerate_outcomes(m, grid.step(n)[1])
        new_rows = outs[2].size * rows
        new_blocks = [None] * -(-new_rows // _ENUM_SLICE)
        for b in range(len(blocks)):
            for o, (dW, I2) in enumerate(zip(outs[0], outs[1])):
                # [1]: keep no cache alive into the next slice's step
                y = _advance(scheme, problem, grid, n, blocks[b], dW, I2,
                             weights)[1]
                _store(new_blocks, new_rows, o * rows + b * _ENUM_SLICE, y)
            # every outcome has stepped this slice: the level shrinks as
            # the next one fills
            blocks[b] = None
        # level n's probabilities, formed once its states are gone and
        # only if they fit one slice
        if rows <= _ENUM_SLICE:
            base, above = _row_probs(base, above, 0, rows), []
        above.append(outs[2])
        rows, blocks = new_rows, new_blocks
    n = N - 1
    outs = enumerate_outcomes(m, grid.step(n)[1])
    # a slice's probabilities serve all its outcomes, and each term is kept
    # until the last slice, to be added in outcome-major order
    terms = np.empty((outs[2].size, len(blocks)))
    for b in range(len(blocks)):
        lo = b * _ENUM_SLICE
        probs = _row_probs(base, above, lo, lo + blocks[b].shape[0])
        for o, (dW, I2, p) in enumerate(zip(*outs)):
            # y lives into the next step call: a heap block above the step's
            # temporaries keeps the C allocator from handing them back to
            # the kernel between calls (3x the page faults)
            y = _advance(scheme, problem, grid, n, blocks[b], dW, I2,
                         final_weights)[1]
            terms[o, b] = p * float(probs @ f(y))
        blocks[b] = None
    # a left fold: np.sum's pairwise order, or the compensated sum() of
    # Python 3.12, would move the last bits
    total = 0.0
    for term in terms.flat:
        total += term
    if not math.isfinite(total):
        t_n, h_n = grid.step(n)
        raise BlowupError(t_n=t_n + theta_eval * h_n, family="expectation",
                          step=n)
    return float(total)


def _store(blocks, rows, start, y):
    """Write y to rows start, start + 1, ... of a level of ``rows`` rows kept
    in blocks of _ENUM_SLICE rows; a block is allocated on its first write,
    and a range that straddles two blocks is written in two pieces."""
    while y.shape[0]:
        b, r = divmod(start, _ENUM_SLICE)
        if blocks[b] is None:
            size = min(_ENUM_SLICE, rows - b * _ENUM_SLICE)
            blocks[b] = np.empty((size, y.shape[1]), order="F")
        k = min(y.shape[0], _ENUM_SLICE - r)
        blocks[b][r:r + k] = y[:k]
        start, y = start + k, y[k:]


def _row_probs(base, above, lo, hi):
    """Probabilities of rows [lo, hi) of the level given by ``base``, the
    probabilities of an earlier level, and ``above``, the outcome
    probabilities of each step since.  Row o*R + i of a level has ps[o]
    times the probability of row i of the level before, so a row gets
    ps[o] * (ps'[o'] * (... * base[i])), innermost level first."""
    out = np.empty(hi - lo)
    R = base.size
    for q, a, b in _runs(lo, hi, R):
        out[a:b] = base[lo + a - q * R:lo + b - q * R]
    for ps in above:
        for q, a, b in _runs(lo, hi, R):
            out[a:b] *= ps[q % ps.size]
        R *= ps.size
    return out


def _runs(lo, hi, R):
    """(q, a, b) for each run of R rows that [lo, hi) meets: run q, as
    rows [a, b) counted from lo."""
    for q in range(lo // R, (hi - 1) // R + 1):
        yield q, max(lo, q * R) - lo, min(hi, (q + 1) * R) - lo


# ---------------------------------------------------------------------------
# tables and regression
# ---------------------------------------------------------------------------

def error_table(
    scheme, problem, reference, t_eval, h_list, M, seed,
    confidence: float = 0.9,
    threads: int = 1,
) -> list[ErrorRecord]:
    """One MC estimate of ``reference.functional`` per step size, less the
    reference value at ``t_eval``."""
    if len(h_list) == 0:
        raise ValueError("need at least one step size")
    exact = reference.at(t_eval)
    # every step size is checked before the first estimate is run
    grids = [grid_for_step(problem, h) for h in h_list]
    records = []
    for h, grid in zip(h_list, grids):
        est = mc_expectation(scheme, problem, grid, reference.functional,
                             t_eval, M, seed, confidence, threads)
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

    A non-finite error is refused; zero-error pairs are dropped, with a
    warning once the others are known to span at least two distinct step
    sizes, so a refused fit warns of nothing.
    """
    pairs, zeros = [], []
    for h, err in errors:
        check_step(h)
        if not math.isfinite(err):
            raise ValueError(f"error at h={h} must be finite, got {err}")
        if err == 0.0:
            zeros.append(h)
            continue
        pairs.append((float(h), abs(float(err))))
    check_fit_steps([h for h, _ in pairs])
    for h in zeros:
        warnings.warn(f"dropping zero error at h={h} from order fit")
    # math.log2, not np.log2, whose SIMD loops round differently on CPUs
    # with and without AVX-512
    x = np.array([math.log2(h) for h, _ in pairs])
    y = np.array([math.log2(e) for _, e in pairs])
    # the normal equations about the means, in ufunc sums, whose bits
    # depend neither on the CPU's BLAS kernel (as np.polyfit's do) nor on
    # the Python version (as sum()'s do)
    x_mean, y_mean = np.add.reduce(x) / x.size, np.add.reduce(y) / y.size
    dx = x - x_mean
    slope = np.add.reduce(dx * (y - y_mean)) / np.add.reduce(dx * dx)
    intercept = y_mean - slope * x_mean
    return OrderEstimate(tuple(pairs), float(slope), float(intercept))


def dense_error_profile(
    scheme, problem, reference, h, theta_list, M, seed,
    confidence: float = 0.9,
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
    grid = grid_for_step(problem, h)
    times, thetas = [], []
    for n in range(grid.n_steps):
        t_n, h_n = grid.step(n)
        for th in theta_list:
            times.append(t_n + th * h_n)
            thetas.append(th)
    ests = mc_expectations_at(
        scheme, problem, grid, reference.functional, times, M, seed,
        confidence, threads,
    )
    return [(t, th, _error_record(h, est, reference.at(t)))
            for t, th, est in zip(times, thetas, ests)]
