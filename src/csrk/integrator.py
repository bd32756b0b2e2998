"""One-step CSRK execution and dense output.

A step computes the three stage families in a single interleaved loop over
the stage index (strict lower triangularity makes this the unique
dependency-respecting order) and caches every drift/diffusion evaluation.
Dense output at any theta in [0, 1] then combines cached values with the
theta-dependent weights: no further function evaluations and no further
random draws.

All state arithmetic broadcasts over leading batch axes, so the same code
advances a single path (state shape ``(d,)``) or a whole chunk of paths
(state shape ``(B, d)``, increments ``(B, m)``/``(B, m, m)``).

A step evaluates drift and diffusion at every stage and stores the
iterated-integral matrix ``I2 = 0.5 * (dW dW^T + V)`` in its cache once, for
every dense evaluation of that step to read.  The dense weights depend only
on the scheme and theta.  ``evaluate_dense`` builds them on each call, unless
theta is a ``PlannedTheta`` that carries them: the Monte Carlo and
enumeration engines plan each theta of a run once, before the first step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .increments import StepIncrements, sample
from .sde import SdeProblem
from .streams import PathStream
from .tableau import CsrkTableau

__all__ = [
    "TimeGrid",
    "StageCache",
    "ContinuousPath",
    "BlowupError",
    "compute_step",
    "compute_step_arrays",
    "evaluate_dense",
    "simulate_path",
    "query",
]


class BlowupError(ArithmeticError):
    """A drift/diffusion evaluation returned a non-finite value.

    For batched states ``path`` is the batch row of the first non-finite
    value; Monte Carlo turns it into the global path index.
    """

    def __init__(self, msg, t_n=None, stage=None, family=None, step=None,
                 path=None):
        super().__init__(msg)
        self.t_n = t_n
        self.stage = stage
        self.family = family
        self.step = step
        self.path = path


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray  # strictly increasing, last node exactly T

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least two nodes")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t0: float, T: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError(f"need at least one step, got {n_steps}")
        # nodes by count so the last one lands on T exactly
        times = t0 + (T - t0) * np.arange(n_steps + 1) / n_steps
        times[-1] = T
        return cls(times)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def step(self, n: int) -> tuple[float, float]:
        """(t_n, h_n) of step n."""
        return float(self.times[n]), float(self.times[n + 1] - self.times[n])

    def locate(self, t: float) -> tuple[int, float]:
        """Step index and theta for time t; t = T maps to the last step."""
        if not self.times[0] <= t <= self.times[-1]:
            raise ValueError(f"time {t} outside [{self.t0}, {self.T}]")
        n = bisect.bisect_right(self.times, t) - 1
        n = min(n, self.n_steps - 1)
        t_n, h_n = self.step(n)
        return n, (t - t_n) / h_n


@dataclass(frozen=True)
class StageCache:
    """Cached evaluations of one step; immutable once built."""

    t_n: float
    h: float
    sqrt_h: float
    y_n: np.ndarray  # (..., d)
    dW: np.ndarray  # (..., m)
    V: np.ndarray  # (..., m, m)
    I2: np.ndarray  # (..., m, m): 0.5 * (dW dW^T + V)
    a_vals: tuple  # s arrays (..., d)
    b_diag: tuple  # s tuples of m arrays (..., d): b^k at H_i^(k)
    b_cross: tuple | None  # s tuples of m tuples of m arrays: b^k at Hhat_i^(l)


def _check_finite(arr, t_n, stage, family, batched):
    if not np.isfinite(arr).all():
        # batch row of the first non-finite value (C order: rows in order)
        row = None
        if batched:
            row = int(np.argmin(np.isfinite(arr))) // (arr.size // len(arr))
        raise BlowupError(
            f"non-finite {family} value at t={t_n}, stage {stage + 1}",
            t_n=t_n, stage=stage, family=family, path=row,
        )


def compute_step_arrays(
    scheme: CsrkTableau,
    problem: SdeProblem,
    t_n: float,
    y_n: np.ndarray,
    h: float,
    dW: np.ndarray,
    V: np.ndarray,
) -> StageCache:
    """Stage computation over possibly batched states."""
    if h <= 0:
        raise ValueError("need h > 0")
    s, m = scheme.stages, problem.dim_noise
    A0, A1, A2 = scheme.A0, scheme.A1, scheme.A2
    B0, B1, B2 = scheme.B0, scheme.B1, scheme.B2
    sqrt_h = math.sqrt(h)
    y_n = np.asarray(y_n, dtype=float)
    dW = np.asarray(dW, dtype=float)
    V = np.asarray(V, dtype=float)
    batched = y_n.ndim > 1
    cross = scheme.uses_cross_stages and m > 1
    a_vals: list = [None] * s
    b_diag: list = [None] * s
    b_cross: list = [None] * s if cross else None

    for i in range(s):
        H0 = y_n
        for j in range(i):
            if A0[i, j] != 0.0:
                H0 = H0 + (h * A0[i, j]) * a_vals[j]
            if B0[i, j] != 0.0:
                for r in range(m):
                    H0 = H0 + B0[i, j] * dW[..., r, None] * b_diag[j][r]
        a_vals[i] = np.asarray(
            problem.drift(t_n + scheme.c0[i] * h, H0), dtype=float
        )
        _check_finite(a_vals[i], t_n, i, "drift", batched)

        diag_i = []
        for k in range(m):
            Hk = y_n
            for j in range(i):
                if A1[i, j] != 0.0:
                    Hk = Hk + (h * A1[i, j]) * a_vals[j]
                if B1[i, j] != 0.0:
                    Hk = Hk + (sqrt_h * B1[i, j]) * b_diag[j][k]
            bmat = np.asarray(
                problem.diffusion(t_n + scheme.c1[i] * h, Hk), dtype=float
            )
            _check_finite(bmat, t_n, i, "diffusion", batched)
            diag_i.append(bmat[..., :, k])
        b_diag[i] = tuple(diag_i)

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
                    problem.diffusion(t_n + scheme.c2[i] * h, Hl), dtype=float
                )
                _check_finite(bmat, t_n, i, "cross diffusion", batched)
                for k in range(m):
                    if k != l:
                        cross_i[k][l] = bmat[..., :, k]
            b_cross[i] = tuple(tuple(row) for row in cross_i)

    return StageCache(
        t_n=t_n, h=h, sqrt_h=sqrt_h, y_n=y_n, dW=dW, V=V,
        I2=0.5 * (dW[..., :, None] * dW[..., None, :] + V),
        a_vals=tuple(a_vals), b_diag=tuple(b_diag),
        b_cross=tuple(b_cross) if cross else None,
    )


def compute_step(
    scheme: CsrkTableau,
    problem: SdeProblem,
    t_n: float,
    y_n: np.ndarray,
    h: float,
    inc: StepIncrements,
) -> StageCache:
    if inc.h != h:
        raise ValueError("increments were sampled for a different step size")
    return compute_step_arrays(scheme, problem, t_n, y_n, h, inc.dW, inc.V)


class PlannedTheta(float):
    """A theta together with its scheme's dense weights, built once.

    It is the float theta in every respect; ``evaluate_dense`` reads its
    weights instead of building them, if they belong to the scheme it is
    given.  The engines plan the thetas of a run this way, since they
    evaluate each one on every chunk and step.
    """

    __slots__ = ("scheme", "weights")

    def __new__(cls, scheme: CsrkTableau, theta: float):
        self = super().__new__(cls, theta)
        self.scheme = scheme
        self.weights = scheme.dense_weights(theta)
        return self


def evaluate_dense(cache: StageCache, scheme: CsrkTableau, theta: float):
    """Y(t_n + theta * h) from cached evaluations; pure in the cache."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if theta == 0.0:
        return cache.y_n.copy()
    s = scheme.stages
    m = cache.dW.shape[-1]
    h, sqrt_h = cache.h, cache.sqrt_h
    if isinstance(theta, PlannedTheta) and theta.scheme is scheme:
        al, b1, b2, b3, b4 = theta.weights
    else:
        al, b1, b2, b3, b4 = scheme.dense_weights(theta)
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


@dataclass(frozen=True)
class ContinuousPath:
    grid: TimeGrid
    scheme: CsrkTableau
    caches: tuple[StageCache, ...]
    nodes: tuple[np.ndarray, ...]  # nodes[n+1] is dense(theta=1) of step n

    def value(self, t: float):
        n, theta = self.grid.locate(t)
        if theta == 0.0:
            return self.nodes[n].copy()
        if theta == 1.0:
            return self.nodes[n + 1].copy()
        return evaluate_dense(self.caches[n], self.scheme, theta)


def simulate_path(
    scheme: CsrkTableau,
    problem: SdeProblem,
    grid: TimeGrid,
    stream: PathStream,
) -> ContinuousPath:
    """Whole-path simulation with fresh, independent increments per step."""
    if grid.t0 < problem.t0 or grid.T > problem.T:
        raise ValueError("grid exceeds the problem's time interval")
    m = problem.dim_noise
    y = problem.x0.copy()
    caches, nodes = [], [y]
    for n in range(grid.n_steps):
        t_n, h_n = grid.step(n)
        inc = sample(m, h_n, stream)
        try:
            cache = compute_step(scheme, problem, t_n, y, h_n, inc)
        except BlowupError as exc:
            exc.step = n
            raise
        y = evaluate_dense(cache, scheme, 1.0)
        caches.append(cache)
        nodes.append(y)
    return ContinuousPath(grid, scheme, tuple(caches), tuple(nodes))


def query(path: ContinuousPath, t: float):
    return path.value(t)
