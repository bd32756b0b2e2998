"""One-step CSRK execution and dense output.

A step computes the three stage families in a single interleaved loop over
the stage index (strict lower triangularity makes this the unique
dependency-respecting order) and caches every drift/diffusion evaluation.
Dense output at any theta in [0, 1] then combines cached values with the
theta-dependent weights: no further function evaluations and no further
random draws.

All state arithmetic broadcasts over leading batch axes, so the same code
advances a single path (state shape ``(d,)``) or a whole chunk of paths
(state shape ``(B, d)``, increments ``(B, m)``/``(B, m, m)``).  The one
routine that takes a step, ``stats._advance``, calls ``compute_step_arrays``
and ``evaluate_dense`` for its three callers: the path simulator, the Monte
Carlo engine and the enumeration oracle.

A step reads the scheme's nodes and nonzero couplings as Python floats from
``CsrkTableau.stage_plan``, built once per tableau.  It evaluates drift and
diffusion at every stage and stores the iterated-integral matrix
``I2 = 0.5 * (dW dW^T + V)`` in its cache once, for every dense evaluation of
that step to read.  ``evaluate_dense`` takes the scheme's dense weights at
theta, ``CsrkTableau.dense_weights(theta)``, which depend only on the scheme
and theta: the engines build them once per run and theta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .sde import SdeProblem
from .tableau import CsrkTableau

__all__ = [
    "TimeGrid",
    "StageCache",
    "BlowupError",
    "compute_step_arrays",
    "evaluate_dense",
]


class BlowupError(ArithmeticError):
    """A state, or a value computed from it, is not finite.

    ``family`` names the value (None for a state): drift or diffusion in the
    step from ``t_n``, or an f-value or expectation at time ``t_n``.  For
    batched states ``path`` is the batch row of the first non-finite value;
    the path loop of stats.py turns it into the path index.
    """

    def __init__(self, t_n=None, stage=None, family=None, step=None,
                 path=None):
        super().__init__()
        self.t_n = t_n
        self.stage = stage
        self.family = family
        self.step = step
        self.path = path

    def __str__(self):
        parts = []
        if self.step is not None:
            who = "enumeration" if self.path is None else f"path {self.path}"
            parts.append(f"{who} blew up at step {self.step}")
        if self.family is not None:
            stage = "" if self.stage is None else f", stage {self.stage + 1}"
            parts.append(f"non-finite {self.family} value at t={self.t_n}"
                         f"{stage}")
        return ": ".join(parts)


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray  # strictly increasing, last node exactly T

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.isfinite(times).all():
            raise ValueError("grid nodes must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t0: float, T: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError(f"need at least one step, got {n_steps}")
        if not (math.isfinite(t0) and math.isfinite(T)):
            raise ValueError(f"grid ends must be finite, got {t0} and {T}")
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
        raise BlowupError(t_n=t_n, stage=stage, family=family, path=row)


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
    (c0, K0), (c1, K1), (c2, K2) = scheme.stage_plan
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
        for j, a, b in K0[i]:
            if a != 0.0:
                H0 = H0 + (h * a) * a_vals[j]
            if b != 0.0:
                for r in range(m):
                    H0 = H0 + b * dW[..., r, None] * b_diag[j][r]
        a_vals[i] = np.asarray(
            problem.drift(t_n + c0[i] * h, H0), dtype=float
        )
        _check_finite(a_vals[i], t_n, i, "drift", batched)

        diag_i = []
        for k in range(m):
            Hk = y_n
            for j, a, b in K1[i]:
                if a != 0.0:
                    Hk = Hk + (h * a) * a_vals[j]
                if b != 0.0:
                    Hk = Hk + (sqrt_h * b) * b_diag[j][k]
            bmat = np.asarray(
                problem.diffusion(t_n + c1[i] * h, Hk), dtype=float
            )
            _check_finite(bmat, t_n, i, "diffusion", batched)
            diag_i.append(bmat[..., :, k])
        b_diag[i] = tuple(diag_i)

        if cross:
            cross_i = [[None] * m for _ in range(m)]
            for l in range(m):
                Hl = y_n
                for j, a, b in K2[i]:
                    if a != 0.0:
                        Hl = Hl + (h * a) * a_vals[j]
                    if b != 0.0:
                        Hl = Hl + (sqrt_h * b) * b_diag[j][l]
                bmat = np.asarray(
                    problem.diffusion(t_n + c2[i] * h, Hl), dtype=float
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


def evaluate_dense(cache: StageCache, weights):
    """Y(t_n + theta * h) from cached evaluations; pure in the cache.

    ``weights`` is ``scheme.dense_weights(theta)`` of the step's scheme.
    """
    al, b1, b2, b3, b4 = weights
    s = len(al)
    m = cache.dW.shape[-1]
    h, sqrt_h = cache.h, cache.sqrt_h
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
