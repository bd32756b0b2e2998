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
and ``evaluate_dense`` for the path loop, which serves the path simulator
and the Monte Carlo engine, and for the enumeration oracle's level loop; it
gives a ``BlowupError`` its step, and its path where the rows are paths.

Batches are path-fastest in memory (Fortran order for ``(B, ...)``): the
engines make their states and increments that way, every element-wise
operation here keeps its operands' layout, and the cached I2 and dense
output are made that way, so each column such as ``dW[..., k]`` or
``b_vals[i][k][l]`` is one contiguous run and NumPy's inner loops run over
the B paths, not over d or m.  The arithmetic is element-wise, so the
layout moves no bit: C-ordered states or callable returns give the same
numbers, only more slowly.

A step reads the scheme's nodes and nonzero couplings as Python floats from
``CsrkTableau.stage_plan``, built once per tableau.  The two diffusion
families share one loop and one m x m table per stage: b^k at H_i^(k) on the
diagonal and, where the cross family runs, b^k at Hhat_i^(l) off it; dense
output sums each family over the entries it filled.  A step evaluates drift
and diffusion at every stage and stores the iterated-integral matrix
``I2 = 0.5 * (dW dW^T + V)`` in its cache once, for every dense evaluation of
that step to read.  ``evaluate_dense`` takes the scheme's dense weights at
theta, ``CsrkTableau.dense_weights(theta)``, which depend only on the scheme
and theta: the engines build them once per run and theta.

A step keeps no more than it must.  A stage input is dropped as soon as its
drift or diffusion call returns, not kept next to the stage values.
``evaluate_dense`` combines a batch of more than ``_TILE`` rows one row tile
at a time, with the same element-wise operations in the same order on row
views, so its temporaries are a tile's rows, which stay in a core's L2
cache, and not the batch's; a Monte Carlo chunk is one tile.  Neither moves
a bit.

A step also writes its batch-sized temporaries once where that does not
move the heap.  I2 is formed in the one array of the outer product.
``_add_terms`` writes every product of a dense evaluation into one buffer
of the output's shape, made on each call (each tile of a big batch) and
dropped when the call returns: unlike scratch buffers kept from call to
call, it holds no memory between evaluations.  The element-wise operations
and their order are those of the out-of-place forms, so no bit moves.
Stage inputs keep the out-of-place ``H = H + term``: adding H into each
fresh product instead made glibc trim and regrow the heap top at every
step on system2d, which slowed its one-thread Monte Carlo command (ROADMAP
dead ends).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .increments import check_step
from .sde import SdeProblem
from .tableau import CsrkTableau

__all__ = [
    "TimeGrid",
    "StageCache",
    "BlowupError",
    "compute_step_arrays",
    "evaluate_dense",
]

# rows of a batch that evaluate_dense combines at a time: a tile's operands
# and temporaries stay in a core's L2 cache
_TILE = 1 << 15


class BlowupError(ArithmeticError):
    """A state, or a value computed from it, is not finite.

    ``family`` names the value (None for a state): drift or diffusion in the
    step from ``t_n``, or an f-value or expectation at time ``t_n``.  For
    batched states ``path`` is the batch row of the first non-finite value;
    ``stats._advance`` turns it into the path index, or into None where the
    rows are not paths.
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
    # s tables of m x m arrays (..., d): b^k at H_i^(k) on the diagonal,
    # b^k at Hhat_i^(l) at [k][l] off it (None where the cross family is off)
    b_vals: tuple


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
    check_step(h)
    s, m = scheme.stages, problem.dim_noise
    (c0, K0), diag, cross = scheme.stage_plan
    sqrt_h = math.sqrt(h)
    y_n = np.asarray(y_n, dtype=float)
    dW = np.asarray(dW, dtype=float)
    V = np.asarray(V, dtype=float)
    batched = y_n.ndim > 1
    # (nodes, couplings, family, whether its values go on the diagonal)
    families = [(*diag, "diffusion", True)]
    if scheme.uses_cross_stages and m > 1:
        families.append((*cross, "cross diffusion", False))
    a_vals: list = [None] * s
    b_vals: list = [None] * s

    for i in range(s):
        H0 = y_n
        for j, a, b in K0[i]:
            if a != 0.0:
                H0 = H0 + (h * a) * a_vals[j]
            if b != 0.0:
                for r in range(m):
                    H0 = H0 + b * dW[..., r, None] * b_vals[j][r][r]
        a_vals[i] = _evaluate(problem.drift, t_n + c0[i] * h, H0, y_n.shape,
                              t_n, i, "drift", batched)
        # a stage input dies with its call, not beside the stage values
        del H0

        table = [[None] * m for _ in range(m)]
        for c, K, family, on_diag in families:
            for l in range(m):
                H = y_n
                for j, a, b in K[i]:
                    if a != 0.0:
                        H = H + (h * a) * a_vals[j]
                    if b != 0.0:
                        H = H + (sqrt_h * b) * b_vals[j][l][l]
                bmat = _evaluate(problem.diffusion, t_n + c[i] * h, H,
                                 y_n.shape + (m,), t_n, i, family, batched)
                del H
                for k in range(m):
                    if (k == l) == on_diag:
                        table[k][l] = bmat[..., :, k]
        b_vals[i] = tuple(map(tuple, table))

    # I2 = 0.5 * (dW dW^T + V), formed in the one array of the outer product
    I2 = np.multiply(dW[..., :, None], dW[..., None, :], order="F")
    I2 += V
    I2 *= 0.5
    return StageCache(
        t_n=t_n, h=h, sqrt_h=sqrt_h, y_n=y_n, dW=dW, V=V, I2=I2,
        a_vals=tuple(a_vals), b_vals=tuple(b_vals),
    )


def _evaluate(fn, t, H, shape, t_n, stage, family, batched):
    """``fn(t, H)`` as a float array, refused unless it has ``shape`` and
    is finite."""
    out = np.asarray(fn(t, H), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{family} at stage {stage + 1} returned shape "
                         f"{out.shape}, expected {shape}")
    _check_finite(out, t_n, stage, family, batched)
    return out


def evaluate_dense(cache: StageCache, weights):
    """Y(t_n + theta * h) from cached evaluations; pure in the cache.

    ``weights`` is ``scheme.dense_weights(theta)`` of the step's scheme.
    A batch of more than ``_TILE`` rows is combined one row tile at a time,
    with the same operations in the same order on row views of every
    operand, so a tile's temporaries are ``_TILE`` rows, not the batch's.
    """
    y_n = cache.y_n
    rows = len(y_n) if y_n.ndim > 1 else 0
    if rows <= _TILE:
        # order="K" keeps the states' layout; a plain copy() is C order
        y = y_n.copy(order="K")
        _add_terms(y, weights, cache.h, cache.sqrt_h, cache.dW, cache.I2,
                   cache.a_vals, cache.b_vals)
        return y

    def cut(a, lo, tail=1):
        # rows [lo, lo + _TILE) of an operand with the batch axes and
        # ``tail`` more; one that broadcasts over the batch is used whole
        if a is not None and a.ndim == y_n.ndim - 1 + tail and len(a) == rows:
            return a[lo:lo + _TILE]
        return a

    # the layout of y_n.copy(order="K"); each tile of y_n is copied in
    # just before its terms are added, while it is still in cache
    y = np.empty_like(y_n)
    for lo in range(0, rows, _TILE):
        tile = y[lo:lo + _TILE]
        tile[...] = y_n[lo:lo + _TILE]
        _add_terms(tile, weights, cache.h, cache.sqrt_h,
                   cut(cache.dW, lo), cut(cache.I2, lo, tail=2),
                   [cut(a, lo) for a in cache.a_vals],
                   [[[cut(b, lo) for b in row] for row in table]
                    for table in cache.b_vals])
    return y


def _add_terms(y, weights, h, sqrt_h, dW, I2, a_vals, b_vals):
    """Add the dense output's terms at ``weights`` to y in place: the drift
    terms, then each noise family's, in stage order."""
    al, b1, b2, b3, b4 = weights
    s = len(al)
    m = dW.shape[-1]
    # per family: its two weights and the (k, l) entries of the table it
    # fills; the off-diagonal is filled only where the cross family ran
    families = [(b1, b2, [(k, k) for k in range(m)])]
    if m > 1 and b_vals[0][0][1] is not None:
        families.append((b3, b4, [(k, l) for k in range(m)
                                  for l in range(m) if k != l]))
    # every product is written into this one buffer, then added to y
    term = np.empty_like(y)
    for i in range(s):
        if al[i] != 0.0:
            y += np.multiply(al[i] * h, a_vals[i], out=term)
    for bw, bi, pairs in families:
        for i in range(s):
            if bw[i] == 0.0 and bi[i] == 0.0:
                continue
            for k, l in pairs:
                coeff = bw[i] * dW[..., k]
                coeff += (bi[i] / sqrt_h) * I2[..., k, l]
                y += np.multiply(coeff[..., None], b_vals[i][k][l], out=term)
