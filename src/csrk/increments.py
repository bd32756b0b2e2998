"""Step random variables of the weak schemes and their exact enumeration.

Per step and noise component k, dW[k] is three-point distributed on
{-sqrt(3h), 0, +sqrt(3h)} with probabilities 1/6, 2/3, 1/6; the auxiliary
V[k][l] for l < k are independent +-h with probability 1/2 each, with
V[k][k] = -h and V antisymmetric off the diagonal.  The iterated-integral
stand-ins derive as I_(k) = dW[k] and I_(k,l) = (dW[k] dW[l] + V[k][l]) / 2.

``_from_uniforms`` is the one statement of this law: sampling maps counter
uniforms through it, and exact enumeration maps one representative uniform
per support point through it.  All laws have finite support, so moments and
weak expectations can be computed exactly by enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .streams import PathStream, uniforms

__all__ = [
    "StepIncrements",
    "CapacityError",
    "sample",
    "sample_batch",
    "enumerate_outcomes",
    "outcome_count",
    "moments_exact",
    "uniforms_per_step",
]


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the configured outcome cap."""


@dataclass(frozen=True)
class StepIncrements:
    h: float
    dW: np.ndarray  # (m,)
    V: np.ndarray  # (m, m)

    def __post_init__(self):
        dW = np.asarray(self.dW, dtype=float)
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "dW", dW)
        object.__setattr__(self, "V", V)

    @property
    def m(self) -> int:
        return self.dW.shape[-1]

    def ihat2(self) -> np.ndarray:
        """Matrix of I_(k,l); the diagonal is (dW[k]^2 - h) / 2."""
        return 0.5 * (
            self.dW[..., :, None] * self.dW[..., None, :] + self.V
        )


def uniforms_per_step(m: int) -> int:
    return m + m * (m - 1) // 2


# (representative uniform, probability) per support point, in support order
_W_SUPPORT = ((0.0, 1.0 / 6.0), (0.5, 2.0 / 3.0), (5.0 / 6.0, 1.0 / 6.0))
_V_SUPPORT = ((0.0, 0.5), (0.5, 0.5))


def _from_uniforms(m: int, h: float, u: np.ndarray):
    """Map uniforms (..., m + m(m-1)/2) to dW (..., m) and V (..., m, m)."""
    r3h = math.sqrt(3.0 * h)
    uw = u[..., :m]
    dW = np.where(uw < 1.0 / 6.0, -r3h, np.where(uw >= 5.0 / 6.0, r3h, 0.0))
    V = np.empty(u.shape[:-1] + (m, m))
    for k in range(m):
        V[..., k, k] = -h
    pos = m
    for k in range(m):
        for l in range(k):
            v = np.where(u[..., pos] < 0.5, -h, h)
            V[..., k, l] = v
            V[..., l, k] = -v
            pos += 1
    return dW, V


def sample(m: int, h: float, stream: PathStream) -> StepIncrements:
    """Draw one step's increments from the given stream."""
    if m < 1:
        raise ValueError("need m >= 1")
    if h <= 0:
        raise ValueError("need h > 0")
    u = stream.uniforms(uniforms_per_step(m))
    dW, V = _from_uniforms(m, h, u)
    return StepIncrements(h, dW, V)


def sample_batch(m: int, h: float, seed: int, path_indices, step_index: int):
    """Increments for many paths at once: dW (B, m), V (B, m, m).

    Draw indices are ``step_index * uniforms_per_step(m) + slot``, matching a
    sequential PathStream that consumes exactly one step per call.
    """
    n = uniforms_per_step(m)
    u = uniforms(seed, path_indices, step_index * n, n)
    return _from_uniforms(m, h, u)


def outcome_count(m: int) -> int:
    return 3**m * 2 ** (m * (m - 1) // 2)


def enumerate_outcomes(
    m: int, h: float, cap: int = 10**6
) -> tuple[tuple[StepIncrements, float], ...]:
    """Full joint sample space as (increments, exact probability) pairs."""
    if m < 1:
        raise ValueError("need m >= 1")
    if h <= 0:
        raise ValueError("need h > 0")
    total = outcome_count(m)
    if total > cap:
        raise CapacityError(
            f"enumeration of m={m} has {total} outcomes, above the cap {cap}"
        )
    # one representative uniform per support point of _from_uniforms
    supports = [_W_SUPPORT] * m + [_V_SUPPORT] * (m * (m - 1) // 2)
    choices = list(itertools.product(*supports))
    u = np.array([[uv for uv, _ in choice] for choice in choices])
    dW, V = _from_uniforms(m, h, u)
    return tuple(
        (StepIncrements(h, dw, v), math.prod(p for _, p in choice))
        for choice, dw, v in zip(choices, dW, V)
    )


def moments_exact(m: int, h: float, factors, cap: int = 10**6) -> float:
    """Exact expectation of a product of increment variables.

    ``factors`` is an iterable of index tuples: ``(k,)`` stands for I_(k) and
    ``(k, l)`` for I_(k,l); repetition raises the power.
    """
    factors = [tuple(f) for f in factors]
    for f in factors:
        if len(f) not in (1, 2) or any(not 0 <= i < m for i in f):
            raise ValueError(f"bad factor {f} for m={m}")
    total = 0.0
    for inc, p in enumerate_outcomes(m, h, cap=cap):
        i2 = inc.ihat2()
        prod = 1.0
        for f in factors:
            prod *= inc.dW[f[0]] if len(f) == 1 else i2[f[0], f[1]]
        total += p * prod
    return total
