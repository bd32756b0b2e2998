"""Step random variables of the weak schemes and their exact enumeration.

Per step and noise component k, dW[k] is three-point distributed on
{-sqrt(3h), 0, +sqrt(3h)} with probabilities 1/6, 2/3, 1/6; the auxiliary
V[k][l] for l < k are independent +-h with probability 1/2 each, with
V[k][k] = -h and V antisymmetric off the diagonal.  The iterated-integral
stand-ins derive as I_(k) = dW[k] and I_(k,l) = (dW[k] dW[l] + V[k][l]) / 2.

``_from_uniforms`` is the one statement of this law: ``sample_batch`` maps
the counter uniforms of a (seed, path, step) address through it, and exact
enumeration maps one representative uniform per support point through it.
Every function here hands increments over as arrays, ``dW (..., m)`` and
``V (..., m, m)``: one step of one path, a batch of paths, or the whole
outcome table with its probabilities ``p (K,)``.  All laws have finite
support, so moments and weak expectations can be computed exactly by
enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .streams import uniforms

__all__ = [
    "CapacityError",
    "check_step",
    "sample_batch",
    "enumerate_outcomes",
    "outcome_count",
    "moments_exact",
    "uniforms_per_step",
]


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the configured outcome cap."""


def check_step(h: float) -> None:
    """Refuse a step size that is not positive and finite."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, got {h}")


def uniforms_per_step(m: int) -> int:
    return m + m * (m - 1) // 2


# (representative uniform, probability) per support point, in support order
_W_SUPPORT = ((0.0, 1.0 / 6.0), (0.5, 2.0 / 3.0), (5.0 / 6.0, 1.0 / 6.0))
_V_SUPPORT = ((0.0, 0.5), (0.5, 0.5))
# one step's outcome table is built row by row in Python
_TABLE_CAP = 10**6


def _from_uniforms(m: int, h: float, u: np.ndarray):
    """Map uniforms (..., m + m(m-1)/2) to dW (..., m) and V (..., m, m)."""
    r3h = math.sqrt(3.0 * h)
    uw = u[..., :m]
    # the sign (+1, 0 or -1, as int8) times sqrt(3h) gives the same values
    # as selecting +-sqrt(3h) or +0.0, in half the time of a nested np.where
    up = (uw >= 5.0 / 6.0).view(np.int8)
    down = (uw < 1.0 / 6.0).view(np.int8)
    dW = (up - down) * r3h
    V = np.empty(u.shape[:-1] + (m, m), order="F")
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


def sample_batch(m: int, h: float, seed: int, path_indices, step_index: int):
    """Step ``step_index``'s increments of one path or an array of paths.

    Draw indices are ``step_index * uniforms_per_step(m) + slot``, so a
    (seed, path, step) address has the same draws in any batch.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    check_step(h)
    n = uniforms_per_step(m)
    u = uniforms(seed, path_indices, step_index * n, n)
    return _from_uniforms(m, h, u)


def outcome_count(m: int) -> int:
    return 3**m * 2 ** (m * (m - 1) // 2)


def enumerate_outcomes(m: int, h: float):
    """Full joint sample space: dW (K, m), V (K, m, m) and the exact
    probabilities p (K,) of its K outcomes."""
    if m < 1:
        raise ValueError("need m >= 1")
    check_step(h)
    total = outcome_count(m)
    if total > _TABLE_CAP:
        raise CapacityError(f"enumeration of m={m} has {total} outcomes, "
                            f"above the cap {_TABLE_CAP}")
    # one representative uniform per support point of _from_uniforms
    supports = [_W_SUPPORT] * m + [_V_SUPPORT] * (m * (m - 1) // 2)
    choices = list(itertools.product(*supports))
    u = np.array([[uv for uv, _ in choice] for choice in choices])
    p = np.array([math.prod(q for _, q in choice) for choice in choices])
    return (*_from_uniforms(m, h, u), p)


def moments_exact(m: int, h: float, factors) -> float:
    """Exact expectation of a product of increment variables.

    ``factors`` is an iterable of index tuples: ``(k,)`` stands for I_(k) and
    ``(k, l)`` for I_(k,l); repetition raises the power.
    """
    factors = [tuple(f) for f in factors]
    for f in factors:
        if len(f) not in (1, 2) or any(not 0 <= i < m for i in f):
            raise ValueError(f"bad factor {f} for m={m}")
    dW, V, p = enumerate_outcomes(m, h)
    I2 = 0.5 * (dW[:, :, None] * dW[:, None, :] + V)
    prod = np.ones_like(p)
    for f in factors:
        prod *= dW[:, f[0]] if len(f) == 1 else I2[:, f[0], f[1]]
    total = 0.0
    for term in (p * prod).tolist():  # summed in outcome order
        total += term
    return total
