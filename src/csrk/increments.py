"""Step random variables of the weak schemes and their exact enumeration.

Per step and noise component k, dW[k] is three-point distributed on
{-sqrt(3h), 0, +sqrt(3h)} with probabilities 1/6, 2/3, 1/6; the auxiliary
V[k][l] for l < k are independent +-h with probability 1/2 each, with
V[k][k] = -h and V antisymmetric off the diagonal.  The schemes are written
in the increments I_(k) = dW[k] and the iterated-integral stand-ins
I_(k,l) = (dW[k] dW[l] + V[k][l]) / 2.

``_from_uniforms`` is the one statement of this law, and the one place
where I2 = (I_(k,l)) is formed: ``sample_batch`` maps the counter uniforms
of a (seed, path, step) address through it, and exact enumeration maps one
representative uniform per support point through it.  Every function here
hands increments over as arrays, ``dW (..., m)`` and ``I2 (..., m, m)``:
one step of one path, a batch of paths, or the whole outcome table with its
probabilities ``p (K,)``.  V itself is never kept.  All laws have finite
support, so moments and weak expectations can be computed exactly by
enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .streams import check_index, uniforms

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
    """Refuse a step size that is not positive and finite, or whose
    increments overflow a float: the largest value ``_from_uniforms`` forms
    is sqrt(3h)^2 + h, an entry of dW dW^T + V."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, got {h}")
    x = float(h)  # a NumPy float would warn of the overflow refused here
    r3h = math.sqrt(3.0 * x)
    if math.isinf(r3h * r3h + x):
        raise ValueError(f"step h={h} is too large: the increments' "
                         "dW dW^T + V overflows a float")


def uniforms_per_step(m: int) -> int:
    check_index("m", m, 1)
    return m + m * (m - 1) // 2


# (representative uniform, probability) per support point, in support order
_W_SUPPORT = ((0.0, 1.0 / 6.0), (0.5, 2.0 / 3.0), (5.0 / 6.0, 1.0 / 6.0))
_V_SUPPORT = ((0.0, 0.5), (0.5, 0.5))
# one step's outcome table is built row by row in Python
_TABLE_CAP = 10**6


def _from_uniforms(m: int, h: float, u: np.ndarray):
    """Map uniforms (..., m + m(m-1)/2) to dW (..., m) and
    I2 = 0.5 * (dW dW^T + V) (..., m, m)."""
    r3h = math.sqrt(3.0 * h)
    uw = u[..., :m]
    # the sign (+1, 0 or -1, as int8) times sqrt(3h) gives the same values
    # as selecting +-sqrt(3h) or +0.0, in half the time of a nested np.where
    up = (uw >= 5.0 / 6.0).view(np.int8)
    down = (uw < 1.0 / 6.0).view(np.int8)
    dW = (up - down) * r3h
    # V is added entry by entry into the one array of the outer product:
    # -h on the diagonal, +-h antisymmetric off it
    I2 = np.multiply(dW[..., :, None], dW[..., None, :], order="F")
    for k in range(m):
        I2[..., k, k] += -h
    pos = m
    for k in range(m):
        for l in range(k):
            v = np.where(u[..., pos] < 0.5, -h, h)
            I2[..., k, l] += v
            I2[..., l, k] -= v
            pos += 1
    I2 *= 0.5
    return dW, I2


def sample_batch(m: int, h: float, seed: int, path_indices, step_index: int):
    """Step ``step_index``'s increments of one path or an array of paths.

    Draw indices are ``step_index * uniforms_per_step(m) + slot``, so a
    (seed, path, step) address has the same draws in any batch.
    """
    n = uniforms_per_step(m)
    check_step(h)
    check_index("step_index", step_index)
    u = uniforms(seed, path_indices, step_index * n, n)
    return _from_uniforms(m, h, u)


def outcome_count(m: int) -> int:
    check_index("m", m, 1)
    return 3**m * 2 ** (m * (m - 1) // 2)


def enumerate_outcomes(m: int, h: float):
    """Full joint sample space: dW (K, m), I2 (K, m, m) and the exact
    probabilities p (K,) of its K outcomes."""
    total = outcome_count(m)
    check_step(h)
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
        check_index("factor index", f)
        if len(f) not in (1, 2) or any(i >= m for i in f):
            raise ValueError(f"bad factor {f} for m={m}")
    dW, I2, p = enumerate_outcomes(m, h)
    prod = np.ones_like(p)
    for f in factors:
        prod *= dW[:, f[0]] if len(f) == 1 else I2[:, f[0], f[1]]
    total = 0.0
    for term in (p * prod).tolist():  # summed in outcome order
        total += term
    return total
