"""Counter-based random streams for reproducible parallel Monte Carlo.

Every uniform draw is a pure function of (seed, path index, draw index),
computed with a splitmix64-style finalizer.  Results therefore do not depend
on thread scheduling, on how paths are grouped into chunks or on whether a
path is stepped alone, and a path's stream can be regenerated from its index
alone.

Derivation of the draw with index ``i`` of path ``p`` under global seed ``s``::

    key   = mix64(mix64(s) ^ (p + 1) * GAMMA1)
    value = mix64(key + (i + 1) * GAMMA2)
    u     = (value >> 11) * 2**-53

where ``mix64`` is the splitmix64 finalizer (xor-shift/multiply avalanche),
``GAMMA1 = 0x9E3779B97F4A7C15``, ``GAMMA2 = 0xBF58476D1CE4E5B9 | 1``, and all
integer arithmetic is modulo 2**64.  ``tests/test_streams.py`` checks the
draws against these formulas in Python ints.

``check_index`` is the package's one rule for an integer argument: a Python
or NumPy integer, not a bool or a float, in [low, 2**64).  It refuses a bad
draw address (a seed, a path index, a draw index ``start``, a draw ``count``
or their sum; outside [0, 2**64) NumPy would truncate a float, or wrap or
overflow an integer, and the draws would belong to another address or be
none at all) and every count the other modules take, which import it from
here: this module imports nothing from the package.

The key depends only on (seed, path), so a caller that draws from the same
paths many times computes the keys once: Monte Carlo builds each chunk's path
indices as ``KeyedPaths``, which carry their keys into every ``uniforms``
call of the chunk.
"""

from __future__ import annotations

import numpy as np

_GAMMA1 = np.uint64(0x9E3779B97F4A7C15)
_GAMMA2 = np.uint64(0xBF58476D1CE4E5B9 | 1)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53


def _mix64(z):
    """The splitmix64 finalizer, in place where ``z`` is an array.

    Modular 64-bit arithmetic: NumPy's uint64 array operations wrap without
    a warning, and only a scalar ``z`` needs ``np.errstate``.
    """
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def check_index(name: str, value, low: int = 0) -> None:
    """Refuse ``value`` unless it is an integer in [low, 2**64): a Python or
    NumPy integer, not a bool or a float, or an array or list of them.

    An unsigned integer array passes on its dtype alone where ``low`` is 0,
    so checking a chunk's path indices costs O(1).
    """
    if type(value) is int:
        if low <= value < 1 << 64:
            return
    elif isinstance(value, np.ndarray):
        kind = value.dtype.kind
        if kind in "iu" and (kind == "u" and low == 0 or value.size == 0
                             or value.min() >= low):
            return
    elif isinstance(value, (list, tuple)):
        for v in value:  # the message names the bad entry
            check_index(name, v, low)
        return
    elif isinstance(value, np.integer) and low <= value < 1 << 64:
        return
    raise ValueError(f"{name} must be an integer in [{low}, 2**64), "
                     f"got {value}")


def stream_keys(seed: int, path_indices) -> np.ndarray:
    """Per-path 64-bit keys; distinct for distinct (seed, path)."""
    check_index("seed", seed)
    check_index("path", path_indices)
    p = np.asarray(path_indices, dtype=np.uint64)
    # the seed, and a 0-d index, are mixed as scalars, which warn on wrap
    with np.errstate(over="ignore"):
        s = _mix64(np.uint64(seed))
        return _mix64(s ^ (p + np.uint64(1)) * _GAMMA1)


class KeyedPaths(np.ndarray):
    """uint64 path indices together with their stream keys under one seed.

    It is the index array in every respect; ``uniforms`` reads its keys
    instead of computing them, if they were made under the seed it is given.
    An array derived from it (a slice, a sum) carries no keys.
    """

    def __new__(cls, seed: int, path_indices):
        # checked before the uint64 conversion, which would truncate
        keys = stream_keys(seed, path_indices)
        self = np.asarray(path_indices, dtype=np.uint64).view(cls)
        self.seed, self.keys = seed, keys
        return self

    def __array_finalize__(self, obj):
        self.seed = self.keys = None


def uniforms(seed: int, path_indices, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws with indices start..start+count-1 for each path.

    Returns shape ``path_indices.shape + (count,)`` in Fortran order, which
    is draw-major: the paths are on the contiguous axis, so one draw of a
    whole batch is one contiguous run.
    """
    # keyed indices were checked when they were keyed
    if isinstance(path_indices, KeyedPaths) and path_indices.seed == seed:
        check_index("seed", seed)  # 1.0 == 1, but 1.0 is no seed
        keys = path_indices.keys
    else:
        keys = stream_keys(seed, path_indices)
    check_index("start", start)
    check_index("count", count)
    # the counter of the last draw, start + count, is a 64-bit word too
    check_index("start + count", int(start) + int(count))
    ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    # one array, mixed and shifted in place; every later operation keeps
    # the layout of this first one
    vals = _mix64(np.add(keys[..., None], ctr * _GAMMA2, order="F"))
    vals >>= _S11
    # below 2**53, so the conversion to float64 is exact
    return np.multiply(vals, _INV_2_53, dtype=np.float64)
