"""Counter-based random streams for reproducible parallel Monte Carlo.

Every uniform draw is a pure function of (seed, path index, draw index),
computed with a splitmix64-style finalizer.  Results therefore do not depend
on thread scheduling or on how paths are grouped into chunks, and a path's
stream can be regenerated from its index alone.

Derivation of the draw with index ``i`` of path ``p`` under global seed ``s``::

    key   = mix64(mix64(s) ^ (p + 1) * GAMMA1)
    value = mix64(key + (i + 1) * GAMMA2)
    u     = (value >> 11) * 2**-53

where ``mix64`` is the splitmix64 finalizer (xor-shift/multiply avalanche).

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
_INV_2_53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    # modular 64-bit arithmetic; wraparound is the point, silence the warning
    with np.errstate(over="ignore"):
        z = z ^ (z >> _S30)
        z = z * _M1
        z = z ^ (z >> _S27)
        z = z * _M2
        z = z ^ (z >> _S31)
    return z


def stream_keys(seed: int, path_indices) -> np.ndarray:
    """Per-path 64-bit keys; distinct for distinct (seed, path)."""
    p = np.asarray(path_indices, dtype=np.uint64)
    s = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    with np.errstate(over="ignore"):
        return _mix64(s ^ (p + np.uint64(1)) * _GAMMA1)


class KeyedPaths(np.ndarray):
    """uint64 path indices together with their stream keys under one seed.

    It is the index array in every respect; ``uniforms`` reads its keys
    instead of computing them, if they were made under the seed it is given.
    An array derived from it (a slice, a sum) carries no keys.
    """

    def __new__(cls, seed: int, path_indices):
        self = np.asarray(path_indices, dtype=np.uint64).view(cls)
        self.seed = seed
        self.keys = stream_keys(seed, path_indices)
        return self

    def __array_finalize__(self, obj):
        self.seed = self.keys = None


def uniforms(seed: int, path_indices, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws with indices start..start+count-1 for each path.

    Returns shape ``path_indices.shape + (count,)``.
    """
    if isinstance(path_indices, KeyedPaths) and path_indices.seed == seed:
        keys = path_indices.keys
    else:
        keys = stream_keys(seed, path_indices)
    ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        vals = _mix64(keys[..., None] + ctr * _GAMMA2)
    return (vals >> np.uint64(11)).astype(np.float64) * _INV_2_53


class PathStream:
    """Sequential view of one path's stream; consumes draw indices in order."""

    def __init__(self, seed: int, path_index: int = 0):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self._next = 0

    def uniforms(self, count: int) -> np.ndarray:
        u = uniforms(self.seed, np.uint64(self.path_index), self._next, count)
        self._next += count
        return u
