"""Numeric verification of CSRK order conditions.

The catalog holds every condition as a first-class expression over the
tableau's weight vectors and coefficient matrices (products of vectors taken
componentwise), so user-supplied tableaus run through exactly the same
verification path as the builtin schemes.  Inner products are ufunc sums,
not BLAS calls, so a residual has the same bits on every CPU.

Families:

* ``continuous_order1``   -- conditions 1-7, checked at every theta of a grid.
* ``order1_at_one``       -- the same seven conditions, checked at theta = 1
  only (weak order 1 without uniform-in-theta strengthening).
* ``order2_at_one``       -- conditions 8-50, checked at theta = 1.
* ``continuous_order2_extended`` -- continuous counterparts of 8, 9, 10, 11,
  13, 14, 15, 16, 22, 32 and 33 with theta-dependent right-hand sides.
* ``det_order3``          -- the classical deterministic order-3 conditions
  at theta = 1; ``det_order3_continuous`` their uniform counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import check_index
from .tableau import ConditionId, CsrkTableau

__all__ = [
    "Condition",
    "ConditionRecord",
    "ConditionReport",
    "CATALOG",
    "evaluate_condition",
    "check_conditions",
    "default_theta_grid",
]


@dataclass(frozen=True)
class Condition:
    cid: ConditionId
    lhs: callable  # (tableau, its dense weights at theta) -> float
    rhs: callable  # (theta) -> float
    continuous: bool  # checked over a theta grid rather than at theta = 1

    def residual(self, t: CsrkTableau, theta: float) -> float:
        """|lhs - rhs| at theta; an at-one condition states nothing at
        another theta, so it refuses one."""
        if not self.continuous and theta != 1.0:
            raise ValueError(f"condition '{self.cid}' is checked at theta = 1 "
                             f"only, got theta = {theta}")
        return abs(self.lhs(t, t.dense_weights(theta)) - self.rhs(theta))


@dataclass(frozen=True)
class ConditionRecord:
    cid: ConditionId
    residual: float
    worst_theta: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    records: tuple[ConditionRecord, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


# -- expression helpers ------------------------------------------------------

def _e(t):
    return np.ones(t.stages)


def _weights(r):
    """Weight vector r of the dense weights (alpha, beta1, ..., beta4)."""
    return lambda t, w: np.array(w[r])


_al, _b1, _b2, _b3, _b4 = map(_weights, range(5))


def _dot(u, v):
    """u @ v as a ufunc sum: a BLAS dot product adds in an order that
    depends on the kernel OpenBLAS picks for the CPU."""
    return np.add.reduce(u * v)


def _mv(M, v):
    """M @ v as ufunc sums, one a row, for the same reason."""
    return np.add.reduce(M * v, axis=1)


# left-hand sides of conditions 1..50; vector products are componentwise
_LHS = {
    1: lambda t, w: _dot(_al(t, w), _e(t)),
    2: lambda t, w: _dot(_b4(t, w), _e(t)),
    3: lambda t, w: _dot(_b3(t, w), _e(t)),
    4: lambda t, w: _dot(_b1(t, w), _e(t)) ** 2,
    5: lambda t, w: _dot(_b2(t, w), _e(t)),
    6: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _e(t))),
    7: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _e(t))),
    8: lambda t, w: _dot(_al(t, w), _mv(t.A0, _e(t))),
    9: lambda t, w: _dot(_al(t, w), _mv(t.B0, _e(t)) ** 2),
    10: lambda t, w: (_dot(_b1(t, w), _e(t))
                      * _dot(_al(t, w), _mv(t.B0, _e(t)))),
    11: lambda t, w: (_dot(_b1(t, w), _e(t))
                      * _dot(_b1(t, w), _mv(t.A1, _e(t)))),
    12: lambda t, w: _dot(_b3(t, w), _mv(t.A2, _e(t))),
    13: lambda t, w: _dot(_b2(t, w), _mv(t.B1, _e(t))),
    14: lambda t, w: _dot(_b4(t, w), _mv(t.B2, _e(t))),
    15: lambda t, w: (_dot(_b1(t, w), _e(t))
                      * _dot(_b1(t, w), _mv(t.B1, _e(t)) ** 2)),
    16: lambda t, w: (_dot(_b1(t, w), _e(t))
                      * _dot(_b3(t, w), _mv(t.B2, _e(t)) ** 2)),
    17: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _mv(t.B1, _e(t)))),
    18: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _mv(t.B1, _e(t)))),
    19: lambda t, w: _dot(_b3(t, w), _mv(t.A2, _mv(t.B0, _e(t)))),
    20: lambda t, w: _dot(_b1(t, w), _mv(t.A1, _mv(t.B0, _e(t)))),
    21: lambda t, w: _dot(_al(t, w), _mv(t.B0, _mv(t.B1, _e(t)))),
    22: lambda t, w: _dot(_b2(t, w), _mv(t.A1, _e(t))),
    23: lambda t, w: _dot(_b4(t, w), _mv(t.A2, _e(t))),
    24: lambda t, w: _dot(_b1(t, w), _mv(t.A1, _e(t)) * _mv(t.B1, _e(t))),
    25: lambda t, w: _dot(_b3(t, w), _mv(t.A2, _e(t)) * _mv(t.B2, _e(t))),
    26: lambda t, w: _dot(_b4(t, w), _mv(t.A2, _mv(t.B0, _e(t)))),
    27: lambda t, w: _dot(_b2(t, w), _mv(t.A1, _mv(t.B0, _e(t)))),
    28: lambda t, w: _dot(_b2(t, w), _mv(t.A1, _mv(t.B0, _e(t)) ** 2)),
    29: lambda t, w: _dot(_b4(t, w), _mv(t.A2, _mv(t.B0, _e(t)) ** 2)),
    30: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _mv(t.A1, _e(t)))),
    31: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _mv(t.A1, _e(t)))),
    32: lambda t, w: _dot(_b2(t, w), _mv(t.B1, _e(t)) ** 2),
    33: lambda t, w: _dot(_b4(t, w), _mv(t.B2, _e(t)) ** 2),
    34: lambda t, w: _dot(_b4(t, w), _mv(t.B2, _mv(t.B1, _e(t)))),
    35: lambda t, w: _dot(_b2(t, w), _mv(t.B1, _mv(t.B1, _e(t)))),
    36: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _e(t)) ** 3),
    37: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _e(t)) ** 3),
    38: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _mv(t.B1, _e(t)) ** 2)),
    39: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _mv(t.B1, _e(t)) ** 2)),
    40: lambda t, w: _dot(_al(t, w), (_mv(t.B0, _e(t))
                                      * _mv(t.B0, _mv(t.B1, _e(t))))),
    41: lambda t, w: _dot(_b1(t, w), (_mv(t.A1, _mv(t.B0, _e(t)))
                                      * _mv(t.B1, _e(t)))),
    42: lambda t, w: _dot(_b3(t, w), (_mv(t.A2, _mv(t.B0, _e(t)))
                                      * _mv(t.B2, _e(t)))),
    43: lambda t, w: _dot(_b1(t, w), _mv(t.A1, _mv(t.B0, _mv(t.B1, _e(t))))),
    44: lambda t, w: _dot(_b3(t, w), _mv(t.A2, _mv(t.B0, _mv(t.B1, _e(t))))),
    45: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _mv(t.A1, _mv(t.B0, _e(t))))),
    46: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _mv(t.A1, _mv(t.B0, _e(t))))),
    47: lambda t, w: _dot(_b1(t, w), (_mv(t.B1, _e(t))
                                      * _mv(t.B1, _mv(t.B1, _e(t))))),
    48: lambda t, w: _dot(_b3(t, w), (_mv(t.B2, _e(t))
                                      * _mv(t.B2, _mv(t.B1, _e(t))))),
    49: lambda t, w: _dot(_b1(t, w), _mv(t.B1, _mv(t.B1, _mv(t.B1, _e(t))))),
    50: lambda t, w: _dot(_b3(t, w), _mv(t.B2, _mv(t.B1, _mv(t.B1, _e(t))))),
}


def _zero(th):
    return 0.0


# continuous counterparts of selected order-2 conditions; the products in
# 11, 15 and 16 are checked through their weight-vector factor alone
_CONT_EXT = {
    8: (_LHS[8], lambda th: 0.5 * th**2),
    9: (_LHS[9], lambda th: 0.5 * th**2),
    10: (_LHS[10], lambda th: 0.5 * th**2),
    11: (lambda t, w: _dot(_b1(t, w), _mv(t.A1, _e(t))),
         lambda th: 0.5 * th**1.5),
    13: (_LHS[13], lambda th: th),
    14: (_LHS[14], lambda th: th),
    15: (lambda t, w: _dot(_b1(t, w), _mv(t.B1, _e(t)) ** 2),
         lambda th: 0.5 * th**1.5),
    16: (lambda t, w: _dot(_b3(t, w), _mv(t.B2, _e(t)) ** 2),
         lambda th: 0.5 * th**1.5),
    22: (_LHS[22], _zero),
    32: (_LHS[32], _zero),
    33: (_LHS[33], _zero),
}

_DET3 = {
    1: (lambda t, w: _dot(_al(t, w), _mv(t.A0, _e(t)) ** 2),
        lambda th: th**3 / 3.0),
    2: (lambda t, w: _dot(_al(t, w), _mv(t.A0, _mv(t.A0, _e(t)))),
        lambda th: th**3 / 6.0),
}

_ORDER1 = {i: (_LHS[i], (lambda th: th) if i in (1, 4) else _zero)
           for i in range(1, 8)}

# family -> (checked on the theta grid?, {index: (lhs, rhs(theta))}); an
# at-one family shares its continuous twin's table, and order-2 condition i
# has the right-hand side of its continuous counterpart, 0 if it has none
_FAMILIES = {
    "continuous_order1": (True, _ORDER1),
    "order1_at_one": (False, _ORDER1),
    "order2_at_one": (False, {
        i: (_LHS[i], _CONT_EXT[i][1] if i in _CONT_EXT else _zero)
        for i in range(8, 51)}),
    "continuous_order2_extended": (True, _CONT_EXT),
    "det_order3": (False, _DET3),
    "det_order3_continuous": (True, _DET3),
}

CATALOG: dict[ConditionId, Condition] = {
    ConditionId(family, i): Condition(ConditionId(family, i), lhs, rhs,
                                      continuous)
    for family, (continuous, table) in _FAMILIES.items()
    for i, (lhs, rhs) in table.items()
}


def _condition(cid: ConditionId) -> Condition:
    try:
        return CATALOG[cid]
    except KeyError:
        raise ValueError(f"condition '{cid}' is not in the catalog") from None


def evaluate_condition(t: CsrkTableau, cid: ConditionId, theta: float = 1.0) -> float:
    """Residual |lhs - rhs| of one catalog condition at the given theta.

    A condition checked only at theta = 1 raises a ValueError for any other
    theta, as does an id that is not in ``CATALOG``.
    """
    return _condition(cid).residual(t, theta)


_MAX_GRID_POINTS = 10**7


def default_theta_grid(points: int = 21) -> np.ndarray:
    if points > _MAX_GRID_POINTS:
        raise ValueError(
            f"theta grid may have at most {_MAX_GRID_POINTS} points (points, "
            f"--grid-points on the command line), got {points}")
    check_index("points", points, 2)  # the endpoints at least
    return np.linspace(0.0, 1.0, points)


def check_conditions(
    t: CsrkTableau,
    grid=None,
    tol: float = 1e-12,
    conditions=None,
) -> ConditionReport:
    """Verify order conditions numerically.

    ``conditions`` defaults to the tableau's declared set.  Continuous
    conditions are checked at every theta of ``grid`` (must contain 0 and 1);
    at-one conditions only at theta = 1.  A condition passes iff its worst
    residual is within ``tol``; a NaN residual is the worst, so it fails.
    An id that is not in ``CATALOG`` raises a ValueError that names it.
    """
    if grid is None:
        grid = default_theta_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("theta grid must lie within [0, 1]")
    if 0.0 not in grid or 1.0 not in grid:
        raise ValueError("theta grid must contain both endpoints 0 and 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if conditions is None:
        conditions = t.meta.declared_conditions
    # every id is looked up before any is checked, so an unknown one is
    # refused at once
    catalog = [(cid, _condition(cid)) for cid in sorted(conditions)]
    records = []
    for cid, cond in catalog:
        thetas = grid if cond.continuous else (1.0,)
        worst, worst_theta = -1.0, 1.0
        for th in thetas:
            r = cond.residual(t, th)
            if r > worst or math.isnan(r):
                worst, worst_theta = r, th
                if math.isnan(r):
                    break
        records.append(ConditionRecord(cid, worst, worst_theta, worst <= tol))
    return ConditionReport(tuple(records), tol)
