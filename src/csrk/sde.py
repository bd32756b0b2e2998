"""Test problems: Ito SDEs with drift/diffusion callables and exact references.

Drift and diffusion must be vectorized over a leading batch axis: for state
arrays of shape ``(..., d)`` the drift returns ``(..., d)`` and the diffusion
``(..., d, m)``.  This is enforced: a step refuses any other shape with a
ValueError that names the family, the stage, the shape received and the
shape expected, so a ``(d,)`` constant drift is not broadcast over a batch
and a diffusion without its noise axis fails at its first call.  Callables
must be pure; they are evaluated concurrently from many paths.
Lipschitz/linear-growth hypotheses are the caller's obligation and are not
checked.

Batched states arrive path-fastest in memory (Fortran order for
``(B, d)``).  A callable should return that layout too: compute element-wise
from ``x`` or write into ``np.empty_like(x)`` for the drift, and into
``np.empty(..., order="F")`` for the diffusion.  A C-ordered return gives
the same numbers and only runs slower.  The builtin problems do so, and
compute the system2d drift as explicit component sums rather than a BLAS
product, so a batch row rounds exactly like a single path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import check_index

__all__ = [
    "Functional",
    "ReferenceSolution",
    "SdeProblem",
    "linear_problem",
    "system2d_problem",
    "ode_problem",
    "functional_from_name",
]


@dataclass(frozen=True)
class Functional:
    """Scalar observable of the state, limited to one component."""

    kind: str  # "identity" | "square"
    component: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "square"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        check_index("component", self.component)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xi = x[..., self.component]
        if self.kind == "identity":
            return xi
        return xi * xi

    @property
    def label(self) -> str:
        if self.kind == "identity":
            return f"x{self.component + 1}"
        return f"x{self.component + 1}^2"


def functional_from_name(name: str) -> Functional:
    """CLI selectors: 'x' and 'x2' act on the first state component."""
    table = {"x": Functional("identity", 0), "x2": Functional("square", 0)}
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            f"unknown functional {name!r}; available: {', '.join(table)}"
        ) from None


@dataclass(frozen=True)
class ReferenceSolution:
    """Exact trajectory of E f(X(t)) with a provenance tag."""

    functional: Functional
    value: callable  # t -> float
    provenance: str  # "paper_stated" | "derived_closed_form"

    def at(self, t: float) -> float:
        """``value(t)``, refused with a ValueError unless it is finite."""
        try:
            v = self.value(t)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ValueError(f"the reference value of {self.functional.label} "
                             f"at t={t} is not finite")
        return v


def _require_finite(**values) -> None:
    """Refuse, by name, a parameter with a non-finite entry."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SdeProblem:
    dim_state: int
    dim_noise: int
    drift: callable
    diffusion: callable
    x0: np.ndarray
    t0: float
    T: float
    label: str
    references: tuple[ReferenceSolution, ...] = ()

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float).reshape(self.dim_state)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        _require_finite(t0=self.t0, T=self.T, x0=x0)
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got t0 = {self.t0}, T = {self.T}")

    def check_functional(self, functional: Functional) -> None:
        """Refuse a functional of a component the state lacks."""
        if functional.component >= self.dim_state:
            raise ValueError(
                f"functional {functional.label} reads component "
                f"{functional.component}, but {self.label} has a state of "
                f"dimension {self.dim_state}")

    def reference_for(self, functional: Functional, provenance: str | None = None):
        """Select a reference; prefers derived_closed_form when ambiguous."""
        self.check_functional(functional)
        cands = [
            r
            for r in self.references
            if r.functional == functional
            and (provenance is None or r.provenance == provenance)
        ]
        if not cands:
            raise KeyError(
                f"{self.label}: no reference for {functional.label}"
                + (f" with provenance {provenance}" if provenance else "")
            )
        cands.sort(key=lambda r: r.provenance != "derived_closed_form")
        return cands[0]


def linear_problem(a: float, b: float, x0: float, T: float) -> SdeProblem:
    """Scalar geometric Brownian motion dX = aX dt + bX dW on [0, T]."""
    _require_finite(a=a, b=b)
    refs = (
        ReferenceSolution(
            Functional("identity", 0),
            lambda t, a=a, x0=x0: x0 * math.exp(a * t),
            "paper_stated",
        ),
        ReferenceSolution(
            Functional("square", 0),
            lambda t, a=a, b=b, x0=x0: x0**2 * math.exp((2 * a + b * b) * t),
            "derived_closed_form",
        ),
    )
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, a=a: a * x,
        diffusion=lambda t, x, b=b: b * x[..., :, None],
        x0=[x0],
        t0=0.0,
        T=float(T),
        label="linear",
        references=refs,
    )


_SYS2D_DRIFT = ((-273.0 / 512.0, 0.0), (-1.0 / 160.0, -785.0 / 512.0))
_SYS2D_C = (1.0 - 2.0 * math.sqrt(2.0)) / 4.0


def _sys2d_drift(t, x):
    """``x @ A.T`` as explicit component sums, in the order of the unbatched
    product: a batch row rounds like a single path, with no BLAS call."""
    x = np.asarray(x, dtype=float)
    x0, x1 = x[..., 0], x[..., 1]
    out = np.empty_like(x)
    for j, (a0, a1) in enumerate(_SYS2D_DRIFT):
        # each product rounded, then their sum: x0 * a0 + x1 * a1
        np.multiply(x0, a0, out=out[..., j])
        out[..., j] += x1 * a1
    return out


def _sys2d_diffusion(t, x):
    # written in place, column by column: these columns are contiguous
    # when x and out are path-fastest
    x = np.asarray(x, dtype=float)
    x0, x1 = x[..., 0], x[..., 1]
    out = np.empty(x.shape[:-1] + (2, 2), order="F")
    np.divide(x0, 16.0, out=out[..., 0, 0])
    np.multiply(_SYS2D_C, x1, out=out[..., 1, 0])
    out[..., 0, 1] = out[..., 0, 0]
    np.divide(x0, 10.0, out=out[..., 1, 1])
    out[..., 1, 1] += x1 / 16.0
    return out


def system2d_problem() -> SdeProblem:
    """Two-dimensional linear system with non-commutative 2D noise on [0, 4].

    The first component is autonomous geometric Brownian motion, so the
    second moment of X^1 satisfies y' = (2*(-273/512) + 2*(1/16)^2) y, giving
    E[(X^1)^2](t) = exp(-(271/256) t).  A separately tagged reference with
    value exp(-t) is kept for comparison; the two disagree and the derived
    one is the default for order measurements.
    """
    f = Functional("square", 0)
    refs = (
        ReferenceSolution(f, lambda t: math.exp(-t), "paper_stated"),
        ReferenceSolution(
            f, lambda t: math.exp(-271.0 / 256.0 * t), "derived_closed_form"
        ),
    )
    return SdeProblem(
        dim_state=2,
        dim_noise=2,
        drift=_sys2d_drift,
        diffusion=_sys2d_diffusion,
        x0=[1.0, 1.0],
        t0=0.0,
        T=4.0,
        label="system2d",
        references=refs,
    )


def ode_problem(lam: float, x0: float, T: float) -> SdeProblem:
    """Deterministic reduction: dX = lam X dt, zero diffusion."""
    _require_finite(lam=lam)
    refs = (
        ReferenceSolution(
            Functional("identity", 0),
            lambda t, lam=lam, x0=x0: x0 * math.exp(lam * t),
            "derived_closed_form",
        ),
    )
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda t, x, lam=lam: lam * x,
        diffusion=lambda t, x: np.zeros(np.shape(x) + (1,)),
        x0=[x0],
        t0=0.0,
        T=float(T),
        label="ode",
        references=refs,
    )
