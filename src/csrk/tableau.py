"""Coefficient tables for continuous stochastic Runge-Kutta (CSRK) schemes.

A scheme is defined by six strictly lower triangular matrices A^(0..2),
B^(0..2) and five families of weight functions alpha, beta^(1..4) of the
dense-output parameter theta.  The stage nodes are the row sums
c^(q) = A^(q) e.  Every weight is a polynomial in sqrt(theta) with no constant
term, so the dense output collapses onto the left node at theta = 0.
"""

from __future__ import annotations

import ast
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightPolynomial",
    "ConditionId",
    "SchemeMeta",
    "CsrkTableau",
    "TableauError",
    "builtin_scheme",
    "scheme_names",
    "parse_tableau",
    "tableau_to_json",
]


class TableauError(ValueError):
    """Malformed or inconsistent scheme definition."""


@dataclass(frozen=True)
class WeightPolynomial:
    """Finite sum of terms coeff * theta**(n/2) with half-exponents n >= 1."""

    terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        seen = set()
        for n, coeff in self.terms:
            if not isinstance(n, int) or n <= 0:
                raise TableauError(
                    f"weight half-exponent must be a positive integer, got {n!r}"
                )
            if n in seen:
                raise TableauError(f"duplicate half-exponent {n}")
            if not math.isfinite(coeff):
                raise TableauError(f"non-finite coefficient for theta^({n}/2)")
            seen.add(n)

    @classmethod
    def from_dict(cls, terms: dict[int, float]) -> "WeightPolynomial":
        items = tuple(sorted((int(n), float(c)) for n, c in terms.items() if c != 0.0))
        return cls(items)

    def __call__(self, theta: float) -> float:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
        if theta == 0.0:
            return 0.0
        root = math.sqrt(theta)
        return sum(coeff * root**n for n, coeff in self.terms)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for _, c in self.terms)


@dataclass(frozen=True, order=True)
class ConditionId:
    """Identifier of one order condition in the catalog."""

    family: str
    index: int

    def __str__(self):
        return f"{self.family}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "ConditionId":
        family, _, index = text.partition(":")
        if not index:
            raise TableauError(f"condition id {text!r} is not 'family:index'")
        return cls(family, int(index))


@dataclass(frozen=True)
class SchemeMeta:
    name: str
    p_deterministic: float
    p_stochastic: float
    declared_conditions: frozenset[ConditionId] = frozenset()

    def __post_init__(self):
        if self.p_deterministic < self.p_stochastic:
            raise TableauError(
                f"{self.name}: deterministic order {self.p_deterministic} below "
                f"stochastic order {self.p_stochastic}"
            )


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CsrkTableau:
    stages: int
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    alpha: tuple[WeightPolynomial, ...]
    beta1: tuple[WeightPolynomial, ...]
    beta2: tuple[WeightPolynomial, ...]
    beta3: tuple[WeightPolynomial, ...]
    beta4: tuple[WeightPolynomial, ...]
    meta: SchemeMeta

    def __post_init__(self):
        s = self.stages
        for name in ("A0", "A1", "A2", "B0", "B1", "B2"):
            mat = _ro(getattr(self, name))
            if mat.shape != (s, s):
                raise TableauError(f"{name} must be {s}x{s}")
            if not np.isfinite(mat).all():
                i, j = np.argwhere(~np.isfinite(mat))[0]
                raise TableauError(
                    f"{name}[{i + 1},{j + 1}] = {mat[i, j]} is not finite")
            for i in range(s):
                for j in range(i, s):
                    if mat[i, j] != 0.0:
                        raise TableauError(
                            f"{name}[{i + 1},{j + 1}] = {mat[i, j]} breaks strict "
                            "lower triangularity"
                        )
            object.__setattr__(self, name, mat)
        for name in ("alpha", "beta1", "beta2", "beta3", "beta4"):
            ws = tuple(getattr(self, name))
            if len(ws) != s:
                raise TableauError(f"{name} must have {s} weight functions")
            object.__setattr__(self, name, ws)

    def dense_weights(self, theta: float) -> tuple[tuple[float, ...], ...]:
        """(alpha, beta1, beta2, beta3, beta4) at theta, as Python floats.

        ``evaluate_dense`` takes this tuple; a caller that evaluates one theta
        many times builds it once.
        """
        return tuple(
            tuple(float(w(theta)) for w in ws)
            for ws in (self.alpha, self.beta1, self.beta2, self.beta3,
                       self.beta4)
        )

    @functools.cached_property
    def uses_cross_stages(self) -> bool:
        """Whether the beta^(3)/beta^(4) cross-noise family is active at all."""
        return not all(w.is_zero for w in self.beta3 + self.beta4)

    @functools.cached_property
    def stage_plan(self):
        """Per family q = 0, 1, 2: the nodes c^(q) = A^(q) e and, for each
        stage i, the couplings ``(j, A^(q)[i, j], B^(q)[i, j])`` in which A or
        B is nonzero, in j order; every coefficient is a Python float."""
        def family(A, B):
            couplings = tuple(
                tuple((j, float(A[i, j]), float(B[i, j])) for j in range(i)
                      if A[i, j] != 0.0 or B[i, j] != 0.0)
                for i in range(self.stages)
            )
            return tuple(float(v) for v in A.sum(axis=1)), couplings

        return (family(self.A0, self.B0),
                family(self.A1, self.B1),
                family(self.A2, self.B2))


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------

def _w(terms: dict[int, float]) -> WeightPolynomial:
    return WeightPolynomial.from_dict(terms)


_ZERO_W = WeightPolynomial()


def _cid_set(*specs) -> frozenset[ConditionId]:
    out = set()
    for family, indices in specs:
        out.update(ConditionId(family, i) for i in indices)
    return frozenset(out)


_ORDER1_ALL = ("continuous_order1", range(1, 8))
_ORDER2_ALL = ("order2_at_one", range(8, 51))
# continuous counterparts satisfied by the optimal order-2 schemes
_EXT_BETA = (9, 11, 13, 14, 15, 16, 22, 32, 33)

_SQ6_4 = math.sqrt(6.0) / 4.0
_SQ2_4 = math.sqrt(2.0) / 4.0
_SQ23 = math.sqrt(2.0 / 3.0)
_SQ2 = math.sqrt(2.0)


def _euler(name: str, beta1_terms: dict[int, float],
           declared: frozenset[ConditionId]) -> CsrkTableau:
    z = np.zeros((1, 1))
    return CsrkTableau(
        stages=1,
        A0=z, A1=z, A2=z, B0=z, B1=z, B2=z,
        alpha=(_w({2: 1.0}),),
        beta1=(_w(beta1_terms),),
        beta2=(_ZERO_W,), beta3=(_ZERO_W,), beta4=(_ZERO_W,),
        meta=SchemeMeta(name, 1.0, 1.0, declared),
    )


def _crdi1() -> CsrkTableau:
    z = np.zeros((2, 2))
    lower = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    declared = _cid_set(_ORDER1_ALL, ("continuous_order2_extended", (8,)))
    return CsrkTableau(
        stages=2,
        A0=lower, B0=lower, A1=z, B1=z, A2=z, B2=z,
        alpha=(_w({2: 1.0, 4: -0.75}), _w({4: 0.75})),
        beta1=(_w({1: 1.0}), _ZERO_W),
        beta2=(_ZERO_W,) * 2, beta3=(_ZERO_W,) * 2, beta4=(_ZERO_W,) * 2,
        meta=SchemeMeta("CRDI1WM", 2.0, 1.0, declared),
    )


# weight functions shared by CRDI2WM..CRDI5WM
_BETA1_OPT = (_w({1: 1.0, 3: -0.75}), _w({3: 0.375}), _w({3: 0.375}))
_BETA2_OPT = (_ZERO_W, _w({2: _SQ6_4}), _w({2: -_SQ6_4}))
_BETA3_OPT = (_w({3: -0.25}), _w({3: 0.125}), _w({3: 0.125}))
_BETA4_OPT = (_ZERO_W, _w({2: _SQ2_4}), _w({2: -_SQ2_4}))

# diffusion-part coefficients shared by CRDI2WM..CRDI5WM
_A1_OPT = np.array([[0.0, 0.0, 0.0], [2.0 / 3.0, 0.0, 0.0], [2.0 / 3.0, 0.0, 0.0]])
_B1_OPT = np.array([[0.0, 0.0, 0.0], [_SQ23, 0.0, 0.0], [-_SQ23, 0.0, 0.0]])
_A2_OPT = np.zeros((3, 3))
_B2_OPT = np.array([[0.0, 0.0, 0.0], [_SQ2, 0.0, 0.0], [-_SQ2, 0.0, 0.0]])


def _order2_scheme(name, p_det, A0, B0, alpha, extra_declared=()):
    declared = _cid_set(
        _ORDER1_ALL,
        _ORDER2_ALL,
        ("continuous_order2_extended", _EXT_BETA if name != "CRDI5WM"
         else tuple(i for i in _EXT_BETA if i != 9)),
        *extra_declared,
    ) | _cid_set(("continuous_order2_extended", (8,)))
    return CsrkTableau(
        stages=3,
        A0=A0, B0=B0, A1=_A1_OPT, B1=_B1_OPT, A2=_A2_OPT, B2=_B2_OPT,
        alpha=alpha,
        beta1=_BETA1_OPT, beta2=_BETA2_OPT, beta3=_BETA3_OPT, beta4=_BETA4_OPT,
        meta=SchemeMeta(name, p_det, 2.0, frozenset(declared)),
    )


def _crdi2() -> CsrkTableau:
    A0 = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    B0 = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    alpha = (_w({2: 1.0, 4: -0.5}), _w({4: 0.5}), _ZERO_W)
    return _order2_scheme("CRDI2WM", 2.0, A0, B0, alpha)


_A0_CRDI3 = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.75, 0.0]]
_B0_CRDI3 = [
    [0.0, 0.0, 0.0],
    [(9.0 - 2.0 * math.sqrt(15.0)) / 14.0, 0.0, 0.0],
    [(18.0 + 3.0 * math.sqrt(15.0)) / 28.0, 0.0, 0.0],
]
_A0_CRDI4 = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]]
_B0_CRDI4 = [
    [0.0, 0.0, 0.0],
    [(6.0 - math.sqrt(6.0)) / 10.0, 0.0, 0.0],
    [(3.0 + 2.0 * math.sqrt(6.0)) / 5.0, 0.0, 0.0],
]
_DET3 = (("det_order3", (1, 2)),)


def _crdi3() -> CsrkTableau:
    alpha = (_w({2: 1.0, 4: -7.0 / 9.0}), _w({4: 1.0 / 3.0}), _w({4: 4.0 / 9.0}))
    return _order2_scheme("CRDI3WM", 3.0, _A0_CRDI3, _B0_CRDI3, alpha, _DET3)


def _crdi4() -> CsrkTableau:
    alpha = (_w({2: 1.0, 4: -5.0 / 6.0}), _w({4: 2.0 / 3.0}), _w({4: 1.0 / 6.0}))
    return _order2_scheme("CRDI4WM", 3.0, _A0_CRDI4, _B0_CRDI4, alpha, _DET3)


def _crdi5() -> CsrkTableau:
    alpha = (
        _w({2: 1.0, 4: -1.5, 6: 2.0 / 3.0}),
        _w({4: 2.0, 6: -4.0 / 3.0}),
        _w({4: -0.5, 6: 2.0 / 3.0}),
    )
    extra = _DET3 + (("det_order3_continuous", (1,)),)
    return _order2_scheme("CRDI5WM", 3.0, _A0_CRDI4, _B0_CRDI4, alpha, extra)


_BUILDERS = {
    # the linearly interpolated Euler-Maruyama extension only satisfies the
    # order-1 conditions at theta = 1 plus the continuous ones that do not
    # involve beta^(1); the sqrt(theta) variant satisfies all of 1-7 on [0,1]
    "EULER_LINEAR": lambda: _euler(
        "EULER_LINEAR",
        {2: 1.0},
        _cid_set(
            ("continuous_order1", (1, 2, 3, 5, 6, 7)),
            ("order1_at_one", range(1, 8)),
        ),
    ),
    "EULER_OPT": lambda: _euler("EULER_OPT", {1: 1.0}, _cid_set(_ORDER1_ALL)),
    "CRDI1WM": _crdi1,
    "CRDI2WM": _crdi2,
    "CRDI3WM": _crdi3,
    "CRDI4WM": _crdi4,
    "CRDI5WM": _crdi5,
}

_CACHE: dict[str, CsrkTableau] = {}


def scheme_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def builtin_scheme(name: str) -> CsrkTableau:
    key = name.upper()
    if key not in _BUILDERS:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(_BUILDERS)}"
        )
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[key]()
    return _CACHE[key]


# ---------------------------------------------------------------------------
# external scheme-definition documents (JSON)
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {"sqrt": math.sqrt}


def _eval_expr(text, where="expression") -> float:
    """Evaluate a numeric coefficient expression like '(9-2*sqrt(15))/14'.

    The value is a finite real float; an expression without one (a division
    by zero, an overflow, a math domain error, a complex or non-finite
    result) raises a TableauError that names it as ``where``.
    """
    def ev(n):
        if isinstance(n, ast.Expression):
            return ev(n.body)
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)):
            return float(n.value)
        if isinstance(n, ast.BinOp) and isinstance(
            n.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            a, b = ev(n.left), ev(n.right)
            return {
                ast.Add: lambda: a + b,
                ast.Sub: lambda: a - b,
                ast.Mult: lambda: a * b,
                ast.Div: lambda: a / b,
                ast.Pow: lambda: a**b,
            }[type(n.op)]()
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            v = ev(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id in _ALLOWED_FUNCS
            and len(n.args) == 1
        ):
            return _ALLOWED_FUNCS[n.func.id](ev(n.args[0]))
        raise TableauError(f"unsupported construct in {where} {text!r}")

    try:
        value = (float(text) if isinstance(text, (int, float))
                 else ev(ast.parse(str(text), mode="eval")))
    except SyntaxError as exc:
        raise TableauError(f"cannot parse {where} {text!r}: {exc}") from None
    except TableauError:
        raise
    except (ArithmeticError, ValueError, TypeError) as exc:
        why = "overflows a float" if isinstance(exc, OverflowError) else exc
        raise TableauError(f"{where} {text!r} has no value: {why}") from None
    if isinstance(value, complex) or not math.isfinite(value):
        raise TableauError(
            f"{where} {text!r} is not a finite real number: {value}")
    return value


def _parse_matrix(doc, key, s):
    try:
        raw = doc[key]
    except KeyError:
        raise TableauError(f"missing matrix {key!r}") from None
    if len(raw) != s * s:
        raise TableauError(f"{key} must have {s * s} row-major entries")
    return np.array([_eval_expr(v, f"{key}[{r // s + 1},{r % s + 1}]")
                     for r, v in enumerate(raw)]).reshape(s, s)


def _parse_weights(doc, key, s):
    try:
        raw = doc[key]
    except KeyError:
        raise TableauError(f"missing weights {key!r}") from None
    if len(raw) != s:
        raise TableauError(f"{key} must list {s} weight functions")
    out = []
    for i, pairs in enumerate(raw):
        terms = {}
        for n, coeff in pairs:
            n = int(n)
            if n <= 0:
                raise TableauError(
                    f"{key}[{i + 1}] has a theta^({n}/2) term; weights must "
                    "vanish at theta = 0"
                )
            terms[n] = terms.get(n, 0.0) + _eval_expr(
                coeff, f"{key}[{i + 1}] theta^({n}/2) coefficient")
        out.append(WeightPolynomial.from_dict(terms))
    return tuple(out)


def parse_tableau(text: str) -> CsrkTableau:
    """Parse a JSON scheme-definition document (see README for the grammar)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableauError(f"invalid JSON: {exc}") from None
    try:
        name = doc["name"]
        s = int(doc["s"])
    except KeyError as exc:
        raise TableauError(f"missing field {exc.args[0]!r}") from None
    if s < 1:
        raise TableauError("stage count s must be positive")
    mats = {k: _parse_matrix(doc, k, s) for k in ("A0", "A1", "A2", "B0", "B1", "B2")}
    weights = {
        k: _parse_weights(doc, k, s)
        for k in ("alpha", "beta1", "beta2", "beta3", "beta4")
    }
    meta_doc = doc.get("meta", {})
    declared = frozenset(
        ConditionId.parse(c) for c in meta_doc.get("conditions", ())
    )
    meta = SchemeMeta(
        name=name,
        p_deterministic=float(meta_doc.get("p_deterministic", 1.0)),
        p_stochastic=float(meta_doc.get("p_stochastic", 1.0)),
        declared_conditions=declared,
    )
    return CsrkTableau(
        stages=s,
        **mats,
        **weights,
        meta=meta,
    )


def tableau_to_json(t: CsrkTableau) -> str:
    """Serialize with full double precision; round-trips exactly."""
    def wlist(ws):
        return [[[n, c] for n, c in w.terms] for w in ws]

    doc = {
        "name": t.meta.name,
        "s": t.stages,
        "A0": list(t.A0.ravel()), "A1": list(t.A1.ravel()), "A2": list(t.A2.ravel()),
        "B0": list(t.B0.ravel()), "B1": list(t.B1.ravel()), "B2": list(t.B2.ravel()),
        "alpha": wlist(t.alpha),
        "beta1": wlist(t.beta1), "beta2": wlist(t.beta2),
        "beta3": wlist(t.beta3), "beta4": wlist(t.beta4),
        "meta": {
            "p_deterministic": t.meta.p_deterministic,
            "p_stochastic": t.meta.p_stochastic,
            "conditions": sorted(str(c) for c in t.meta.declared_conditions),
        },
    }
    return json.dumps(doc, indent=2)
