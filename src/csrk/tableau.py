"""Coefficient tables for continuous stochastic Runge-Kutta (CSRK) schemes.

A scheme is defined by six strictly lower triangular matrices A^(0..2),
B^(0..2) and five families of weight functions alpha, beta^(1..4) of the
dense-output parameter theta.  The stage nodes are the row sums
c^(q) = A^(q) e.  Every weight is a polynomial in sqrt(theta) with no constant
term, so the dense output collapses onto the left node at theta = 0.

Every scheme, builtin or not, is a JSON scheme document (grammar in the
README) read by ``parse_tableau``; the builtin documents are at the end of
this module.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import re
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
        if not (isinstance(text, str)
                and re.fullmatch(r"[^:]+:[0-9]+", text, re.ASCII)):
            raise TableauError(
                f"condition id {text!r} is not 'family:index' with a "
                "non-negative integer index")
        family, index = text.split(":")
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
        if isinstance(n, ast.Constant) and type(n.value) in (int, float):
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
        value = (float(text) if type(text) in (int, float)
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


def _sized_list(doc, key, length, what):
    """doc[key] as a list of ``length`` items, else a TableauError."""
    try:
        raw = doc[key]
    except KeyError:
        raise TableauError(f"missing field {key!r}") from None
    if not isinstance(raw, list) or len(raw) != length:
        raise TableauError(f"{key} must be a list of {length} {what}")
    return raw


def _parse_matrix(doc, key, s):
    raw = _sized_list(doc, key, s * s, "row-major entries")
    return np.array([_eval_expr(v, f"{key}[{r // s + 1},{r % s + 1}]")
                     for r, v in enumerate(raw)]).reshape(s, s)


def _parse_weights(doc, key, s):
    out = []
    for i, pairs in enumerate(_sized_list(doc, key, s, "weight functions"), 1):
        if not isinstance(pairs, list):
            raise TableauError(f"{key}[{i}] must be a list of [n, c] terms")
        terms = {}
        for k, term in enumerate(pairs, 1):
            if not (isinstance(term, list) and len(term) == 2):
                raise TableauError(
                    f"{key}[{i}] term {k} must be an [n, c] pair, got "
                    f"{json.dumps(term)}")
            n, coeff = term
            if type(n) is not int:  # a JSON integer, not a float or bool
                raise TableauError(
                    f"{key}[{i}] term {k} has half-exponent {json.dumps(n)}; n "
                    "must be an integer")
            if n <= 0:
                raise TableauError(
                    f"{key}[{i}] has a theta^({n}/2) term; weights must "
                    "vanish at theta = 0"
                )
            terms[n] = terms.get(n, 0.0) + _eval_expr(
                coeff, f"{key}[{i}] theta^({n}/2) coefficient")
        out.append(WeightPolynomial.from_dict(terms))
    return tuple(out)


def _parse_order(meta_doc, key) -> float:
    value = meta_doc.get(key, 1.0)
    try:
        order = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        order = math.inf
    if not math.isfinite(order):
        raise TableauError(
            f"meta.{key} must be a finite number, got {json.dumps(value)}")
    return order


def parse_tableau(text: str) -> CsrkTableau:
    """Parse a JSON scheme-definition document (see README for the grammar)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableauError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TableauError("a scheme document must be a JSON object")
    for key in ("name", "s"):
        if key not in doc:
            raise TableauError(f"missing field {key!r}")
    name, s = doc["name"], doc["s"]
    if not isinstance(name, str):
        raise TableauError(f"name must be a string, got {json.dumps(name)}")
    if not (type(s) is int and s >= 1):
        raise TableauError(
            f"stage count s must be a positive integer, got {json.dumps(s)}")
    mats = {k: _parse_matrix(doc, k, s) for k in ("A0", "A1", "A2", "B0", "B1", "B2")}
    weights = {
        k: _parse_weights(doc, k, s)
        for k in ("alpha", "beta1", "beta2", "beta3", "beta4")
    }
    meta_doc = doc.get("meta", {})
    if not isinstance(meta_doc, dict):
        raise TableauError("meta must be a JSON object")
    conditions = meta_doc.get("conditions", [])
    if not isinstance(conditions, list):
        raise TableauError("meta.conditions must be a list of condition ids")
    meta = SchemeMeta(
        name=name,
        p_deterministic=_parse_order(meta_doc, "p_deterministic"),
        p_stochastic=_parse_order(meta_doc, "p_stochastic"),
        declared_conditions=frozenset(map(ConditionId.parse, conditions)),
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


# ---------------------------------------------------------------------------
# builtin schemes: one scheme document each, in the README grammar
# ---------------------------------------------------------------------------

_DOCUMENTS = {
    # The linearly interpolated Euler-Maruyama extension satisfies the
    # order-1 conditions at theta = 1 but, of the continuous ones, only those
    # that do not involve beta^(1): all but 4.  EULER_OPT's sqrt(theta)
    # weight satisfies all of 1-7 on [0, 1].
    "EULER_LINEAR": """
{
  "name": "EULER_LINEAR",
  "s": 1,
  "A0": [0],
  "A1": [0],
  "A2": [0],
  "B0": [0],
  "B1": [0],
  "B2": [0],
  "alpha": [[[2, 1.0]]],
  "beta1": [[[2, 1.0]]],
  "beta2": [[]],
  "beta3": [[]],
  "beta4": [[]],
  "meta": {
    "p_deterministic": 1.0,
    "p_stochastic": 1.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:5", "continuous_order1:6", "continuous_order1:7",
      "order1_at_one:1", "order1_at_one:2", "order1_at_one:3",
      "order1_at_one:4", "order1_at_one:5", "order1_at_one:6",
      "order1_at_one:7"
    ]
  }
}
""",
    "EULER_OPT": """
{
  "name": "EULER_OPT",
  "s": 1,
  "A0": [0],
  "A1": [0],
  "A2": [0],
  "B0": [0],
  "B1": [0],
  "B2": [0],
  "alpha": [[[2, 1.0]]],
  "beta1": [[[1, 1.0]]],
  "beta2": [[]],
  "beta3": [[]],
  "beta4": [[]],
  "meta": {
    "p_deterministic": 1.0,
    "p_stochastic": 1.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7"
    ]
  }
}
""",
    # the README's "Scheme files" example is this document
    "CRDI1WM": """
{
  "name": "CRDI1WM",
  "s": 2,
  "A0": [0, 0, "2/3", 0],
  "A1": [0, 0, 0, 0],
  "A2": [0, 0, 0, 0],
  "B0": [0, 0, "2/3", 0],
  "B1": [0, 0, 0, 0],
  "B2": [0, 0, 0, 0],
  "alpha": [[[2, 1.0], [4, -0.75]], [[4, 0.75]]],
  "beta1": [[[1, 1.0]], []],
  "beta2": [[], []],
  "beta3": [[], []],
  "beta4": [[], []],
  "meta": {
    "p_deterministic": 2.0,
    "p_stochastic": 1.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7", "continuous_order2_extended:8"
    ]
  }
}
""",
    # CRDI2WM-CRDI5WM share A1, A2, B1, B2 and beta1-beta4 and differ in A0,
    # B0 and alpha.  Each declares conditions 1-7 on [0, 1], 8-50 at
    # theta = 1 and the continuous counterparts of 8, 9, 11, 13, 14, 15, 16,
    # 22, 32 and 33.
    "CRDI2WM": """
{
  "name": "CRDI2WM",
  "s": 3,
  "A0": [0, 0, 0, 1, 0, 0, 0, 0, 0],
  "A1": [0, 0, 0, "2/3", 0, 0, "2/3", 0, 0],
  "A2": [0, 0, 0, 0, 0, 0, 0, 0, 0],
  "B0": [0, 0, 0, 1, 0, 0, 0, 0, 0],
  "B1": [0, 0, 0, "sqrt(2/3)", 0, 0, "-sqrt(2/3)", 0, 0],
  "B2": [0, 0, 0, "sqrt(2)", 0, 0, "-sqrt(2)", 0, 0],
  "alpha": [[[2, 1.0], [4, -0.5]], [[4, 0.5]], []],
  "beta1": [[[1, 1.0], [3, -0.75]], [[3, 0.375]], [[3, 0.375]]],
  "beta2": [[], [[2, "sqrt(6)/4"]], [[2, "-sqrt(6)/4"]]],
  "beta3": [[[3, -0.25]], [[3, 0.125]], [[3, 0.125]]],
  "beta4": [[], [[2, "sqrt(2)/4"]], [[2, "-sqrt(2)/4"]]],
  "meta": {
    "p_deterministic": 2.0,
    "p_stochastic": 2.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7",
      "continuous_order2_extended:8", "continuous_order2_extended:9",
      "continuous_order2_extended:11", "continuous_order2_extended:13",
      "continuous_order2_extended:14", "continuous_order2_extended:15",
      "continuous_order2_extended:16", "continuous_order2_extended:22",
      "continuous_order2_extended:32", "continuous_order2_extended:33",
      "order2_at_one:8", "order2_at_one:9", "order2_at_one:10",
      "order2_at_one:11", "order2_at_one:12", "order2_at_one:13",
      "order2_at_one:14", "order2_at_one:15", "order2_at_one:16",
      "order2_at_one:17", "order2_at_one:18", "order2_at_one:19",
      "order2_at_one:20", "order2_at_one:21", "order2_at_one:22",
      "order2_at_one:23", "order2_at_one:24", "order2_at_one:25",
      "order2_at_one:26", "order2_at_one:27", "order2_at_one:28",
      "order2_at_one:29", "order2_at_one:30", "order2_at_one:31",
      "order2_at_one:32", "order2_at_one:33", "order2_at_one:34",
      "order2_at_one:35", "order2_at_one:36", "order2_at_one:37",
      "order2_at_one:38", "order2_at_one:39", "order2_at_one:40",
      "order2_at_one:41", "order2_at_one:42", "order2_at_one:43",
      "order2_at_one:44", "order2_at_one:45", "order2_at_one:46",
      "order2_at_one:47", "order2_at_one:48", "order2_at_one:49",
      "order2_at_one:50"
    ]
  }
}
""",
    # CRDI3WM and CRDI4WM add the deterministic order-3 conditions at
    # theta = 1
    "CRDI3WM": """
{
  "name": "CRDI3WM",
  "s": 3,
  "A0": [0, 0, 0, 0.5, 0, 0, 0, 0.75, 0],
  "A1": [0, 0, 0, "2/3", 0, 0, "2/3", 0, 0],
  "A2": [0, 0, 0, 0, 0, 0, 0, 0, 0],
  "B0": [0, 0, 0, "(9-2*sqrt(15))/14", 0, 0, "(18+3*sqrt(15))/28", 0, 0],
  "B1": [0, 0, 0, "sqrt(2/3)", 0, 0, "-sqrt(2/3)", 0, 0],
  "B2": [0, 0, 0, "sqrt(2)", 0, 0, "-sqrt(2)", 0, 0],
  "alpha": [[[2, 1.0], [4, "-7/9"]], [[4, "1/3"]], [[4, "4/9"]]],
  "beta1": [[[1, 1.0], [3, -0.75]], [[3, 0.375]], [[3, 0.375]]],
  "beta2": [[], [[2, "sqrt(6)/4"]], [[2, "-sqrt(6)/4"]]],
  "beta3": [[[3, -0.25]], [[3, 0.125]], [[3, 0.125]]],
  "beta4": [[], [[2, "sqrt(2)/4"]], [[2, "-sqrt(2)/4"]]],
  "meta": {
    "p_deterministic": 3.0,
    "p_stochastic": 2.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7",
      "continuous_order2_extended:8", "continuous_order2_extended:9",
      "continuous_order2_extended:11", "continuous_order2_extended:13",
      "continuous_order2_extended:14", "continuous_order2_extended:15",
      "continuous_order2_extended:16", "continuous_order2_extended:22",
      "continuous_order2_extended:32", "continuous_order2_extended:33",
      "det_order3:1", "det_order3:2",
      "order2_at_one:8", "order2_at_one:9", "order2_at_one:10",
      "order2_at_one:11", "order2_at_one:12", "order2_at_one:13",
      "order2_at_one:14", "order2_at_one:15", "order2_at_one:16",
      "order2_at_one:17", "order2_at_one:18", "order2_at_one:19",
      "order2_at_one:20", "order2_at_one:21", "order2_at_one:22",
      "order2_at_one:23", "order2_at_one:24", "order2_at_one:25",
      "order2_at_one:26", "order2_at_one:27", "order2_at_one:28",
      "order2_at_one:29", "order2_at_one:30", "order2_at_one:31",
      "order2_at_one:32", "order2_at_one:33", "order2_at_one:34",
      "order2_at_one:35", "order2_at_one:36", "order2_at_one:37",
      "order2_at_one:38", "order2_at_one:39", "order2_at_one:40",
      "order2_at_one:41", "order2_at_one:42", "order2_at_one:43",
      "order2_at_one:44", "order2_at_one:45", "order2_at_one:46",
      "order2_at_one:47", "order2_at_one:48", "order2_at_one:49",
      "order2_at_one:50"
    ]
  }
}
""",
    "CRDI4WM": """
{
  "name": "CRDI4WM",
  "s": 3,
  "A0": [0, 0, 0, 0.5, 0, 0, -1, 2, 0],
  "A1": [0, 0, 0, "2/3", 0, 0, "2/3", 0, 0],
  "A2": [0, 0, 0, 0, 0, 0, 0, 0, 0],
  "B0": [0, 0, 0, "(6-sqrt(6))/10", 0, 0, "(3+2*sqrt(6))/5", 0, 0],
  "B1": [0, 0, 0, "sqrt(2/3)", 0, 0, "-sqrt(2/3)", 0, 0],
  "B2": [0, 0, 0, "sqrt(2)", 0, 0, "-sqrt(2)", 0, 0],
  "alpha": [[[2, 1.0], [4, "-5/6"]], [[4, "2/3"]], [[4, "1/6"]]],
  "beta1": [[[1, 1.0], [3, -0.75]], [[3, 0.375]], [[3, 0.375]]],
  "beta2": [[], [[2, "sqrt(6)/4"]], [[2, "-sqrt(6)/4"]]],
  "beta3": [[[3, -0.25]], [[3, 0.125]], [[3, 0.125]]],
  "beta4": [[], [[2, "sqrt(2)/4"]], [[2, "-sqrt(2)/4"]]],
  "meta": {
    "p_deterministic": 3.0,
    "p_stochastic": 2.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7",
      "continuous_order2_extended:8", "continuous_order2_extended:9",
      "continuous_order2_extended:11", "continuous_order2_extended:13",
      "continuous_order2_extended:14", "continuous_order2_extended:15",
      "continuous_order2_extended:16", "continuous_order2_extended:22",
      "continuous_order2_extended:32", "continuous_order2_extended:33",
      "det_order3:1", "det_order3:2",
      "order2_at_one:8", "order2_at_one:9", "order2_at_one:10",
      "order2_at_one:11", "order2_at_one:12", "order2_at_one:13",
      "order2_at_one:14", "order2_at_one:15", "order2_at_one:16",
      "order2_at_one:17", "order2_at_one:18", "order2_at_one:19",
      "order2_at_one:20", "order2_at_one:21", "order2_at_one:22",
      "order2_at_one:23", "order2_at_one:24", "order2_at_one:25",
      "order2_at_one:26", "order2_at_one:27", "order2_at_one:28",
      "order2_at_one:29", "order2_at_one:30", "order2_at_one:31",
      "order2_at_one:32", "order2_at_one:33", "order2_at_one:34",
      "order2_at_one:35", "order2_at_one:36", "order2_at_one:37",
      "order2_at_one:38", "order2_at_one:39", "order2_at_one:40",
      "order2_at_one:41", "order2_at_one:42", "order2_at_one:43",
      "order2_at_one:44", "order2_at_one:45", "order2_at_one:46",
      "order2_at_one:47", "order2_at_one:48", "order2_at_one:49",
      "order2_at_one:50"
    ]
  }
}
""",
    # CRDI5WM is CRDI4WM with a cubic alpha, which satisfies the
    # deterministic order-3 condition 1 on all of [0, 1].  It trades the
    # continuous theta^2/2 identity of condition 9 for it, so it declares no
    # continuous_order2_extended:9 (condition 9 still holds at theta = 1).
    "CRDI5WM": """
{
  "name": "CRDI5WM",
  "s": 3,
  "A0": [0, 0, 0, 0.5, 0, 0, -1, 2, 0],
  "A1": [0, 0, 0, "2/3", 0, 0, "2/3", 0, 0],
  "A2": [0, 0, 0, 0, 0, 0, 0, 0, 0],
  "B0": [0, 0, 0, "(6-sqrt(6))/10", 0, 0, "(3+2*sqrt(6))/5", 0, 0],
  "B1": [0, 0, 0, "sqrt(2/3)", 0, 0, "-sqrt(2/3)", 0, 0],
  "B2": [0, 0, 0, "sqrt(2)", 0, 0, "-sqrt(2)", 0, 0],
  "alpha": [
    [[2, 1.0], [4, -1.5], [6, "2/3"]],
    [[4, 2.0], [6, "-4/3"]],
    [[4, -0.5], [6, "2/3"]]
  ],
  "beta1": [[[1, 1.0], [3, -0.75]], [[3, 0.375]], [[3, 0.375]]],
  "beta2": [[], [[2, "sqrt(6)/4"]], [[2, "-sqrt(6)/4"]]],
  "beta3": [[[3, -0.25]], [[3, 0.125]], [[3, 0.125]]],
  "beta4": [[], [[2, "sqrt(2)/4"]], [[2, "-sqrt(2)/4"]]],
  "meta": {
    "p_deterministic": 3.0,
    "p_stochastic": 2.0,
    "conditions": [
      "continuous_order1:1", "continuous_order1:2", "continuous_order1:3",
      "continuous_order1:4", "continuous_order1:5", "continuous_order1:6",
      "continuous_order1:7",
      "continuous_order2_extended:8", "continuous_order2_extended:11",
      "continuous_order2_extended:13", "continuous_order2_extended:14",
      "continuous_order2_extended:15", "continuous_order2_extended:16",
      "continuous_order2_extended:22", "continuous_order2_extended:32",
      "continuous_order2_extended:33",
      "det_order3:1", "det_order3:2", "det_order3_continuous:1",
      "order2_at_one:8", "order2_at_one:9", "order2_at_one:10",
      "order2_at_one:11", "order2_at_one:12", "order2_at_one:13",
      "order2_at_one:14", "order2_at_one:15", "order2_at_one:16",
      "order2_at_one:17", "order2_at_one:18", "order2_at_one:19",
      "order2_at_one:20", "order2_at_one:21", "order2_at_one:22",
      "order2_at_one:23", "order2_at_one:24", "order2_at_one:25",
      "order2_at_one:26", "order2_at_one:27", "order2_at_one:28",
      "order2_at_one:29", "order2_at_one:30", "order2_at_one:31",
      "order2_at_one:32", "order2_at_one:33", "order2_at_one:34",
      "order2_at_one:35", "order2_at_one:36", "order2_at_one:37",
      "order2_at_one:38", "order2_at_one:39", "order2_at_one:40",
      "order2_at_one:41", "order2_at_one:42", "order2_at_one:43",
      "order2_at_one:44", "order2_at_one:45", "order2_at_one:46",
      "order2_at_one:47", "order2_at_one:48", "order2_at_one:49",
      "order2_at_one:50"
    ]
  }
}
""",
}


def scheme_names() -> tuple[str, ...]:
    return tuple(_DOCUMENTS)


def builtin_scheme(name: str) -> CsrkTableau:
    key = name.upper()
    if key not in _DOCUMENTS:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(_DOCUMENTS)}"
        )
    return _parsed(key)


@functools.cache
def _parsed(key: str) -> CsrkTableau:
    return parse_tableau(_DOCUMENTS[key])
