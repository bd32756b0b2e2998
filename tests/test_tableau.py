import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.integrator import TimeGrid
from csrk.tableau import (
    ConditionId,
    CsrkTableau,
    SchemeMeta,
    TableauError,
    WeightPolynomial,
    _DOCUMENTS,
    _eval_expr,
    builtin_scheme,
    parse_tableau,
    scheme_names,
    tableau_to_json,
)

ALL_SCHEMES = list(scheme_names())

# the stage nodes (c^(0), c^(1), c^(2)) of each builtin scheme
_OPT_NODES = ((0.0, 2.0 / 3.0, 2.0 / 3.0), (0.0, 0.0, 0.0))
STAGE_NODES = {
    "EULER_LINEAR": ((0.0,), (0.0,), (0.0,)),
    "EULER_OPT": ((0.0,), (0.0,), (0.0,)),
    "CRDI1WM": ((0.0, 2.0 / 3.0), (0.0, 0.0), (0.0, 0.0)),
    "CRDI2WM": ((0.0, 1.0, 0.0),) + _OPT_NODES,
    "CRDI3WM": ((0.0, 0.5, 0.75),) + _OPT_NODES,
    "CRDI4WM": ((0.0, 0.5, 1.0),) + _OPT_NODES,
    "CRDI5WM": ((0.0, 0.5, 1.0),) + _OPT_NODES,
}


class TestWeightPolynomial:
    def test_crdi1_alpha1_at_one(self):
        # alpha_1 = theta - (3/4) theta^2 -> 1/4 at theta = 1
        w = builtin_scheme("CRDI1WM").alpha[0]
        assert w(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_sqrt_theta_weight(self):
        w = builtin_scheme("EULER_OPT").beta1[0]
        assert w(0.25) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_all_weights_vanish_at_zero(self, name):
        t = builtin_scheme(name)
        for fam in (t.alpha, t.beta1, t.beta2, t.beta3, t.beta4):
            for w in fam:
                assert w(0.0) == 0.0

    def test_constant_term_rejected(self):
        with pytest.raises(TableauError, match="positive integer"):
            WeightPolynomial(((0, 1.0),))

    def test_negative_exponent_rejected(self):
        with pytest.raises(TableauError):
            WeightPolynomial(((-2, 1.0),))

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(TableauError, match="duplicate"):
            WeightPolynomial(((2, 1.0), (2, 0.5)))

    def test_domain_error(self):
        w = WeightPolynomial(((2, 1.0),))
        with pytest.raises(ValueError):
            w(1.5)
        with pytest.raises(ValueError):
            w(-0.1)

    def test_half_integer_powers(self):
        w = WeightPolynomial(((3, 1.0),))  # theta^{3/2}
        assert w(0.25) == pytest.approx(0.125, abs=1e-16)


class TestBuiltinRegistry:
    def test_names(self):
        assert ALL_SCHEMES == [
            "EULER_LINEAR", "EULER_OPT", "CRDI1WM", "CRDI2WM", "CRDI3WM",
            "CRDI4WM", "CRDI5WM",
        ]

    @pytest.mark.parametrize("name,digest", [
        ("EULER_LINEAR",
         "36807e7c4bbbd9e614bf3493943891f2c43713dcd098d33e48b50b07d681b7ea"),
        ("EULER_OPT",
         "dd89bce3c313fc8b2a73cd6e57fed6f64db7f464767c46b923a74fffed3729cf"),
        ("CRDI1WM",
         "a45f125a97cde749645bffd3e5f290a0527126a33be522da20d5b89d4fd37e82"),
        ("CRDI2WM",
         "0d6cbe7f381cdcf0d791240cfe65b61f52c81f1fc0d631a54cacb55e97626a19"),
        ("CRDI3WM",
         "2bc11b81ea7964f49f25278895639a381bbe4da77349b3f63391555eb5eefaea"),
        ("CRDI4WM",
         "2925a7f0288b41349242d0bff70b8b5fa676b7c6bfc7b82cd387231cc9761ae4"),
        ("CRDI5WM",
         "5445932149d3ef1b7a9c840a809b2557a455c5b44bcc4c10d2e8e6d5412705ab"),
    ])
    def test_serialized_bits_pinned(self, name, digest):
        # tableau_to_json writes every matrix entry and weight coefficient
        # with full double precision, the orders and the sorted declared set,
        # so the digest pins each of them bit for bit
        text = tableau_to_json(builtin_scheme(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_case_insensitive_and_unknown(self):
        assert builtin_scheme("crdi3wm") is builtin_scheme("CRDI3WM")
        with pytest.raises(KeyError):
            builtin_scheme("RK4")

    def test_euler_linear_weights_at_one(self):
        t = builtin_scheme("EULER_LINEAR")
        assert t.stages == 1
        assert t.alpha[0](1.0) == 1.0
        assert t.beta1[0](1.0) == 1.0
        for fam in (t.beta2, t.beta3, t.beta4):
            assert fam[0].is_zero

    def test_crdi2_coefficients(self):
        t = builtin_scheme("CRDI2WM")
        assert list(t.A0[1]) == [1.0, 0.0, 0.0]
        assert t.B1[1, 0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-16)
        assert t.beta2[1](1.0) == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-16)

    def test_crdi3_alpha_weights(self):
        t = builtin_scheme("CRDI3WM")
        th = 0.6
        expect = (th - 7 / 9 * th**2, th**2 / 3, 4 / 9 * th**2)
        got = t.dense_weights(th)[0]
        assert np.allclose(got, expect, atol=1e-15)

    def test_crdi1_coefficients(self):
        t = builtin_scheme("CRDI1WM")
        assert t.A0[1, 0] == pytest.approx(2.0 / 3.0)
        assert t.B0[1, 0] == pytest.approx(2.0 / 3.0)
        assert t.beta1[1].is_zero

    def test_crdi5_alpha_is_cubic(self):
        t = builtin_scheme("CRDI5WM")
        th = 0.7
        expect = (
            2 / 3 * th**3 - 1.5 * th**2 + th,
            2 * th**2 - 4 / 3 * th**3,
            2 / 3 * th**3 - 0.5 * th**2,
        )
        assert np.allclose(t.dense_weights(th)[0], expect, atol=1e-15)

    def test_crdi4_irrational_entries(self):
        t = builtin_scheme("CRDI4WM")
        assert t.B0[1, 0] == pytest.approx((6 - math.sqrt(6)) / 10, abs=1e-16)
        assert t.B0[2, 0] == pytest.approx((3 + 2 * math.sqrt(6)) / 5, abs=1e-16)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_row_sum_consistency(self, name):
        # stage_plan's nodes c^(q) = A^(q) e, bit for bit
        got = tuple(c for c, _ in builtin_scheme(name).stage_plan)
        assert all(type(v) is float for c in got for v in c)
        assert np.array(got).tobytes() == np.array(STAGE_NODES[name]).tobytes()

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_order_pair(self, name):
        meta = builtin_scheme(name).meta
        assert meta.p_deterministic >= meta.p_stochastic

    def test_cross_stage_flag(self):
        assert not builtin_scheme("EULER_OPT").uses_cross_stages
        assert not builtin_scheme("CRDI1WM").uses_cross_stages
        for name in ("CRDI2WM", "CRDI3WM", "CRDI4WM", "CRDI5WM"):
            assert builtin_scheme(name).uses_cross_stages


class TestValidation:
    def _base(self, **kw):
        args = dict(
            stages=2,
            A0=[[0.0, 0.0], [0.5, 0.0]],
            A1=np.zeros((2, 2)), A2=np.zeros((2, 2)),
            B0=np.zeros((2, 2)), B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
            alpha=(WeightPolynomial(((2, 1.0),)), WeightPolynomial()),
            beta1=(WeightPolynomial(), WeightPolynomial()),
            beta2=(WeightPolynomial(), WeightPolynomial()),
            beta3=(WeightPolynomial(), WeightPolynomial()),
            beta4=(WeightPolynomial(), WeightPolynomial()),
            meta=SchemeMeta("T", 1.0, 1.0),
        )
        args.update(kw)
        return CsrkTableau(**args)

    def test_valid_base(self):
        self._base()

    def test_upper_triangle_rejected(self):
        with pytest.raises(TableauError, match=r"A0\[1,2\]"):
            self._base(A0=[[0.0, 0.3], [0.5, 0.0]])

    def test_diagonal_rejected(self):
        with pytest.raises(TableauError, match="triangularity"):
            self._base(B1=[[0.1, 0.0], [0.0, 0.0]])

    def test_meta_order_violation(self):
        with pytest.raises(TableauError):
            SchemeMeta("bad", 1.0, 2.0)

    def test_arrays_read_only(self):
        t = builtin_scheme("CRDI2WM")
        with pytest.raises(ValueError):
            t.A0[1, 0] = 7.0


class TestConditionId:
    def test_parse_round_trip(self):
        cid = ConditionId("order2_at_one", 13)
        assert ConditionId.parse(str(cid)) == cid

    def test_parse_errors(self):
        with pytest.raises(TableauError):
            ConditionId.parse("no-colon")

    @pytest.mark.parametrize("text", (
        "no-colon", "continuous_order1:x", "continuous_order1:", ":1",
        "continuous_order1:-1", "continuous_order1: 1", "a:b:1", 5,
    ))
    def test_parse_errors_name_the_text(self, text):
        with pytest.raises(TableauError) as ei:
            ConditionId.parse(text)
        assert str(ei.value) == (f"condition id {text!r} is not "
                                 "'family:index' with a non-negative "
                                 "integer index")


def dense_thetas():
    """theta = 0 and 1, and the thetas ``dense`` evaluates on an h = 0.25
    grid, as ``TimeGrid.locate`` returns them."""
    grid = TimeGrid.uniform(0.0, 2.0, 8)
    located = [
        grid.locate(t_n + th * h_n)[1]
        for t_n, h_n in map(grid.step, range(grid.n_steps))
        for th in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    ]
    return [0.0, 1.0] + located


class TestDenseWeights:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_match_weight_functions(self, name):
        t = builtin_scheme(name)
        for th in dense_thetas():
            weights = t.dense_weights(th)
            families = (t.alpha, t.beta1, t.beta2, t.beta3, t.beta4)
            for got, ws in zip(weights, families, strict=True):
                assert all(type(w) is float for w in got)
                want = np.array([w(th) for w in ws], dtype=float)
                assert np.array(got).tobytes() == want.tobytes()

    def test_cross_flag_kept_per_tableau(self):
        t = builtin_scheme("CRDI3WM")
        assert t.uses_cross_stages
        parsed = parse_tableau(tableau_to_json(t))
        assert parsed.uses_cross_stages
        assert parsed.dense_weights(0.3) == t.dense_weights(0.3)
        zero = (WeightPolynomial(),) * t.stages
        replaced = dataclasses.replace(t, beta3=zero, beta4=zero)
        assert not replaced.uses_cross_stages and t.uses_cross_stages
        assert replaced.dense_weights(0.3)[3] == (0.0,) * t.stages


class TestSerialization:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_round_trip_exact(self, name):
        t = builtin_scheme(name)
        u = parse_tableau(tableau_to_json(t))
        for attr in ("A0", "A1", "A2", "B0", "B1", "B2"):
            assert np.array_equal(getattr(t, attr), getattr(u, attr))
        for attr in ("alpha", "beta1", "beta2", "beta3", "beta4"):
            assert getattr(t, attr) == getattr(u, attr)
        assert t.meta.declared_conditions == u.meta.declared_conditions

    def test_expressions_accepted(self):
        doc = """
        {"name": "X", "s": 2,
         "A0": [0, 0, "sqrt(6)/4", 0], "A1": [0, 0, 0, 0],
         "A2": [0, 0, 0, 0], "B0": [0, 0, 0, 0],
         "B1": [0, 0, "(9-2*sqrt(15))/14", 0], "B2": [0, 0, 0, 0],
         "alpha": [[[2, 1]], []], "beta1": [[[1, "sqrt(1)"]], []],
         "beta2": [[], []], "beta3": [[], []], "beta4": [[], []]}
        """
        t = parse_tableau(doc)
        assert t.A0[1, 0] == pytest.approx(math.sqrt(6) / 4, abs=1e-16)
        assert t.B1[1, 0] == pytest.approx((9 - 2 * math.sqrt(15)) / 14)
        assert t.beta1[0](1.0) == 1.0

    def test_triangularity_error_names_entry(self):
        doc = """
        {"name": "X", "s": 2,
         "A0": [0, 1, 0, 0], "A1": [0, 0, 0, 0], "A2": [0, 0, 0, 0],
         "B0": [0, 0, 0, 0], "B1": [0, 0, 0, 0], "B2": [0, 0, 0, 0],
         "alpha": [[], []], "beta1": [[], []], "beta2": [[], []],
         "beta3": [[], []], "beta4": [[], []]}
        """
        with pytest.raises(TableauError, match=r"A0\[1,2\]"):
            parse_tableau(doc)

    def test_constant_weight_term_rejected(self):
        doc = """
        {"name": "X", "s": 1,
         "A0": [0], "A1": [0], "A2": [0], "B0": [0], "B1": [0], "B2": [0],
         "alpha": [[[0, 1]]], "beta1": [[]], "beta2": [[]],
         "beta3": [[]], "beta4": [[]]}
        """
        with pytest.raises(TableauError, match="vanish at theta = 0"):
            parse_tableau(doc)

    def test_malformed_json(self):
        with pytest.raises(TableauError, match="invalid JSON"):
            parse_tableau("{not json")

    def test_missing_matrix(self):
        with pytest.raises(TableauError, match="A1"):
            parse_tableau('{"name": "X", "s": 1, "A0": [0]}')

    def test_unsafe_expression_rejected(self):
        doc = """
        {"name": "X", "s": 1,
         "A0": ["__import__('os')"], "A1": [0], "A2": [0],
         "B0": [0], "B1": [0], "B2": [0],
         "alpha": [[]], "beta1": [[]], "beta2": [[]],
         "beta3": [[]], "beta4": [[]]}
        """
        with pytest.raises(TableauError, match="unsupported construct"):
            parse_tableau(doc)

    @pytest.mark.parametrize("key", ("A0", "B2"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_matrix_entry_named(self, key, bad):
        zero = np.zeros((2, 2))
        mats = {k: zero for k in ("A0", "A1", "A2", "B0", "B1", "B2")}
        mats[key] = np.array([[0.0, 0.0], [bad, 0.0]])
        nil = (WeightPolynomial(),) * 2
        with pytest.raises(TableauError,
                           match=rf"{key}\[2,1\] = {bad} is not finite"):
            CsrkTableau(stages=2, **mats, alpha=nil, beta1=nil, beta2=nil,
                        beta3=nil, beta4=nil, meta=SchemeMeta("X", 1.0, 1.0))


def _one_stage(**fields):
    """EULER_OPT's document with the given top-level fields replaced."""
    doc = json.loads(_DOCUMENTS["EULER_OPT"])
    doc.update(fields)
    return json.dumps(doc)


class TestMalformedDocument:
    """Each structural fault is a TableauError that names the field."""

    @pytest.mark.parametrize("fields,message", [
        ({"s": None}, "stage count s must be a positive integer, got null"),
        ({"s": 2.5}, "stage count s must be a positive integer, got 2.5"),
        ({"s": 1.0}, "stage count s must be a positive integer, got 1.0"),
        ({"s": True}, "stage count s must be a positive integer, got true"),
        ({"s": 0}, "stage count s must be a positive integer, got 0"),
        ({"name": 5}, "name must be a string, got 5"),
        ({"meta": []}, "meta must be a JSON object"),
        ({"meta": {"conditions": "continuous_order1:1"}},
         "meta.conditions must be a list of condition ids"),
        ({"A0": 0}, "A0 must be a list of 1 row-major entries"),
        ({"A0": "0"}, "A0 must be a list of 1 row-major entries"),
        ({"beta1": 0}, "beta1 must be a list of 1 weight functions"),
        ({"beta1": [1]}, "beta1[1] must be a list of [n, c] terms"),
        ({"beta1": [[1]]}, "beta1[1] term 1 must be an [n, c] pair, got 1"),
        ({"beta1": [[[1, 1.0, 2]]]},
         "beta1[1] term 1 must be an [n, c] pair, got [1, 1.0, 2]"),
        ({"beta1": [[[2.7, 1.0]]]},
         "beta1[1] term 1 has half-exponent 2.7; n must be an integer"),
        ({"beta1": [[[1.0, 1.0]]]},
         "beta1[1] term 1 has half-exponent 1.0; n must be an integer"),
        ({"alpha": [[[2, 1.0], [True, 1.0]]]},
         "alpha[1] term 2 has half-exponent true; n must be an integer"),
    ])
    def test_field_named(self, fields, message):
        with pytest.raises(TableauError) as ei:
            parse_tableau(_one_stage(**fields))
        assert str(ei.value) == message

    @pytest.mark.parametrize("key", ("p_deterministic", "p_stochastic"))
    @pytest.mark.parametrize("value,shown", [
        ("nan", '"nan"'), ("abc", '"abc"'), ("2", '"2"'), (None, "null"),
        (True, "true"), (math.nan, "NaN"), (math.inf, "Infinity"),
        (10**400, "1" + "0" * 400),
    ])
    def test_order_must_be_finite_number(self, key, value, shown):
        meta = json.loads(_DOCUMENTS["EULER_OPT"])["meta"]
        meta[key] = value
        with pytest.raises(TableauError) as ei:
            parse_tableau(_one_stage(meta=meta))
        assert str(ei.value) == f"meta.{key} must be a finite number, got {shown}"

    def test_integer_orders_accepted(self):
        meta = {"p_deterministic": 2, "p_stochastic": 1}
        assert parse_tableau(_one_stage(meta=meta)).meta == SchemeMeta(
            "EULER_OPT", 2.0, 1.0)

    @pytest.mark.parametrize("entry", (True, "True", None, [0]))
    def test_non_numeric_entry_refused(self, entry):
        with pytest.raises(TableauError, match=r"unsupported construct in A0"):
            parse_tableau(_one_stage(A0=[entry]))


def _doc(a21=0, alpha1=1.0):
    return json.dumps({
        "name": "X", "s": 2, "A0": [0, 0, a21, 0], "A1": [0, 0, 0, 0],
        "A2": [0, 0, 0, 0], "B0": [0, 0, 0, 0], "B1": [0, 0, 0, 0],
        "B2": [0, 0, 0, 0], "alpha": [[[2, alpha1]], []],
        "beta1": [[], []], "beta2": [[], []], "beta3": [[], []],
        "beta4": [[], []]})


class TestExpressions:
    @pytest.mark.parametrize("text,value", [
        ("-1/2", -0.5), ("+2", 2.0), ("-sqrt(4)**2", -4.0), ("2**-1", 0.5),
    ])
    def test_unary_operators(self, text, value):
        got = _eval_expr(text)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("text,why", [
        ("1/0", "has no value: float division by zero"),
        ("10.0**400", "has no value: overflows a float"),
        ("sqrt(-1)", "has no value: math domain error"),
        ("(-8)**(1/3)", "is not a finite real number: "
                        "(1.0000000000000002+1.7320508075688772j)"),
        ("sqrt((-8)**(1/3))", "has no value: must be real number, not "
                              "complex"),
        ("1e308*10 - 1e308*10", "is not a finite real number: nan"),
        ("1e400", "is not a finite real number: inf"),
    ])
    def test_matrix_entry_without_value_named(self, text, why):
        with pytest.raises(TableauError) as ei:
            parse_tableau(_doc(a21=text))
        assert str(ei.value) == f"A0[2,1] {text!r} {why}"

    def test_weight_coefficient_without_value_named(self):
        with pytest.raises(TableauError,
                           match=r"alpha\[1\] theta\^\(2/2\) coefficient "
                                 r"'\(-8\)\*\*\(1/3\)' is not a finite real"):
            parse_tableau(_doc(alpha1="(-8)**(1/3)"))


# the README grammar: numeric literals, + - * / ** (binary and unary + -),
# sqrt and parentheses
_LITERALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.sampled_from(("0", "0.0", "1e308", "1e-320", "1e400", "2.5e-3")),
)
_EXPRESSIONS = st.recursive(
    _LITERALS,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]})**({t[1]})"),
        st.tuples(st.sampled_from("+-"), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda e: f"sqrt({e})"),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(text=_EXPRESSIONS)
def test_grammar_gives_finite_real_or_tableau_error(text):
    try:
        value = _eval_expr(text)
    except TableauError:
        return
    assert type(value) is float and math.isfinite(value)
