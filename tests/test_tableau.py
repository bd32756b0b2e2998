import dataclasses
import math

import numpy as np
import pytest

from csrk.integrator import TimeGrid
from csrk.tableau import (
    ConditionId,
    CsrkTableau,
    SchemeMeta,
    TableauError,
    WeightPolynomial,
    builtin_scheme,
    parse_tableau,
    scheme_names,
    tableau_to_json,
)

ALL_SCHEMES = list(scheme_names())


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
        assert t.c0[1] == pytest.approx(2.0 / 3.0)
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
        t = builtin_scheme(name)
        for c, A in ((t.c0, t.A0), (t.c1, t.A1), (t.c2, t.A2)):
            assert np.abs(c - A.sum(axis=1)).max() <= 1e-14

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
            c0=[0.0, 0.5], c1=[0.0, 0.0], c2=[0.0, 0.0],
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
            self._base(A0=[[0.0, 0.3], [0.5, 0.0]], c0=[0.3, 0.5])

    def test_diagonal_rejected(self):
        with pytest.raises(TableauError, match="triangularity"):
            self._base(B1=[[0.1, 0.0], [0.0, 0.0]])

    def test_row_sum_mismatch(self):
        with pytest.raises(TableauError, match="row sums"):
            self._base(c0=[0.0, 0.4])

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
        for attr in ("A0", "A1", "A2", "B0", "B1", "B2", "c0", "c1", "c2"):
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
