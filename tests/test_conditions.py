import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.conditions import (
    CATALOG,
    check_conditions,
    default_theta_grid,
    evaluate_condition,
)
from csrk.tableau import (
    ConditionId,
    CsrkTableau,
    SchemeMeta,
    WeightPolynomial,
    builtin_scheme,
    scheme_names,
)

ORDER2_SET = frozenset(ConditionId("order2_at_one", i) for i in range(8, 51))


class TestCatalog:
    def test_every_id_maps_to_one_expression(self):
        # 7 continuous + 7 at-one + 43 order-2 + 11 extended + 2 + 2 det-3
        assert len(CATALOG) == 72
        families = {}
        for cid in CATALOG:
            families.setdefault(cid.family, set()).add(cid.index)
        assert families["continuous_order1"] == set(range(1, 8))
        assert families["order1_at_one"] == set(range(1, 8))
        assert families["order2_at_one"] == set(range(8, 51))
        assert families["continuous_order2_extended"] == {
            8, 9, 10, 11, 13, 14, 15, 16, 22, 32, 33
        }
        assert families["det_order3"] == {1, 2}
        assert families["det_order3_continuous"] == {1, 2}

    def test_default_grid(self):
        g = default_theta_grid()
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 21


class TestBuiltinsPass:
    @pytest.mark.parametrize("name", scheme_names())
    def test_declared_conditions_pass(self, name):
        report = check_conditions(builtin_scheme(name), tol=1e-12)
        failing = [r for r in report.records if not r.passed]
        assert report.passed, f"{name} fails {[str(r.cid) for r in failing]}"

    @pytest.mark.parametrize("name", ("CRDI2WM", "CRDI3WM", "CRDI4WM",
                                      "CRDI5WM"))
    def test_all_fifty_at_one(self, name):
        full = ORDER2_SET | {
            ConditionId("order1_at_one", i) for i in range(1, 8)
        }
        report = check_conditions(builtin_scheme(name), conditions=full)
        assert report.passed

    @pytest.mark.parametrize("name", scheme_names())
    def test_order1_identities_on_fine_grid(self, name):
        # conditions 1-7 on a 101-point grid; the linearly interpolated Euler
        # extension is excluded from condition 4 (it only holds at theta = 1)
        t = builtin_scheme(name)
        indices = [1, 2, 3, 5, 6, 7] if name == "EULER_LINEAR" else range(1, 8)
        for th in np.linspace(0.0, 1.0, 101):
            for i in indices:
                cid = ConditionId("continuous_order1", i)
                assert evaluate_condition(t, cid, th) <= 1e-12

    @pytest.mark.parametrize("name", ("CRDI3WM", "CRDI4WM", "CRDI5WM"))
    def test_det_order3_at_one(self, name):
        t = builtin_scheme(name)
        for i in (1, 2):
            cid = ConditionId("det_order3", i)
            assert evaluate_condition(t, cid, 1.0) <= 1e-12

    def test_crdi5_continuous_cubic_identity(self):
        # alpha(theta)^T (A0 e)^2 = theta^3 / 3 on the whole grid
        t = builtin_scheme("CRDI5WM")
        cid = ConditionId("det_order3_continuous", 1)
        for th in np.linspace(0.0, 1.0, 101):
            assert evaluate_condition(t, cid, th) <= 1e-12


class TestUnknownCondition:
    @pytest.mark.parametrize("cid", (ConditionId("foo", 1),
                                     ConditionId("order2_at_one", 99)))
    def test_refused_by_name(self, cid):
        t = builtin_scheme("CRDI3WM")
        message = f"^condition '{cid}' is not in the catalog$"
        with pytest.raises(ValueError, match=message):
            check_conditions(t, conditions=[ConditionId("order2_at_one", 8),
                                            cid])
        with pytest.raises(ValueError, match=message):
            evaluate_condition(t, cid)


class TestNegativeControls:
    def test_euler_opt_fails_condition_13(self):
        cid = ConditionId("order2_at_one", 13)
        resid = evaluate_condition(builtin_scheme("EULER_OPT"), cid, 1.0)
        assert resid == pytest.approx(1.0)

    def test_euler_linear_fails_continuous_4(self):
        cid = ConditionId("continuous_order1", 4)
        t = builtin_scheme("EULER_LINEAR")
        assert evaluate_condition(t, cid, 0.5) == pytest.approx(0.25)
        assert evaluate_condition(t, cid, 1.0) <= 1e-15

    @pytest.mark.parametrize("name", ("EULER_OPT", "EULER_LINEAR", "CRDI1WM"))
    def test_low_stage_schemes_fail_order2(self, name):
        report = check_conditions(builtin_scheme(name), conditions=ORDER2_SET)
        assert not report.passed

    def test_crdi5_fails_continuous_extended_9(self):
        # the cubic alpha trades the continuous theta^2/2 identity for the
        # deterministic order-3 one; condition 9 still holds at theta = 1
        t = builtin_scheme("CRDI5WM")
        cid = ConditionId("continuous_order2_extended", 9)
        assert evaluate_condition(t, cid, 0.5) > 0.1
        assert evaluate_condition(t, cid, 1.0) <= 1e-12


def _two_stage(b21, beta1_vals, beta2_vals):
    """Explicit 2-stage candidate with B1[2,1] = b21 and given weights."""
    zero = np.zeros((2, 2))
    b1m = np.array([[0.0, 0.0], [b21, 0.0]])

    def w(v):
        return WeightPolynomial(((2, v),)) if v else WeightPolynomial()

    return CsrkTableau(
        stages=2,
        A0=zero, A1=zero, A2=zero, B0=zero, B1=b1m, B2=zero,
        alpha=(w(1.0), w(0.0)),
        beta1=tuple(w(v) for v in beta1_vals),
        beta2=tuple(w(v) for v in beta2_vals),
        beta3=(w(0.0), w(0.0)),
        beta4=(w(0.0), w(0.0)),
        meta=SchemeMeta("candidate", 1.0, 1.0),
    )


class TestRemark1:
    """Explicit CSRK methods of weak order 2 need at least 3 stages."""

    FOCUS = frozenset(
        {
            ConditionId("order1_at_one", 4),
            ConditionId("order1_at_one", 6),
            ConditionId("order2_at_one", 15),
        }
    )

    def test_one_stage_impossible(self):
        # with s = 1, B1 e = 0, so condition 15's product is 0, never 1/2
        for name in ("EULER_OPT", "EULER_LINEAR"):
            rep = check_conditions(builtin_scheme(name), conditions=self.FOCUS)
            assert not rep.passed

    @settings(max_examples=200, deadline=None)
    @given(
        b21=st.floats(-10, 10, allow_nan=False),
        b1a=st.floats(-10, 10, allow_nan=False),
        b1b=st.floats(-10, 10, allow_nan=False),
        b2a=st.floats(-10, 10, allow_nan=False),
        b2b=st.floats(-10, 10, allow_nan=False),
    )
    def test_two_stage_impossible(self, b21, b1a, b1b, b2a, b2b):
        t = _two_stage(b21, (b1a, b1b), (b2a, b2b))
        rep = check_conditions(t, conditions=self.FOCUS, tol=1e-6)
        # condition 6 forces beta1_2 * B21 = 0, which kills condition 15's
        # beta1^T (B1 e)^2 factor, so the trio can never pass together
        assert not rep.passed


class TestCheckerInterface:
    def test_report_accessor_and_overall(self):
        rep = check_conditions(builtin_scheme("CRDI2WM"))
        by_cid = {r.cid: r for r in rep.records}
        assert by_cid[ConditionId("order2_at_one", 13)].passed
        assert rep.passed == all(r.passed for r in rep.records)
        assert ConditionId("nope", 1) not in by_cid

    def test_grid_must_contain_endpoints(self):
        with pytest.raises(ValueError, match="endpoints"):
            check_conditions(builtin_scheme("CRDI2WM"), grid=[0.0, 0.5])

    def test_grid_domain(self):
        with pytest.raises(ValueError):
            check_conditions(builtin_scheme("CRDI2WM"), grid=[0.0, 1.0, 1.5])

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            check_conditions(builtin_scheme("CRDI2WM"), tol=0.0)

    @pytest.mark.parametrize("tol", (math.nan, math.inf))
    def test_tolerance_finite(self, tol):
        # nan would fail every condition and inf pass any tableau
        with pytest.raises(ValueError, match="positive and finite"):
            check_conditions(builtin_scheme("CRDI2WM"), tol=tol)

    def test_nan_residual_fails(self):
        # alpha @ (B0 e)**2 = 1 * 0 + 0 * inf is NaN, which no comparison
        # with a finite worst residual would keep
        zero = np.zeros((2, 2))
        w, nil = WeightPolynomial(((2, 1.0),)), WeightPolynomial()
        t = CsrkTableau(
            stages=2, A0=zero, A1=zero, A2=zero,
            B0=[[0.0, 0.0], [1e200, 0.0]], B1=zero, B2=zero,
            alpha=(w, nil), beta1=(nil, nil), beta2=(nil, nil),
            beta3=(nil, nil), beta4=(nil, nil),
            meta=SchemeMeta("huge", 1.0, 1.0),
        )
        cid = ConditionId("order2_at_one", 9)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_conditions(t, conditions={cid})
        [rec] = rep.records
        assert math.isnan(rec.residual) and rec.worst_theta == 1.0
        assert not rec.passed and not rep.passed

    @pytest.mark.parametrize("points", (10**7 + 1, 10**23))
    def test_grid_point_limit(self, points):
        with pytest.raises(ValueError, match="at most 10000000 points"):
            default_theta_grid(points)
