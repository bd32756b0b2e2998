import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from csrk.sde import (
    Functional,
    SdeProblem,
    functional_from_name,
    linear_problem,
    ode_problem,
    system2d_problem,
)


class TestFunctional:
    def test_identity_and_square(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(Functional("identity", 1)(x), [2.0, 4.0])
        assert np.array_equal(Functional("square", 0)(x), [1.0, 9.0])

    def test_unknown_kind_refused(self):
        # the kind is checked where the functional is made, not where used
        with pytest.raises(ValueError, match="unknown functional kind "
                                             "'polynomial'"):
            Functional("polynomial", 0)

    def test_from_name(self):
        assert functional_from_name("x").kind == "identity"
        assert functional_from_name("x2").kind == "square"
        with pytest.raises(KeyError):
            functional_from_name("x3")

    def test_labels(self):
        assert Functional("identity", 0).label == "x1"
        assert Functional("square", 0).label == "x1^2"


class TestLinearProblem:
    A, B, X0 = 1.5, 0.1, 0.1

    def _prob(self):
        return linear_problem(self.A, self.B, self.X0, 2.0)

    def test_stated_reference_value_at_1_7(self):
        ref = self._prob().reference_for(Functional("identity", 0))
        assert ref.value(1.7) == pytest.approx(0.1 * math.exp(2.55))
        assert ref.value(1.7) == pytest.approx(1.28071, abs=5e-6)
        assert ref.at(1.7) == ref.value(1.7)

    def test_initial_values(self):
        p = self._prob()
        for f in (Functional("identity", 0), Functional("square", 0)):
            ref = p.reference_for(f)
            assert ref.value(0.0) == pytest.approx(float(f(p.x0)), abs=1e-15)

    def test_second_moment_closed_form(self):
        ref = self._prob().reference_for(Functional("square", 0))
        assert ref.provenance == "derived_closed_form"
        t = 2.0
        assert ref.value(t) == pytest.approx(
            self.X0**2 * math.exp((2 * self.A + self.B**2) * t)
        )

    def test_second_moment_ode_oracle(self):
        # dE[X^2]/dt = (2a + b^2) E[X^2], solved numerically
        ref = self._prob().reference_for(Functional("square", 0))
        sol = solve_ivp(
            lambda t, y: (2 * self.A + self.B**2) * y,
            (0.0, 2.0),
            [self.X0**2],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in (0.5, 1.0, 1.7, 2.0):
            assert ref.value(t) == pytest.approx(
                float(sol.sol(t)[0]), rel=1e-9
            )

    def test_drift_diffusion_shapes(self):
        p = self._prob()
        x = np.ones((4, 1))
        assert p.drift(0.0, x).shape == (4, 1)
        assert p.diffusion(0.0, x).shape == (4, 1, 1)
        assert p.diffusion(0.0, x)[0, 0, 0] == pytest.approx(self.B)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_problem(1.0, 1.0, 1.0, -2.0)

    def test_non_finite_horizon(self):
        with pytest.raises(ValueError, match="^T must be finite, got inf$"):
            linear_problem(1.0, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize("args,message", [
        ((math.nan, 0.1, 0.1, 2.0), "a must be finite, got nan"),
        ((1.5, math.inf, 0.1, 2.0), "b must be finite, got inf"),
        ((-math.inf, math.nan, 0.1, 2.0), "a must be finite, got -inf"),
    ])
    def test_non_finite_coefficient_named(self, args, message):
        # accepted before, and refused later as a blow-up or a reference
        # value that is not finite
        with pytest.raises(ValueError) as ei:
            linear_problem(*args)
        assert str(ei.value) == message


class TestSdeProblem:
    def test_non_finite_start_state(self):
        with pytest.raises(ValueError,
                           match=r"^x0 must be finite, got \[nan\]$"):
            SdeProblem(dim_state=1, dim_noise=1, drift=lambda t, x: x,
                       diffusion=lambda t, x: x[..., None], x0=[math.nan],
                       t0=0.0, T=1.0, label="nan-start")


class TestSystem2d:
    def test_diffusion_at_ones(self):
        p = system2d_problem()
        got = p.diffusion(0.0, np.array([1.0, 1.0]))
        expect = np.array(
            [
                [1 / 16, 1 / 16],
                [(1 - 2 * math.sqrt(2)) / 4, 1 / 10 + 1 / 16],
            ]
        )
        assert np.allclose(got, expect, atol=1e-16)

    def test_drift_matrix(self):
        p = system2d_problem()
        x = np.array([1.0, 0.0])
        assert np.allclose(
            p.drift(0.0, x), [-273 / 512, -1 / 160], atol=1e-16
        )

    def test_both_references_exposed(self):
        p = system2d_problem()
        f = Functional("square", 0)
        stated = p.reference_for(f, "paper_stated")
        derived = p.reference_for(f, "derived_closed_form")
        assert stated.value(3.8) == pytest.approx(math.exp(-3.8))
        assert derived.value(3.8) == pytest.approx(math.exp(-271 / 256 * 3.8))
        assert stated.value(3.8) != derived.value(3.8)

    def test_default_reference_is_derived(self):
        p = system2d_problem()
        ref = p.reference_for(Functional("square", 0))
        assert ref.provenance == "derived_closed_form"

    def test_derived_reference_ode_oracle(self):
        # y' = (2 a_11 + 2 b_11^2) y for the autonomous first component
        rate = 2 * (-273 / 512) + 2 * (1 / 16) ** 2
        assert rate == pytest.approx(-271 / 256)
        p = system2d_problem()
        ref = p.reference_for(Functional("square", 0))
        sol = solve_ivp(
            lambda t, y: rate * y, (0.0, 4.0), [1.0], rtol=1e-12, atol=1e-14,
            dense_output=True,
        )
        assert ref.value(3.8) == pytest.approx(float(sol.sol(3.8)[0]), rel=1e-9)

    def test_dimensions(self):
        p = system2d_problem()
        assert (p.dim_state, p.dim_noise) == (2, 2)
        assert np.array_equal(p.x0, [1.0, 1.0])
        assert (p.t0, p.T) == (0.0, 4.0)


class TestOdeProblem:
    def test_exponential_reference(self):
        p = ode_problem(1.0, 1.0, 1.0)
        ref = p.reference_for(Functional("identity", 0))
        assert ref.value(1.0) == pytest.approx(math.e)

    def test_zero_and_negative_rates(self):
        assert ode_problem(0.0, 2.0, 1.0).reference_for(
            Functional("identity", 0)
        ).value(0.7) == pytest.approx(2.0)
        assert ode_problem(-2.0, 3.0, 1.0).reference_for(
            Functional("identity", 0)
        ).value(0.5) == pytest.approx(3 * math.exp(-1))

    def test_non_finite_rate_named(self):
        with pytest.raises(ValueError, match="^lam must be finite, got nan$"):
            ode_problem(math.nan, 1.0, 1.0)

    def test_zero_diffusion(self):
        p = ode_problem(1.0, 1.0, 1.0)
        assert np.all(p.diffusion(0.0, np.ones((3, 1))) == 0.0)


class TestRegistry:
    def test_missing_reference_error(self):
        p = ode_problem(1.0, 1.0, 1.0)
        with pytest.raises(KeyError, match="no reference"):
            p.reference_for(Functional("square", 0))

    @pytest.mark.parametrize("problem,f,message", [
        (system2d_problem(), Functional("identity", 5),
         "functional x6 reads component 5, but system2d has a state of "
         "dimension 2"),
        (ode_problem(1.0, 1.0, 1.0), Functional("square", 1),
         "functional x2^2 reads component 1, but ode has a state of "
         "dimension 1"),
    ])
    def test_component_the_state_lacks_refused(self, problem, f, message):
        for check in (problem.check_functional, problem.reference_for):
            with pytest.raises(ValueError) as ei:
                check(f)
            assert str(ei.value) == message
        problem.check_functional(Functional("square", problem.dim_state - 1))

    @pytest.mark.parametrize("x0,t", [
        (1e300, 1.0),  # x0**2 raises OverflowError
        (1e154, 2.0),  # x0**2 is finite, its product with exp(6.02) is not
    ])
    def test_non_finite_reference_refused(self, x0, t):
        ref = linear_problem(1.5, 0.1, x0, 2.0).reference_for(
            Functional("square", 0))
        with pytest.raises(ValueError) as ei:
            ref.at(t)
        assert str(ei.value) == (f"the reference value of x1^2 at t={t} is "
                                 "not finite")
