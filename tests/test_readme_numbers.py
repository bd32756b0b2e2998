"""The exact numbers of the README's "fail by design" bullets, recomputed.

Criterion 4 takes one-step enumerations; criterion 5 takes the identity
``E Y_N^2 = x0^2 T_2(h)^N`` of scalar ``linear``, whose one-step factor
``T_2(h) = E Y_1^2`` at ``x0 = 1`` is one enumeration of 3 outcomes, in place
of the criterion's own N-step enumerations.  Each number must equal the
digits the README prints, so neither can drift from the other.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from csrk import (
    Functional,
    TimeGrid,
    builtin_scheme,
    empirical_order,
    exact_weak_expectation,
    linear_problem,
)

README = (Path(__file__).parents[1] / "README.md").read_text()
FAILURES = README.split("## Testing\n", 1)[1]

# criteria 4 and 5 run on linear with a = 1.5, b = 0.1, x0 = 0.1
A, B, X0 = 1.5, 0.1, 0.1
LIN = linear_problem(A, B, X0, 2.0)
UNIT = linear_problem(A, B, 1.0, 2.0)
FX = Functional("identity", 0)
FX2 = Functional("square", 0)
# E X(h)^2 = x0^2 e^{RATE h}
RATE = 2 * A + B * B


def bullet(criterion):
    """Text of the README's bullet on ``criterion``."""
    return re.search(rf"\n- \*\*Criterion {criterion}\*\*(.*?)\n(?:- |\n)",
                     FAILURES, re.S).group(1)


def one_step(name, problem, f, h):
    """E f(Y_1) of one step of h from the problem's x0, by enumeration."""
    return exact_weak_expectation(builtin_scheme(name), problem,
                                  TimeGrid.uniform(0.0, h, 1), f)


def local_error_coefficients(name):
    """e_k of the one-step error sum_k e_k h^k of f = x^2 on LIN.

    The scheme's one-step value is a polynomial in h, recovered by a
    degree-8 least-squares fit at 40 step sizes on [0.05, 1]; the exact
    value's coefficients are x0^2 RATE^k / k!.
    """
    hs = np.linspace(0.05, 1.0, 40)
    values = np.array([one_step(name, LIN, FX2, h) for h in hs])
    coeffs = np.polynomial.polynomial.polyfit(hs, values, 8)
    residual = np.abs(np.polynomial.polynomial.polyval(hs, coeffs)
                      - values).max()
    assert residual <= 1e-15, f"{name}: fit residual {residual:.2e}"
    return [c - X0**2 * RATE**k / math.factorial(k)
            for k, c in enumerate(coeffs)]


def printed(x, digits):
    """x as the README prints it: ``-2.1307e-4``, not ``-2.1307e-04``."""
    return re.sub(r"e([+-])0", r"e\1", f"{x:.{digits}e}")


@pytest.mark.parametrize("name,f,slope", [
    ("CRDI2WM", FX2, "3.08"), ("CRDI3WM", FX2, "3.47"),
    ("EULER_LINEAR", FX, "2.02"), ("EULER_OPT", FX, "2.02"),
], ids=["CRDI2WM", "CRDI3WM", "EULER_LINEAR", "EULER_OPT"])
def test_criterion_4_local_slope(name, f, slope):
    # criterion 4's fit: one step of h = 2^-3 ... 2^-7 against x0 e^{a h}
    # for f = x, x0^2 e^{RATE h} for f = x^2
    exact = {FX: lambda h: X0 * math.exp(A * h),
             FX2: lambda h: X0**2 * math.exp(RATE * h)}[f]
    pairs = [(h, one_step(name, LIN, f, h) - exact(h))
             for h in (2.0**-k for k in range(3, 8))]
    assert f"{empirical_order(pairs).slope:.2f}" == slope
    assert slope in bullet(4)


@pytest.mark.parametrize("name,slope", [
    ("EULER_LINEAR", "0.49"), ("EULER_OPT", "0.49"),
    ("CRDI2WM", "1.61"), ("CRDI3WM", "2.48"),
])
def test_criterion_5_global_slope(name, slope):
    # N = 4, 8, 16 steps on [0, 2]: E Y_N^2 = x0^2 T_2(h)^N exactly
    pairs = []
    for n in (4, 8, 16):
        h = 2.0 / n
        moment = X0**2 * one_step(name, UNIT, FX2, h) ** n
        pairs.append((h, moment - X0**2 * math.exp(RATE * 2.0)))
    assert f"{empirical_order(pairs).slope:.2f}" == slope
    assert slope in bullet(5)


def test_criterion_4_coefficients():
    e = local_error_coefficients("CRDI3WM")
    quoted = {"e3": printed(e[3], 4), "e4": printed(e[4], 4),
              "|e3/e4|": f"{abs(e[3] / e[4]):.4f}"}
    assert quoted == {"e3": "-2.1307e-4", "e4": "-4.6509e-3",
                      "|e3/e4|": "0.0458"}
    for key, value in quoted.items():
        assert f"`{key} = {value}`" in bullet(4)


@pytest.mark.parametrize("name", ["CRDI2WM", "CRDI3WM", "CRDI4WM"])
def test_criterion_4_no_h2_term(name):
    # weak order 2: the local error starts at h^3
    assert abs(local_error_coefficients(name)[2]) < 1e-12
